"""The benchmark command itself, run as the benchmark runs it.

``tests/test_benchmark_contract.py`` checks the package surface that
``perfbench/`` imports; this runs ``perfbench/run.py`` end to end for one
second per workload, so a benchmark that crashes, fails its correctness
gate or stops reporting a metric that ``BENCHMARK.json`` declares fails
here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# a timed run reports the end-to-end metrics, a traced run the per-layer ones
REPORTED = {trace: {m["name"] for m in BENCHMARK[key]}
            for trace, key in (("0", "end_to_end"), ("1", "per_layer"))}


# a traced run takes seconds, so it carries the slow marker
@pytest.mark.parametrize("workload, trace", [
    ("deadline-replan", "0"),
    pytest.param("deadline-replan", "1", marks=pytest.mark.slow),
    ("ordered-openended", "0"),
    pytest.param("ordered-openended", "1", marks=pytest.mark.slow),
    ("fixed-plan-long", "0"),
    pytest.param("fixed-plan-long", "1", marks=pytest.mark.slow),
])
def test_benchmark_run_is_correct_and_complete(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert REPORTED[trace] <= result["metrics"].keys()
