"""Byte-identity fingerprint of the benchmark workloads' first instances.

    python3 tools/fingerprint.py

Run it from the root of a checkout; the package is imported from the
checkout's ``src/`` and the workloads from ``perfbench/``, which it only
reads. For each workload in ``perfbench/workloads.WORKLOADS`` it runs
the first 12 instances (sweep seeds 1000-1011) through ``build_instance``
and ``simulate`` and prints one sha256 over every run's ``RunMetrics``
without ``wall_ms``, its events without ``wall_ms``, its final commodity
states and every trace row. A change meant to keep behaviour prints the
same digests before and after.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SWEEP_SEEDS = range(1000, 1012)


def _without_wall(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_ms"}


def digest(workload) -> str:
    """The sha256 of the workload's first instances, run in seed order."""
    h = hashlib.sha256()
    for seed in SWEEP_SEEDS:
        rows: list[dict] = []
        result = workloads.simulate(workload, workloads.build_instance(workload, seed), trace=rows.append)
        run = {
            "metrics": _without_wall(result.metrics.to_json()),
            "events": [_without_wall(e) for e in result.events],
            "commodities": [asdict(c) for c in result.commodities],
            "rows": rows,
        }
        h.update(json.dumps(run, sort_keys=True).encode())
    return h.hexdigest()


def main() -> None:
    for name, workload in workloads.WORKLOADS.items():
        print(name, digest(workload), flush=True)


if __name__ == "__main__":
    main()
