"""Byte-identity fingerprint of the benchmark workloads' first instances.

    python3 tools/fingerprint.py

Run it from the root of a checkout; the package is imported from the
checkout's ``src/`` and the workloads from ``perfbench/``, which it only
reads. For each workload in ``perfbench/workloads.WORKLOADS`` it runs
the first 12 instances (sweep seeds 1000-1011) through ``build_instance``
and ``simulate`` and prints one sha256 over every run's ``RunMetrics``
without ``wall_ms``, its events without ``wall_ms``, its final commodity
states and every trace row, then one sha256 over every argument (value,
dtype and shape) those runs hand HiGHS's ``passModel`` and ``addRows``
(the balance rows and the held rows), every option they set (so each
call's ``simplex_strategy``) and every status of each start basis they
pass ``setBasis``, in call order, with the number of ``passModel``,
``addRows`` and ``setBasis`` calls. A solve without a start appends its
held rows in one ``addRows``; one with a start appends the start's own
held rows, then calls ``setBasis``, then appends the rest, so the
digest holds that order too. The ``protocol-paths`` line is one
sha256, taken the same way, over fixed-plan-long's and deadline-replan's
first 12 instances run with ``max_buffer_age=6`` and ``cascade_depth=2``,
the expiry and cascade paths no workload takes, with the number of ebits
those runs expired. It then runs the c3, c7, c8 and c9 tests of
``tests/test_acceptance.py`` under pytest, with ``run_simulation``
wrapped from session start, and prints one sha256 over every run those
tests make: its ``RunMetrics`` and events without ``wall_ms`` and its
final commodity states, with the run and solver-call counts. A change
meant to keep behaviour prints the same digests before and after; one
that changes only how the package builds its programs prints the same
``lp-input`` line too.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import workloads  # noqa: E402
from entsched import engine, lp  # noqa: E402

SWEEP_SEEDS = range(1000, 1012)
# the protocol options no benchmark workload sets, and the workloads run with them
PROTOCOL_PATHS = {"max_buffer_age": 6, "cascade_depth": 2}
PROTOCOL_PATH_WORKLOADS = ("fixed-plan-long", "deadline-replan")
ACCEPTANCE = [str(ROOT / "tests" / "test_acceptance.py"), "-k", "c3 or c7 or c8 or c9",
              "-q", "-p", "no:cacheprovider"]


def _without_wall(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_ms"}


def _record(result) -> dict:
    """A run's metrics and events without ``wall_ms`` and its final commodity states."""
    return {
        "metrics": _without_wall(result.metrics.to_json()),
        "events": [_without_wall(e) for e in result.events],
        "commodities": [asdict(c) for c in result.commodities],
    }


def digest(*runs) -> tuple[str, int]:
    """The sha256 of each workload's first instances, run in seed order and
    workload after workload, and the number of ebits they expired."""
    h = hashlib.sha256()
    expired = 0
    for workload in runs:
        for seed in SWEEP_SEEDS:
            rows: list[dict] = []
            result = workloads.simulate(workload, workloads.build_instance(workload, seed),
                                        trace=rows.append)
            h.update(json.dumps({**_record(result), "rows": rows}, sort_keys=True).encode())
            expired += sum(row["dropped"] for row in rows)
    return h.hexdigest(), expired


class _LpInputRecorder:
    """Context manager hashing every `passModel` and `addRows` argument,
    option and start basis the LP backend hands HiGHS inside the block: it
    swaps `lp._highs` for a copy of the HiGHS bindings whose ``_Highs``
    hashes each call's arguments before passing them on, and restores the
    bindings on exit."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.calls = self.adds = self.starts = 0

    def record(self, name, args) -> None:
        self.hash.update(name.encode())
        for a in args:
            if isinstance(a, np.ndarray):
                self.hash.update(f"{a.dtype.str}{a.shape}".encode())
                self.hash.update(np.ascontiguousarray(a).tobytes())
            else:
                self.hash.update(f"{type(a).__name__}:{a!r}".encode())

    def __enter__(self):
        self.core = core = lp._highs
        recorder = self

        class Highs(core._Highs):
            def passModel(self, *args):
                recorder.calls += 1
                recorder.record("passModel", args)
                return super().passModel(*args)

            def addRows(self, *args):
                recorder.adds += 1
                recorder.record("addRows", args)
                return super().addRows(*args)

            def setOptionValue(self, *args):
                recorder.record("setOptionValue", args)
                return super().setOptionValue(*args)

            def setBasis(self, basis):
                recorder.starts += 1
                recorder.record("setBasis", [np.array([int(v) for v in basis.col_status]),
                                             np.array([int(v) for v in basis.row_status])])
                return super().setBasis(basis)

        lp._highs = types.SimpleNamespace(**{**vars(core), "_Highs": Highs})
        return self

    def __exit__(self, *exc):
        lp._highs = self.core


class _RunRecorder:
    """pytest plugin hashing every `engine.run_simulation` call in run
    order. It wraps the function at session start, before collection
    imports the test modules that bind it."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.runs = self.solves = 0

    def pytest_sessionstart(self, session):
        self.real = real = engine.run_simulation

        def recorded(*args, **kwargs):
            result = real(*args, **kwargs)
            self.runs += 1
            self.solves += result.metrics.solver_calls
            self.hash.update(json.dumps(_record(result), sort_keys=True).encode())
            return result

        engine.run_simulation = recorded

    def pytest_sessionfinish(self, session):
        engine.run_simulation = self.real


def main() -> int:
    with _LpInputRecorder() as lp_input:
        for name, workload in workloads.WORKLOADS.items():
            print(name, digest(workload)[0], flush=True)
    print(f"lp-input {lp_input.hash.hexdigest()} ({lp_input.calls} calls, "
          f"{lp_input.adds} addRows, {lp_input.starts} warm)", flush=True)
    paths, expired = digest(*(replace(w, params={**w.params, **PROTOCOL_PATHS})
                              for w in map(workloads.WORKLOADS.get, PROTOCOL_PATH_WORKLOADS)))
    print(f"protocol-paths {paths} ({expired} expired)", flush=True)
    recorder = _RunRecorder()
    code = pytest.main(ACCEPTANCE, plugins=[recorder])
    print(f"acceptance {recorder.hash.hexdigest()} ({recorder.runs} runs, "
          f"{recorder.solves} solver calls)", flush=True)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
