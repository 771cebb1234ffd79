"""LP work of the benchmark workloads' first instances, by kind of program.

    python3 tools/lpkinds.py

Run it from the root of a checkout; the package is imported from the
checkout's ``src/`` and the workloads from ``perfbench/``, which it only
reads. For each workload in ``perfbench/workloads.WORKLOADS`` it runs
the first 60 instances (sweep seeds 1000-1059) through ``build_instance``
and ``simulate`` with ``ScipyHighsBackend.solve`` wrapped, and prints,
per kind of program, the programs solved, their simplex iterations and
the milliseconds spent in the backend's ``solve``. A program's kind is
read from its shape:

- ``first``: no held row and no surplus lower bound (the max-total
  program, a solo rate, a face plan's ``total`` stage);
- ``need-bounded``: no held row, with surplus lower bounds (the first
  stage of a deadline program whose face plan misses a need);
- ``later``: one or more held rows (every stage after the first).

The shape that sets the kind also sets the costs: a need-bounded or
later program adds ``mred.TIE`` (see ``mred.MredModel.solve``). Each
line also says how many of the kind's programs had a start basis.
Milliseconds are host time and vary from run to run; programs and
iterations do not.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from entsched import lp  # noqa: E402

SWEEP_SEEDS = range(1000, 1060)
KINDS = ("first", "need-bounded", "later")


def kind(A_ub, bounds) -> str:
    """The kind of a program, from its held rows and its column lower bounds."""
    if A_ub.shape[0]:
        return "later"
    return "need-bounded" if (bounds[:, 0] > 0).any() else "first"


def main() -> int:
    real = lp.ScipyHighsBackend.solve
    tally: dict[str, list] = {}

    def timed(self, c, *, A_ub, bounds, start=None, **kwargs):
        t0 = time.perf_counter()
        res = real(self, c, A_ub=A_ub, bounds=bounds, start=start, **kwargs)
        ms = (time.perf_counter() - t0) * 1000.0
        row = tally.setdefault(kind(A_ub, bounds), [0, 0, 0, 0.0])
        row[0] += 1
        row[1] += start is not None
        row[2] += res.iterations
        row[3] += ms
        return res

    lp.ScipyHighsBackend.solve = timed
    try:
        for name, workload in workloads.WORKLOADS.items():
            tally.clear()
            for seed in SWEEP_SEEDS:
                workloads.simulate(workload, workloads.build_instance(workload, seed))
            for k in KINDS:
                programs, started, iterations, ms = tally.get(k, [0, 0, 0, 0.0])
                print(f"{name:<18} {k:<13} {programs:4d} programs ({started:3d} with a start) "
                      f"{iterations:7d} iterations {ms:9.1f} ms", flush=True)
    finally:
        lp.ScipyHighsBackend.solve = real
    return 0


if __name__ == "__main__":
    sys.exit(main())
