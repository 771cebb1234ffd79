"""LP work of the benchmark workloads' first instances, by kind of program.

    python3 tools/lpkinds.py

Run it from the root of a checkout; the package is imported from the
checkout's ``src/`` and the workloads from ``perfbench/``, which it only
reads. For each workload in ``perfbench/workloads.WORKLOADS`` it runs
the first 60 instances (sweep seeds 1000-1059) through ``build_instance``
and ``simulate`` with ``ScipyHighsBackend.solve`` wrapped, and prints,
per kind of program and option set, the programs solved, their simplex
iterations, the milliseconds spent in the backend's ``solve`` and, of
those, the milliseconds inside HiGHS's ``run``: the rest is the Python
side of a solve, building the arrays and loading the model and its start.
It times ``run`` through a copy of the HiGHS bindings whose ``_Highs``
subclass times each call before returning, swapped in for
``lp._highs`` and restored on exit. A program's kind is read from its
shape:

- ``first``: no held row and no surplus lower bound (the max-total
  program, a solo rate, a face plan's ``total`` stage);
- ``need-bounded``: no held row, with surplus lower bounds (the first
  stage of a deadline program whose face plan misses a need);
- ``later``: one or more held rows (every stage after the first).

The shape that sets the kind also sets the costs: a need-bounded or
later program adds ``mred.TIE`` (see ``mred.MredModel.solve``). A
program's option set is read from its balance rows and held rows
(``lp._options``): ``banded`` when every entry has a magnitude in
``lp._BAND``, so HiGHS runs it unscaled with Dantzig pricing, else
``base``. Each line also says how many of its programs had a start
basis. Milliseconds are host time and vary from run to run; programs and
iterations do not.

A last line per workload shows the headroom of ``lp.margin``, the most a
solved value may stray past a bound before the backend refuses the
point: over every optimal point, the worst excess past a column bound
and the worst row residual (a held row's excess past its upper bound,
a balance row's distance from ``b_eq``), each as a fraction of the
margin of that bound or right-hand side. Infinite bounds are skipped,
and a value inside its bound counts as 0.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from entsched import lp  # noqa: E402

SWEEP_SEEDS = range(1000, 1060)
KINDS = ("first", "need-bounded", "later")
OPTION_SETS = {lp._BANDED_OPTIONS: "banded", lp._OPTIONS: "base"}


def kind(ub_rows, bounds) -> str:
    """The kind of a program, from its held rows and its column lower bounds."""
    if len(ub_rows):
        return "later"
    return "need-bounded" if (bounds[:, 0] > 0).any() else "first"


def _margins(excess, bound) -> float:
    """The largest of `excess`, each in margins of its `bound`, over the
    finite bounds; 0 when none lies outside."""
    keep = np.isfinite(bound)
    return float(np.max(excess[keep] / lp.margin(bound[keep]), initial=0.0))


def _rows(A: lp.CscMatrix, x) -> np.ndarray:
    """``A @ x``, from the column-wise arrays HiGHS is passed."""
    return np.bincount(A.indices, weights=A.data * np.repeat(x, np.diff(A.indptr)),
                       minlength=A.shape[0])


def headroom(x, A_eq, b_eq, ub_rows, bounds) -> tuple[float, float]:
    """The worst bound excess and the worst row residual of the point `x`,
    each as a fraction of `lp.margin` of its bound."""
    lb, ub = bounds.T
    columns = max(_margins(lb - x, lb), _margins(x - ub, ub))
    held = np.array([sum(w * x[j] for j, w in coeffs.items()) for coeffs, _ in ub_rows])
    b_ub = np.array([bound for _, bound in ub_rows])
    rows = max(_margins(held - b_ub, b_ub), _margins(np.abs(_rows(A_eq, x) - b_eq), b_eq))
    return columns, rows


def main() -> int:
    real = lp.ScipyHighsBackend.solve
    tally: dict[tuple[str, str], list] = {}
    worst = [0.0, 0.0]
    in_run = [0.0]
    core = lp._highs

    class Highs(core._Highs):
        def run(self):
            t0 = time.perf_counter()
            try:
                return super().run()
            finally:
                in_run[0] += (time.perf_counter() - t0) * 1000.0

    def timed(self, c, *, A_eq, b_eq, ub_rows, bounds, start=None):
        t0, run0 = time.perf_counter(), in_run[0]
        res = real(self, c, A_eq=A_eq, b_eq=b_eq, ub_rows=ub_rows, bounds=bounds, start=start)
        ms = (time.perf_counter() - t0) * 1000.0
        if res.x is not None:
            worst[:] = map(max, worst, headroom(res.x, A_eq, b_eq, ub_rows, bounds))
        held = np.array([w for coeffs, _ in ub_rows for w in coeffs.values()], dtype=float)
        options = OPTION_SETS[lp._options(A_eq, held)]
        row = tally.setdefault((kind(ub_rows, bounds), options), [0, 0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += start is not None
        row[2] += res.iterations
        row[3] += ms
        row[4] += in_run[0] - run0
        return res

    lp.ScipyHighsBackend.solve = timed
    lp._highs = types.SimpleNamespace(**{**vars(core), "_Highs": Highs})
    try:
        for name, workload in workloads.WORKLOADS.items():
            tally.clear()
            worst[:] = 0.0, 0.0
            for seed in SWEEP_SEEDS:
                workloads.simulate(workload, workloads.build_instance(workload, seed))
            for k in KINDS:
                for options in OPTION_SETS.values():
                    programs, started, iterations, ms, run = tally.get(
                        (k, options), [0, 0, 0, 0.0, 0.0])
                    print(f"{name:<18} {k:<13} {options:<6} {programs:4d} programs "
                          f"({started:3d} with a start) {iterations:7d} iterations "
                          f"{ms:9.1f} ms ({run:8.1f} in run)", flush=True)
            print(f"{name:<18} margin used: bounds {worst[0]:.2e}, rows {worst[1]:.2e}",
                  flush=True)
    finally:
        lp.ScipyHighsBackend.solve = real
        lp._highs = core
    return 0


if __name__ == "__main__":
    sys.exit(main())
