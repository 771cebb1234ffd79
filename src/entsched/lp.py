"""Linear-programming backend behind a single swappable handle.

Every optimization in the package funnels through ``get_backend().solve``
so the underlying solver can be replaced in one place (tests install
stubs the same way, through ``set_backend``). The default backend calls
the HiGHS bindings that scipy bundles (``scipy.optimize._highspy._core``)
directly: one fresh solver, one array ``passModel``, one ``addRows``
(two around a ``setBasis`` for a program with a start) and one ``run``
per LP.

Each solve builds its program the way HiGHS grows one: ``passModel``
loads the costs, the column bounds and the balance rows (``A_eq``,
column-wise, each row fixed at its ``b_eq``), then ``addRows`` appends
the held rows at the tail, each a (coefficients by column, upper bound)
pair laid out row-wise as it is given. So a program that holds more rows
than another has the other's rows as a prefix, and the other's optimal
basis starts it as HiGHS returned it: the solve loads the rows that
basis has, hands it to ``setBasis`` untouched and appends the rest,
which ``addRows`` gives basic slacks. Bounds and right-hand sides reach
HiGHS as they are: its infinity is ``inf``. The solve skips
``linprog``'s input cleaning, option validation, per-column marginal
loop and post-solve check. Instead `check_point` judges every optimal
point by one rule, `margin`: a point more than ``margin(v)`` past any
column bound or row bound v is a `SolverError`, and `mred` trusts the
rest. Every model status HiGHS reports comes back as a result:
optimal, infeasible and unbounded as `LpStatus` values, any other as a
status that names it, such as ``HiGHS model status kUnknown``, so the
planner that asked, which knows its stage, judges every outcome short
of optimal. Every solve runs without presolve, by the
primal simplex at a 1e-9 primal feasibility tolerance. The matrix picks
one of two option sets: a program whose every matrix entry has a
magnitude in [0.1, 10] (in the rate LP, every q >= 0.1 and every link's
capacity * p in [0.1, 10], since held rows are ±1) also runs unscaled
with Dantzig pricing, which takes about a third fewer iterations there;
any other keeps HiGHS's scaling and pricing, which solve wide-ranged
programs that the unscaled simplex can end "unbounded". A program with
equality right-hand sides of 0, no held rows and no lower bound above
0, such as a plan's first stage, is feasible at x = 0, where HiGHS
starts without a basis, so the simplex runs no phase 1. ``linprog`` has
no primal simplex, so an optimum matches ``linprog``'s at that
tolerance, not bit for bit; one program solved twice, with the same
start or none, gives bitwise-equal results.

The package imports only numpy and, from scipy, its top-level package
and the ``_core`` extension: the extension is loaded from its file
(``scipy/optimize/_highspy/_core*.so``) under its canonical name, so
``scipy.optimize`` (about 330 ms and 23 MB) and ``scipy.sparse`` are
never imported, and a process that imports ``scipy.optimize`` too,
before or after, shares the one module. A fresh ``import entsched.cli``
takes about 0.28 s and 39 MB of peak RSS on a 2-core x86 host. The
file path and the bindings are private to scipy, so ``pyproject.toml``
pins the scipy versions (1.17.x) they were checked against; if the
extension cannot be loaded, or ``sys.modules`` holds None for it, the
first solve raises `SolverError`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

_CORE = "scipy.optimize._highspy._core"


def _load_bindings():
    """scipy's HiGHS extension module, or None when it cannot be loaded:
    the `sys.modules` entry when there is one, else the module loaded
    from its file and entered there under its canonical name."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    finder = importlib.machinery.FileFinder(
        folder, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_CORE)
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError:
        return None
    sys.modules[_CORE] = module
    spec.loader.exec_module(module)
    return module


_highs = _load_bindings()


class SolverError(RuntimeError):
    """The backend failed for numerical or internal reasons."""


class LpStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """A solve's outcome. An optimal result also carries HiGHS's optimal
    basis, the start of a program that extends this one (see
    `ScipyHighsBackend.solve`), and every result its simplex iterations."""

    status: str
    x: np.ndarray | None
    objective: float | None
    basis: object | None = None
    iterations: int = 0


# every solve runs the primal simplex without presolve, so a program
# feasible at x = 0, or at its start basis, runs no phase 1. At 16 nodes,
# with HiGHS's own scaling and pricing, the cold max-total program took
# 9.1 ms against 24.5 with presolve and the dual simplex, on a 2-core x86
# host; either change alone gained nothing. The 1e-9 feasibility
# tolerance is HiGHS's 1e-7 tightened, since at 1e-7 a point can
# overshoot its stage's optimum by more than the slack that the next
# stage's hold row leaves (seen with q = 1). Every other option keeps
# HiGHS's default
FEASIBILITY_TOL = 1e-9
_OPTIONS = (
    ("presolve", "off"),
    ("simplex_strategy", 4),  # primal simplex
    ("primal_feasibility_tolerance", FEASIBILITY_TOL),
    ("highs_debug_level", 0),
    ("output_flag", False),
    ("log_to_console", False),
)
# a program whose every matrix entry has a magnitude in _BAND (in the
# rate LP, every q >= 0.1 and every capacity * p in [0.1, 10]) is also
# solved unscaled, with Dantzig pricing. Over the first 60 instances of
# each benchmark workload that cut simplex iterations 41 305 -> 28 573
# (deadline-replan) and 112 562 -> 75 940 (ordered-openended), and the
# backend's time 1256 -> 696 ms and 3010 -> 1583 ms, on a 2-core x86
# host. On networks with capacities up to 1e9 the same options ended
# many more solves "unbounded", so any other program keeps _OPTIONS
_BAND = (0.1, 10.0)
_BANDED_OPTIONS = _OPTIONS + (
    ("simplex_scale_strategy", 0),  # no scaling
    ("simplex_primal_edge_weight_strategy", 0),  # Dantzig pricing
)


def margin(v):
    """How far a solved value may stray past a bound or right-hand side
    `v`, elementwise: 1e-7 of |v|, at least 1e-7. It is a hundred times
    `FEASIBILITY_TOL`, so a point HiGHS calls feasible is inside it, and
    it is the only such judge: `check_point` refuses a point past it,
    and `mred` holds each stage and compares a need with a solo rate by
    it. For a float `v` it equals ``1e-7 * max(1.0, abs(v))`` bit for
    bit; an infinite `v` gives an infinite margin."""
    return 1e-7 * np.maximum(1.0, np.abs(v))


def _bindings():
    if _highs is None:
        raise SolverError(
            f"scipy-highs: cannot load scipy's HiGHS bindings "
            f"(scipy.optimize._highspy._core) from scipy {scipy.__version__}"
        )
    return _highs


def classify(model_status) -> str:
    """The `LpStatus` of a HiGHS model status, or for any other status one
    that names it, such as ``HiGHS model status kUnknown``: the planner
    that asked for the solve judges every outcome short of optimal."""
    ms = _bindings().HighsModelStatus
    return {
        ms.kOptimal: LpStatus.OPTIMAL,
        ms.kInfeasible: LpStatus.INFEASIBLE,
        ms.kUnbounded: LpStatus.UNBOUNDED,
    }.get(model_status, f"HiGHS model status {model_status.name}")


def check_point(x, objective, bounds, b_ub, ub_slack, b_eq, eq_residual) -> None:
    """Raise `SolverError` unless an optimal point is finite and within
    `margin` of every bound: each column's (lower, upper) row of
    `bounds`, each held row's slack, its upper bound in `b_ub` less its
    value at `x`, at least ``-margin(b_ub)`` and each balance row's
    residual ``b_eq - A_eq @ x`` at most ``margin(b_eq)`` in size. An infinite bound checks nothing."""
    if not (np.isfinite(x).all() and np.isfinite(objective)):
        raise SolverError("scipy-highs: optimal point is not finite")
    lb, ub = bounds.T
    if ((x < lb - margin(lb)) | (x > ub + margin(ub))).any():
        raise SolverError("scipy-highs: optimal point leaves its bounds by more than the margin")
    # written so that a NaN slack or residual fails too
    if not ((ub_slack >= -margin(b_ub)).all() and (np.abs(eq_residual) <= margin(b_eq)).all()):
        raise SolverError("scipy-highs: optimal point violates a row by more than the margin")


@dataclass(frozen=True)
class CscMatrix:
    """A constraint matrix as the column-wise arrays HiGHS is passed:
    column j's entries are ``data[indptr[j]:indptr[j + 1]]``, in rows
    ``indices[...]``, ascending with no row twice. Indices are int32."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)


def _options(A_eq: CscMatrix, held: np.ndarray) -> tuple:
    """The options HiGHS solves a program with, from the entries of its
    balance rows `A_eq` and its held rows' coefficients `held`:
    `_BANDED_OPTIONS` when every one has a magnitude in `_BAND`, else
    `_OPTIONS`."""
    lo, hi = _BAND
    magnitude = np.abs(np.concatenate((A_eq.data, held)))
    return _BANDED_OPTIONS if ((magnitude >= lo) & (magnitude <= hi)).all() else _OPTIONS


class ScipyHighsBackend:
    """Minimize ``c @ x`` subject to ``A_eq @ x == b_eq``, each held row
    ``sum(w * x[j] for j, w in coeffs.items()) <= ub`` of `ub_rows`, and
    ``bounds[:, 0] <= x <= bounds[:, 1]``.

    `c` is a float array of n costs, `A_eq` a `CscMatrix` of n columns,
    `b_eq` a 1-D float array, one entry per row, `ub_rows` a sequence of
    (coefficients by column, upper bound) pairs, empty when no row is
    held, and `bounds` an (n, 2) float array, ±inf for no bound. The
    held rows follow the balance rows, in the order given.

    `start`, when given, is the `LpResult.basis` of an optimal program
    with the same columns whose rows are a prefix of this one's: the
    balance rows and the first k held rows, k its row count less the
    balance rows'. Its bounds may differ. The solve loads those rows,
    hands HiGHS the start untouched and appends the other held rows,
    each with a basic slack. It starts there, which is primal feasible
    when the new rows and bounds hold at the old optimum; otherwise the
    primal simplex first restores feasibility from it. A start HiGHS
    refuses, or one with fewer rows than the balance rows or more than
    the program, raises `SolverError`; there is no cold fallback. So
    does a model HiGHS refuses to load, such as a held row that names a
    column outside [0, n). Any other outcome is the result's status
    (see `classify`).
    """

    name = "scipy-highs"

    def solve(self, c: np.ndarray, *, A_eq: CscMatrix, b_eq: np.ndarray,
              ub_rows: Sequence[tuple[dict[int, float], float]], bounds: np.ndarray,
              start=None) -> LpResult:
        h = _bindings()
        n = c.size
        # HiGHS reads n column starts from the matrix's arrays
        if len(A_eq.indptr) != n + 1:
            raise SolverError(f"scipy-highs: {n} costs for {len(A_eq.indptr) - 1} matrix columns")
        m = b_eq.size
        b_ub = np.array([ub for _, ub in ub_rows], dtype=float)
        ends = np.cumsum([0, *(len(coeffs) for coeffs, _ in ub_rows)]).astype(np.int32)
        columns = np.array([j for coeffs, _ in ub_rows for j in coeffs], dtype=np.int32)
        held = np.array([w for coeffs, _ in ub_rows for w in coeffs.values()], dtype=float)
        # the held rows the start has; setBasis comes before the rest
        k = b_ub.size if start is None else len(start.row_status) - m
        if not 0 <= k <= b_ub.size:
            raise SolverError(f"scipy-highs: a start basis of {m + k} rows for {m + b_ub.size} rows")

        highs = h._Highs()
        for key, value in _options(A_eq, held):
            highs.setOptionValue(key, value)

        def append(i: int, j: int):
            """Append held rows i to j - 1 at the tail, laid out row-wise."""
            lo, hi = ends[i], ends[j]
            return highs.addRows(j - i, np.full(j - i, -np.inf), b_ub[i:j], int(hi - lo),
                                 ends[i:j] - lo, columns[lo:hi], held[lo:hi])

        # the status of each call that loads part of the model; the start
        # goes in once the rows it has are loaded
        loaded = [highs.passModel(
            n, m, A_eq.nnz, int(h.MatrixFormat.kColwise), int(h.ObjSense.kMinimize), 0.0,
            c, *bounds.T, b_eq, b_eq, A_eq.indptr[:-1], A_eq.indices, A_eq.data,
            np.zeros(n, dtype=np.int32),
        ), append(0, k)]
        if start is not None and h.HighsStatus.kError not in loaded:
            if highs.setBasis(start) == h.HighsStatus.kError:
                raise SolverError("scipy-highs: HiGHS refused the start basis")
            # HiGHS extends the basis by a basic slack for each row appended
            loaded.append(append(k, b_ub.size))
        if h.HighsStatus.kError in loaded:
            raise SolverError("scipy-highs: HiGHS refused the model (kModelError)")
        ran = highs.run()
        status = classify(highs.getModelStatus())
        info = highs.getInfo()
        iterations = info.simplex_iteration_count
        if status != LpStatus.OPTIMAL:
            return LpResult(status=status, x=None, objective=None, iterations=iterations)
        if ran == h.HighsStatus.kError:
            raise SolverError("scipy-highs: HiGHS reported an error with an optimal status")
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        objective = info.objective_function_value
        row = np.array(solution.row_value)
        check_point(x, objective, bounds, b_ub, b_ub - row[m:], b_eq, b_eq - row[:m])
        return LpResult(status=status, x=x, objective=float(objective), basis=highs.getBasis(),
                        iterations=iterations)


_backend = ScipyHighsBackend()


def get_backend():
    return _backend


def set_backend(backend) -> None:
    global _backend
    _backend = backend
