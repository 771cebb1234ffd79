"""Linear-programming backend behind a single swappable handle.

Every optimization in the package funnels through ``solve_lp`` so the
underlying solver can be replaced in one place (tests install stubs the
same way). The default backend is SciPy's HiGHS interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


class SolverError(RuntimeError):
    """The backend failed for numerical or internal reasons."""


class LpStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None


# scipy's integer statuses; 1 (iteration limit) and 4 (numerical) are raised
_STATUS_MAP = {
    0: LpStatus.OPTIMAL,
    2: LpStatus.INFEASIBLE,
    3: LpStatus.UNBOUNDED,
}

class ScipyHighsBackend:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, bounds."""

    name = "scipy-highs"

    def solve(self, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LpResult:
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        status = _STATUS_MAP.get(res.status)
        if status is None:
            raise SolverError(f"{self.name}: {res.message}")
        x = np.asarray(res.x) if res.x is not None else None
        obj = float(res.fun) if res.fun is not None else None
        return LpResult(status=status, x=x, objective=obj)


_backend = ScipyHighsBackend()


def get_backend():
    return _backend


def set_backend(backend) -> None:
    global _backend
    _backend = backend


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LpResult:
    return _backend.solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
