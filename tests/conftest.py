"""Shared instance builders for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from entsched import lp
from entsched.protocol import ProtocolConfig, _pair_off
from entsched.topology import Network, build_manual


def star_net() -> Network:
    """Four-node star: hub 2 joins 0, 1, 3; cap 2, p=q=1; SD 0:1 and 0:3."""
    return build_manual(
        nodes=[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        links=[(0, 2, 2, 1.0), (1, 2, 2, 1.0), (3, 2, 2, 1.0)],
        sd_pairs=[(0, 1), (0, 3)],
    )


def two_hop_line(c1=1, p1=1.0, c2=1, p2=1.0, q=1.0) -> Network:
    """Path 0-1-2 with SD pair 0:2 and swap node 1."""
    return build_manual(
        nodes=[(0, 1.0), (1, q), (2, 1.0)],
        links=[(0, 1, c1, p1), (1, 2, c2, p2)],
        sd_pairs=[(0, 2)],
    )


def three_hop_line(c=1, p=0.9, q=0.9) -> Network:
    """Path 0-1-2-3 with SD pair 0:3."""
    return build_manual(
        nodes=[(0, q), (1, q), (2, q), (3, q)],
        links=[(0, 1, c, p), (1, 2, c, p), (2, 3, c, p)],
        sd_pairs=[(0, 3)],
    )


def same_state(a, b) -> bool:
    """Whether two bit-generator states are equal, comparing the numpy
    arrays a Philox state holds by value."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    return a == b


def numpy_allocate(count, probs, rng):
    """Stratified rounding of `count` units over `probs` in numpy, the
    reference `protocol.switch_batch`'s splits must match, draws included:
    each bucket gets the floor of its share, and the leftover units are
    placed by systematic sampling over the fractional remainders."""
    shares = [count * p for p in probs]
    counts = [int(np.floor(s + 1e-9)) for s in shares]
    leftover = count - sum(counts)
    if leftover <= 0:
        return counts
    rems = np.array([max(0.0, s - b) for s, b in zip(shares, counts)])
    rem_sum = float(rems.sum())
    if rem_sum <= 0.0:
        counts[int(np.argmax(probs))] += leftover
        return counts
    points = (rng.random() + np.arange(leftover)) * (rem_sum / leftover)
    idx = np.searchsorted(np.cumsum(rems), points, side="right")
    for i in np.minimum(idx, len(probs) - 1):
        counts[int(i)] += 1
    return counts


def reference_switch_batch(state, route, counts, count, rng):
    """`protocol.switch_batch` as it was before the phases forwarded
    one-target batches themselves, with each split made by
    `numpy_allocate`: the reference the phases' forwarding must match, in
    counts and draws."""
    targets, split = route
    shares = [count] if split is None else numpy_allocate(count, split.probs, rng)
    for i, n in zip(targets, shares):
        state.total[i] += n
        counts[i] += n


def reference_generate(table, state, birth, rng):
    """`protocol.phase_generate` before its loop was tightened: every draw
    through `rng`, every batch through `reference_switch_batch`."""
    counts = state.cohort(birth)
    generated = 0
    for base, frac, p, route in table.links:
        attempts = base + (1 if frac > 0.0 and rng.random() < frac else 0)
        made = int(rng.binomial(attempts, p)) if attempts else 0
        if made:
            generated += made
            reference_switch_batch(state, route, counts, made, rng)
    return generated


def reference_swap(table, state, rng, config=ProtocolConfig()):
    """`protocol.phase_swap` before its loop was tightened: the one-cohort
    pass as one piece, every product through `reference_switch_batch`."""
    total, cohorts = state.total, state.cohorts
    attempts = successes = 0
    for _ in range(config.cascade_depth):
        products = []
        for q, left, right, route in table.swaps:
            w = min(total[left], total[right])
            if not w:
                continue
            total[left] -= w
            total[right] -= w
            attempts += w
            if len(cohorts) == 1:
                counts = cohorts[0][1]
                counts[left] -= w
                counts[right] -= w
                pieces = ((counts, w),)
            else:
                pieces = _pair_off(cohorts, left, right, w)
            for counts, n in pieces:
                won = int(rng.binomial(n, q))
                if won:
                    successes += won
                    products.append((route, counts, won))
        if not products:
            break
        for route, counts, won in products:
            reference_switch_batch(state, route, counts, won, rng)
    return attempts, successes


@pytest.fixture
def star():
    return star_net()


@contextmanager
def _installed(backend):
    """Install `backend` as the LP backend for the block and yield it."""
    real = lp.get_backend()
    lp.set_backend(backend)
    try:
        yield backend
    finally:
        lp.set_backend(real)


class _FailingBackend:
    """The real solver for the first `after` calls, then `status` on every call."""

    def __init__(self, real, status: str, after: int):
        self.real, self.status, self.after = real, status, after
        self.calls = 0

    def solve(self, c, **kwargs) -> lp.LpResult:
        self.calls += 1
        if self.calls > self.after:
            return lp.LpResult(status=self.status, x=None, objective=None)
        return self.real.solve(c, **kwargs)


def failing_backend(status: str, after: int = 0):
    """Install `_FailingBackend` as the LP backend for the block."""
    return _installed(_FailingBackend(lp.get_backend(), status, after))


class _Recording:
    """The real solver, keeping each call's costs and keywords in order."""

    def __init__(self, real):
        self.real = real
        self.calls = []

    def solve(self, c, **kwargs) -> lp.LpResult:
        self.calls.append((c, kwargs))
        return self.real.solve(c, **kwargs)


def recording_backend():
    """Install `_Recording` as the LP backend for the block."""
    return _installed(_Recording(lp.get_backend()))


# linprog's integer statuses as the LP backend reads them; it names any other
# by HiGHS's model status
LINPROG_STATUS = {0: lp.LpStatus.OPTIMAL, 2: lp.LpStatus.INFEASIBLE, 3: lp.LpStatus.UNBOUNDED}


def _held_rows(ub_rows, n: int):
    """The held rows as `linprog`'s dense ``A_ub`` of `n` columns and ``b_ub``."""
    A_ub = np.zeros((len(ub_rows), n))
    for i, (coeffs, _) in enumerate(ub_rows):
        A_ub[i, list(coeffs)] = list(coeffs.values())
    return A_ub, np.array([ub for _, ub in ub_rows], dtype=float)


class _AgainstLinprog:
    """The real solver, with every solve repeated by `linprog`, the reference
    it must match; the balance rows reach `linprog` as a scipy sparse array
    and the held rows as its ``A_ub``. The package runs the primal simplex
    without presolve, which `linprog` does not offer, a solve with a start
    begins from a basis `linprog` is not given, and a program with held
    rows or surplus lower bounds adds the model's positive tie-break costs
    to the stage's own, which are negative. So `linprog` solves each
    program with the stage's own costs, `np.minimum(c, 0.0)`, at the
    package's feasibility tolerance: the statuses must agree, the stage's
    value at the package's point must be within 1e-9 relative of
    `linprog`'s optimum, and that point must pass `lp.check_point`.
    `warm` counts the optimal solves that had a start."""

    def __init__(self, real):
        self.real = real
        self.warm = 0

    def solve(self, c, *, A_eq, b_eq, ub_rows, bounds, start=None) -> lp.LpResult:
        res = self.real.solve(c, A_eq=A_eq, b_eq=b_eq, ub_rows=ub_rows, bounds=bounds,
                              start=start)
        stage = np.minimum(c, 0.0)
        A_eq = sparse.csc_array((A_eq.data, A_eq.indices, A_eq.indptr), shape=A_eq.shape)
        A_ub, b_ub = _held_rows(ub_rows, c.size)
        ref = linprog(stage, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                      method="highs", options={"primal_feasibility_tolerance": lp.FEASIBILITY_TOL})
        assert res.status == LINPROG_STATUS.get(ref.status, ref.message)
        if ref.x is None:
            assert res.x is None and res.objective is None
            return res
        self.warm += start is not None
        assert abs(stage @ res.x - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
        lp.check_point(res.x, res.objective, bounds, b_ub, b_ub - A_ub @ res.x, b_eq,
                       b_eq - A_eq @ res.x)
        return res


def against_linprog():
    """Install `_AgainstLinprog` as the LP backend for the block."""
    return _installed(_AgainstLinprog(lp.get_backend()))


class _AgainstPinnedFloor:
    """The real solver, with every program whose last column, the model's
    fair-share floor, has no cost solved again with that column pinned at
    zero, as the model once passed it: the free column must change
    nothing, bit for bit."""

    def __init__(self, real):
        self.real = real
        self.pinned = 0

    def solve(self, c, bounds, **kwargs) -> lp.LpResult:
        res = self.real.solve(c, bounds=bounds, **kwargs)
        if c[-1] == 0.0:
            self.pinned += 1
            held = bounds.copy()
            held[-1, 1] = 0.0
            ref = self.real.solve(c, bounds=held, **kwargs)
            assert res.status == ref.status
            assert res.objective == ref.objective
            assert (res.x is None and ref.x is None) or np.array_equal(res.x, ref.x)
        return res


def against_pinned_floor():
    """Install `_AgainstPinnedFloor` as the LP backend for the block."""
    return _installed(_AgainstPinnedFloor(lp.get_backend()))
