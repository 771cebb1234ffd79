"""Rate-balance linear programs for buffered entanglement distribution.

The model assigns every unordered node pair an expected per-slot input
rate (ebits made available) and output rate (ebits consumed by swaps):

* a link pair gains ``capacity * p * g`` from generation, where
  ``g in [0, 1]`` is the planned fraction of link capacity to use;
* pair m:n gains ``q_k * w`` from swapping at node k, where ``w`` is the
  planned rate of that swap; each attempt consumes one m:k and one k:n
  ebit, so ``w`` is also the flow staged on each of the two lanes;
* pair m:n loses whatever its own ebits feed into other swaps.

Pairs outside the source-destination set must balance exactly; SD pairs
may run a surplus, and that surplus is their end-to-end rate ``eta``.
The surplus variables are materialized as one LP column per pair, pinned
to zero for non-SD pairs, which lets a single factorized model serve
whole-set, prioritized, and single-pair solves by swapping bounds. One
more column, the fair-share floor, is pinned at zero unless an objective
maximizes it. The equality rows are the per-pair balance rows and
nothing else.

Every multi-objective plan is a lexicographic maximization written as a
list of stages, each an objective plus the rows it adds; `_lexmax` runs
a stage list, holding each stage at its optimum before the next. A model
runs each distinct program at most once: `MredModel.solve` keeps every
optimal result by program, so a repeated plan, probe or solo rate costs
no LP. A deadline probe whose rows the max-total point already meets
takes that point's optimum as its first stage without a solve.

Swap columns scale as |V|^3 / 2 with node count: every (produced pair,
swap node) combination gets one, links or not, because buffered ebits
between non-adjacent nodes are still usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from . import lp
from .lp import LpStatus, SolverError
from .topology import Network, NodePair, ValidationError, canonical_pair

# post-solve cleanup: clamp negative dust within HiGHS's primal feasibility
# tolerance (1e-7) to zero, since a negative rate is a negative switch share
NEG_CLAMP = 1e-7
DROP_TOL = 1e-12

# residual tolerance for solution validation
FEAS_TOL = 1e-6


def _lex_eps(v: float) -> float:
    return 1e-7 * max(1.0, abs(v))


def _clean(v: float) -> float:
    if -NEG_CLAMP <= v < 0.0:
        return 0.0
    if abs(v) < DROP_TOL:
        return 0.0
    return v


SwapId = tuple[NodePair, int]
LaneKey = tuple[NodePair, NodePair]


def lane_keys(produced: NodePair, k: int) -> tuple[LaneKey, LaneKey]:
    """The (consumed pair, produced pair) lanes of the swap at `k` toward
    `produced`: the left lane holds produced.lo:k, the right k:produced.hi."""
    return (canonical_pair(produced.lo, k), produced), (canonical_pair(k, produced.hi), produced)


@dataclass(frozen=True)
class RateSolution:
    """One feasible rate plan: swap rates, link usage, SD surpluses.

    swaps maps (produced pair, swap node) to the swap's planned rate,
    which is also the expected number of ebits per slot staged on each of
    its two lanes (see `lane_keys`). Only nonzero entries are stored.
    """

    swaps: dict[SwapId, float]
    g: dict[NodePair, float]
    eta: dict[NodePair, float]
    objective_log: tuple[tuple[str, float], ...] = ()


def zero_solution(objective_log: Iterable[tuple[str, float]] = ()) -> RateSolution:
    return RateSolution(swaps={}, g={}, eta={}, objective_log=tuple(objective_log))


def input_rate(net: Network, pair: NodePair, sol: RateSolution) -> float:
    """Expected ebits per slot made available between `pair`."""
    net.require_pair(pair)
    total = 0.0
    link = net.links.get(pair)
    if link is not None:
        total += link.capacity * link.p * sol.g.get(pair, 0.0)
    for (produced, k), w in sol.swaps.items():
        if produced == pair:
            total += net.q[k] * w
    return total


def output_rate(pair: NodePair, sol: RateSolution) -> float:
    """Expected ebits per slot of `pair` consumed by swaps."""
    return sum(w for swap, w in sol.swaps.items() for lane, _ in lane_keys(*swap) if lane == pair)


class MredModel:
    """Sparse constraint matrices for one network, reusable across solves.

    Column layout: one swap column per entry of `swap_ids`, each a
    (produced pair, swap node) and the key of `RateSolution.swaps`, then
    link usage, then one surplus column per node pair, then the floor
    column `floor_col`. A swap column's value is the swap's rate, which is
    also the staged flow of each of its two lanes: it adds ``q_k`` to the
    produced pair's balance row and takes 1 from each lane pair's row.
    The floor column appears in no balance row; rows that bound it by
    surpluses make maximizing it a maximin. Equality rows: one balance
    row per pair. `solves` counts the LP solves run on this model.
    """

    def __init__(self, net: Network):
        self.net = net
        self.solves = 0
        self._optima: dict[tuple, lp.LpResult] = {}
        nodes = net.nodes
        pairs = net.all_pairs()
        pidx = {pr: i for i, pr in enumerate(pairs)}

        swap_ids: list[SwapId] = []
        swap_rows: list[tuple[int, int, int]] = []
        swap_q: list[float] = []
        for produced in pairs:
            for k in nodes:
                if k == produced.lo or k == produced.hi:
                    continue
                (left, _), (right, _) = lane_keys(produced, k)
                swap_ids.append((produced, k))
                swap_rows.append((pidx[produced], pidx[left], pidx[right]))
                swap_q.append(net.q[k])

        nf = len(swap_ids)
        ng = len(net.sorted_links)
        npair = len(pairs)
        self.swap_ids = swap_ids
        self.g_col = {lk: nf + j for j, lk in enumerate(net.sorted_links)}
        self.eta_col = {pr: nf + ng + j for j, pr in enumerate(pairs)}
        self.floor_col = nf + ng + npair
        self.ncols = self.floor_col + 1
        self.n_f_vars = nf
        self.n_g_vars = ng
        self.n_balance_rows = npair

        # balance rows: input - output - surplus = 0
        sr = np.asarray(swap_rows, dtype=np.int64).reshape(-1, 3)
        fcols = np.arange(nf, dtype=np.int64)
        link_rows = np.array([pidx[lk] for lk in net.sorted_links], dtype=np.int64)
        link_vals = np.array([net.links[lk].capacity * net.links[lk].p for lk in net.sorted_links])
        rows = [sr[:, 0], sr[:, 1], sr[:, 2], link_rows, np.arange(npair, dtype=np.int64)]
        cols = [fcols, fcols, fcols, nf + np.arange(ng, dtype=np.int64),
                nf + ng + np.arange(npair, dtype=np.int64)]
        vals = [np.asarray(swap_q), -np.ones(nf), -np.ones(nf), link_vals, -np.ones(npair)]
        self.A_eq = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(npair, self.ncols),
        ).tocsr()
        self.b_eq = np.zeros(npair)

        bounds = np.zeros((self.ncols, 2))
        bounds[:nf, 1] = np.inf
        bounds[nf:nf + ng, 1] = 1.0
        # surplus and floor columns stay pinned at zero unless freed per solve
        self._base_bounds = bounds

    def _assemble_ub(self, extra_ub):
        if not extra_ub:
            return None, None
        rows, cols, vals, rhs = [], [], [], []
        for r, (coeffs, ub) in enumerate(extra_ub):
            for col, w in coeffs.items():
                rows.append(r)
                cols.append(col)
                vals.append(w)
            rhs.append(ub)
        A = sparse.coo_matrix((vals, (rows, cols)), shape=(len(extra_ub), self.ncols)).tocsr()
        return A, np.asarray(rhs)

    def solve(
        self,
        objective: dict[int, float],
        extra_ub: Sequence[tuple[dict[int, float], float]] = (),
        eta_free: Iterable[NodePair] | None = None,
    ) -> lp.LpResult:
        """Maximize a linear objective over the balance polytope.

        `eta_free` selects which pairs may run a surplus (defaults to the
        network's SD set). The floor column is freed only when
        `objective` uses it. An optimal result is kept, with a read-only
        `x`, and returned for the same program without a solve, since the
        solver returns the same optimum for the same input. The key keeps
        the rows in order, as row order reaches the solver.
        """
        free = tuple(sorted(eta_free)) if eta_free is not None else self.net.sorted_sd
        key = (tuple(sorted(objective.items())), free,
               tuple((tuple(sorted(coeffs.items())), ub) for coeffs, ub in extra_ub))
        kept = self._optima.get(key)
        if kept is not None:
            return kept
        bounds = self._base_bounds.copy()
        for pr in free:
            bounds[self.eta_col[pr], 1] = np.inf
        if self.floor_col in objective:
            bounds[self.floor_col, 1] = np.inf

        c = np.zeros(self.ncols)
        for col, w in objective.items():
            c[col] = -w
        A_ub, b_ub = self._assemble_ub(extra_ub)
        self.solves += 1
        res = lp.solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=self.A_eq, b_eq=self.b_eq, bounds=bounds)
        if res.objective is not None:
            res = lp.LpResult(status=res.status, x=res.x, objective=-res.objective)
        if res.status == LpStatus.OPTIMAL:
            res.x.flags.writeable = False
            self._optima[key] = res
        return res

    def total_objective(self) -> dict[int, float]:
        """The sum of the SD surpluses."""
        return {self.eta_col[pr]: 1.0 for pr in self.net.sorted_sd}

    def max_total_optimum(self) -> tuple[float, dict[NodePair, float]]:
        """The unconstrained `total` stage's optimum V and its SD surpluses."""
        res = self.solve(self.total_objective())
        if res.status != LpStatus.OPTIMAL:
            raise SolverError(f"total stage: solver returned {res.status}")
        return res.objective, {pr: float(res.x[self.eta_col[pr]]) for pr in self.net.sorted_sd}

    def extract(self, x: np.ndarray, objective_log: Iterable[tuple[str, float]]) -> RateSolution:
        fv = x[:self.n_f_vars]
        swaps = {
            self.swap_ids[j]: float(fv[j])
            for j in np.flatnonzero((fv > DROP_TOL) | (fv < -NEG_CLAMP))
        }
        g = {}
        for lk, col in self.g_col.items():
            v = _clean(float(x[col]))
            if 1.0 < v <= 1.0 + NEG_CLAMP:
                v = 1.0
            if v != 0.0:
                g[lk] = v
        eta = {}
        for pr in self.net.sorted_sd:
            v = _clean(float(x[self.eta_col[pr]]))
            if v != 0.0:
                eta[pr] = v
        return RateSolution(swaps=swaps, g=g, eta=eta, objective_log=tuple(objective_log))


def build_mred(net: Network) -> MredModel:
    """Construct the reusable LP model for `net`."""
    return MredModel(net)


def _model_for(net: Network, model: MredModel | None) -> MredModel:
    if model is not None:
        if model.net is not net:
            raise ValidationError("model was built for a different network object")
        return model
    return MredModel(net)


def _lexmax(
    m: MredModel, stages: Iterable[tuple[str, dict, list, float | None]]
) -> RateSolution | None:
    """Maximize each stage's objective in turn, holding earlier stages.

    A stage is (label, objective, rows, optimum): its rows join the
    program, then its objective is maximized and held at its optimum less
    `_lex_eps` for the stages after it. A stage whose optimum is given
    (a covered deadline probe's `total`) runs no solve and is held at
    that value; the last stage is always solved. The plan is the last
    stage's solution, and its objective log lists each stage's label and
    optimum. Returns None when the first
    stage's own rows make the program infeasible; any other outcome short
    of optimal raises `SolverError`.
    """
    held: list[tuple[dict[int, float], float]] = []
    log: list[tuple[str, float]] = []
    for label, objective, rows, v in stages:
        held.extend(rows)
        if v is None:
            res = m.solve(objective, extra_ub=held)
            if res.status == LpStatus.INFEASIBLE and not log and rows:
                return None
            if res.status != LpStatus.OPTIMAL:
                raise SolverError(f"{label} stage: solver returned {res.status}")
            v = res.objective
        log.append((label, v))
        held.append(({col: -w for col, w in objective.items()}, -(v - _lex_eps(v))))
    return m.extract(res.x, log)


def solve_max_total(net: Network, model: MredModel | None = None) -> RateSolution:
    """Maximize total SD surplus, then even out the per-pair shares.

    The second stage holds the total and maximizes the floor column
    under ``floor <= eta`` for every SD pair, so ties between SD pairs
    resolve to the fair split instead of an arbitrary solver vertex.
    """
    if not net.sd_pairs:
        return zero_solution([("total", 0.0)])
    m = _model_for(net, model)
    floor_rows = [({m.floor_col: 1.0, m.eta_col[pr]: -1.0}, 0.0) for pr in net.sorted_sd]
    return _lexmax(m, [
        ("total", m.total_objective(), [], None),
        ("min_share", {m.floor_col: 1.0}, floor_rows, None),
    ])


def solve_single_pair_edr(net: Network, sd: NodePair, model: MredModel | None = None) -> float:
    """Best end-to-end rate for `sd` when it is the only pair served."""
    sd = canonical_pair(sd[0], sd[1])
    net.require_pair(sd)
    m = _model_for(net, model)
    res = m.solve({m.eta_col[sd]: 1.0}, eta_free=(sd,))
    if res.status != LpStatus.OPTIMAL:
        raise SolverError(f"single-pair rate for {sd}: solver returned {res.status}")
    return max(0.0, res.objective)


def solve_lexicographic(
    net: Network,
    priority: Sequence[NodePair],
    model: MredModel | None = None,
) -> RateSolution:
    """Maximize SD surpluses one at a time in priority order.

    Each stage maximizes one pair's surplus with all earlier stages held
    at their achieved values (within a relative slack). A final stage
    maximizes the total surplus over the whole SD set so leftover
    capacity is not wasted.
    """
    prio = [canonical_pair(p[0], p[1]) for p in priority]
    if len(set(prio)) != len(prio):
        raise ValidationError("priority list contains duplicate pairs")
    for pr in prio:
        if pr not in net.sd_pairs:
            raise ValidationError(f"priority pair {pr} is not an SD pair")
    if not prio:
        return solve_max_total(net, model)

    m = _model_for(net, model)
    stages = [(f"eta[{pr}]", {m.eta_col[pr]: 1.0}, [], None) for pr in prio]
    return _lexmax(m, stages + [("total", m.total_objective(), [], None)])


def _prefix_rows(entries) -> dict[NodePair, list[tuple[float, float]]]:
    """Per SD pair, its deadline-prefix rows as (cumulative demand, window).

    A pair's entries are sorted by window (stably), and each row sums the
    demands up to and including its entry.
    """
    groups: dict[NodePair, list[tuple[float, float]]] = {}
    for sd, theta, delta in entries:
        groups.setdefault(sd, []).append((theta, delta))
    rows = {}
    for sd in sorted(groups):
        cum = 0.0
        rows[sd] = []
        for theta, delta in sorted(groups[sd], key=lambda td: td[1]):
            cum += theta
            rows[sd].append((cum, delta))
    return rows


def deadline_needs(entries: Iterable[tuple[NodePair, float, float]]) -> dict[NodePair, float]:
    """Per SD pair, the least surplus that meets all its deadline-prefix
    rows: the greatest cumulative demand over window among them.

    `entries` are canonical (sd pair, remaining demand, remaining slots)
    triples, as `build_and_check_mred_dc` takes them.
    """
    return {sd: max(cum / delta for cum, delta in rows)
            for sd, rows in _prefix_rows(entries).items()}


def deadline_covered(m: MredModel, entries: Iterable[tuple[NodePair, float, float]]) -> bool:
    """True when the model's max-total point meets every pair's deadline
    need (see `deadline_needs`).

    Then that point is feasible under the deadline rows, so the
    constrained max-total optimum is the unconstrained one, V.
    """
    eta = m.max_total_optimum()[1]
    return all(eta[sd] >= need for sd, need in deadline_needs(entries).items())


def build_and_check_mred_dc(
    net: Network,
    prioritized: Sequence[tuple[NodePair, float, float]],
    model: MredModel | None = None,
) -> RateSolution | None:
    """Max-total solve under per-pair deadline prefix constraints.

    `prioritized` holds (sd pair, remaining demand, remaining slots)
    entries. Per SD pair, entries sorted by remaining slots must each be
    coverable by that pair's surplus within their window, cumulatively:
    ``eta * slots_l >= sum of the l tightest demands``. Returns None when
    the constrained program is infeasible; an empty list degenerates to
    the plain fair max-total solve.

    A feasible program is solved in two stages: the constrained max-total
    optimum, then, holding that total, the most rate for the prioritized
    pairs. The plan's objective log carries both values. When the
    model's max-total point meets every row (`deadline_covered`), the
    first stage's optimum is that point's V and only the second stage
    runs.
    """
    entries = []
    for sd, theta, delta in prioritized:
        sd = canonical_pair(sd[0], sd[1])
        if sd not in net.sd_pairs:
            raise ValidationError(f"prioritized pair {sd} is not an SD pair")
        if delta < 1:
            raise ValidationError(f"remaining slots {delta} for {sd} must be >= 1")
        if theta < 0:
            raise ValidationError(f"remaining demand {theta} for {sd} must be >= 0")
        entries.append((sd, float(theta), float(delta)))
    if not entries:
        return solve_max_total(net, model)

    m = _model_for(net, model)
    rows = [({m.eta_col[sd]: -delta}, -cum)
            for sd, prefix in _prefix_rows(entries).items() for cum, delta in prefix]
    v = m.max_total_optimum()[0] if deadline_covered(m, entries) else None

    # among max-total optima prefer feeding the prioritized pairs, so the
    # executed plan concentrates on the admitted deadlines
    return _lexmax(m, [
        ("total", m.total_objective(), rows, v),
        ("priority_total", {m.eta_col[sd]: 1.0 for sd, _, _ in entries}, [], None),
    ])


def check_solution(net: Network, sol: RateSolution, tol: float = FEAS_TOL) -> dict:
    """Residual report for a rate plan against the balance constraints."""
    balance = 0.0
    sd_deficit = 0.0
    eta_gap = 0.0
    for pr in net.all_pairs():
        slack = input_rate(net, pr, sol) - output_rate(pr, sol)
        if pr in net.sd_pairs:
            sd_deficit = max(sd_deficit, -slack)
            eta_gap = max(eta_gap, abs(slack - sol.eta.get(pr, 0.0)))
        else:
            balance = max(balance, abs(slack))

    g_range = max((max(-v, v - 1.0, 0.0) for v in sol.g.values()), default=0.0)
    swap_neg = max((max(0.0, -v) for v in sol.swaps.values()), default=0.0)
    eta_neg = max((max(0.0, -v) for v in sol.eta.values()), default=0.0)

    report = {
        "balance": balance,
        "sd_deficit": sd_deficit,
        "eta_gap": eta_gap,
        "g_out_of_range": g_range,
        "swap_negative": swap_neg,
        "eta_negative": eta_neg,
    }
    report["ok"] = all(v <= tol for k, v in report.items() if k != "ok")
    return report
