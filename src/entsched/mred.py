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
Each SD pair has one surplus column, always free, so whole-set,
prioritized and single-pair solves differ only in their objectives and
rows. A pair's solo rate maximizes its surplus with the other SD pairs
free too; by free disposal that is the same optimum as serving it alone,
and the same program as the first stage of a plan that ranks it first.
One more column, the fair-share floor, is free like the surpluses; it
is in no balance row and costs nothing outside the stage that maximizes
it, so the solver leaves it at zero there. The equality rows are the
per-pair balance rows and nothing else.

Every multi-objective plan is a lexicographic maximization written as a
list of stages, each an objective plus the rows it adds; `_lexmax` runs
a stage list, holding each stage at its optimum before the next. A
first stage starts at the zero plan, or, with the needs as surplus
bounds, from the max-total basis; each stage after the first starts
from the basis of the stage before it. A program's shape sets its
costs: one with held rows or surplus bounds adds a tie-break against
link generation (`TIE`), so a start changes only where the solver
begins. A model runs each distinct program at most once:
`MredModel.solve` keeps every optimal result by program, so a repeated
plan, probe or solo rate costs no LP. An admission probe, admitted
deadline entries plus one candidate, gets one verdict from
`deadline_verdict`, cheapest check first: the candidate pair's solo
rate once that pair has had an infeasible probe, then the max-total
face (the max-total point that feeds the probe's pairs most, one
program per set of admitted pairs), then the first stage of the
need-bounded solve. The admitted list's plan
is solved once, by `build_and_check_mred_dc`, whose programs the
verdicts have already run.

Swap columns scale as |V|^3 / 2 with node count: every (produced pair,
swap node) combination gets one, links or not, because buffered ebits
between non-adjacent nodes are still usable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import lp
from .lp import LpStatus, SolverError
from .topology import Network, NodePair, ValidationError, _real, canonical_pair, pair_positions
from .workload import MAX_COMMODITY_DEMAND

# post-solve cleanup: after each value is clipped onto its column's bounds,
# any |v| < DROP_TOL reads as zero
DROP_TOL = 1e-12

# the tie-break of a program with held rows or surplus lower bounds: each
# ebit per slot that link generation makes costs TIE, so a swap cycle, which
# only burns spare generation, never survives. Among a stage's optima it
# takes the least generation only while every SD ebit the stage could add
# costs fewer than 1/TIE = 10**6 link ebits: past that the charge outweighs
# the ebit, and the stage leaves the pair unserved
TIE = 1e-6

# residual tolerance for solution validation
FEAS_TOL = 1e-6


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


class MredModel:
    """The rate LP of one network, reusable across solves.

    Column layout: one swap column per (produced pair, swap node), pairs
    in `all_pairs` order and swap nodes ascending within a pair, then
    link usage (`g_col`, in `net.sorted_links` order), then one surplus
    column per SD pair (`eta_col`, in `net.sorted_sd` order), then the
    floor column `floor_col`. Equality rows: one balance row per pair, in
    `all_pairs` order, with a surplus entry only in SD rows; row i is the
    pair of the nodes at positions ``pair_lo[i]`` and ``pair_hi[i]`` of
    ``net.nodes`` (`pair_positions`). They form `A_eq`, built once as the
    `lp.CscMatrix` HiGHS is passed. Swap column j produces row
    ``swap_pair[j]``'s pair at the node at position ``swap_node[j]``, and
    that pair and node are its key in `RateSolution.swaps`; the matrix is
    built from these index arrays, with no per-column Python work. A swap
    column's value is the swap's rate, which is also the staged flow of
    each of its two lanes: it adds ``q_k`` to the produced pair's balance
    row and takes 1 from each lane pair's row. The floor column appears
    in no balance row; rows that bound it by surpluses make maximizing it
    a maximin. Each column's bounds are stated once, in `_base_bounds`:
    [0, 1] for link usage and [0, inf) for every other column; `solve`
    passes them, and `extract` clips its point onto them. `solves`
    counts the LP solves run on this model, and `bound_armed` holds the
    SD pairs whose deadline probe was LP-infeasible (see
    `deadline_verdict`).
    """

    def __init__(self, net: Network):
        self.net = net
        self.solves = 0
        self._optima: dict[tuple, lp.LpResult] = {}
        self.bound_armed: set[NodePair] = set()
        nodes = net.nodes
        n = len(nodes)
        # balance row of a pair by its endpoints' node positions, in either order
        self.pair_lo, self.pair_hi = lo, hi = pair_positions(n)
        npair = len(lo)
        row = np.zeros((n, n), dtype=np.int64)
        row[lo, hi] = row[hi, lo] = np.arange(npair)
        pos = {v: i for i, v in enumerate(nodes)}

        def rows_of(prs: Sequence[NodePair]) -> np.ndarray:
            return row[[pos[pr.lo] for pr in prs], [pos[pr.hi] for pr in prs]]

        # one swap column per (produced pair, swap node): pairs in order,
        # swap nodes ascending, the pair's own endpoints skipped
        sp = np.repeat(np.arange(npair), n)
        k = np.tile(np.arange(n), npair)
        keep = (k != lo[sp]) & (k != hi[sp])
        sp, k = sp[keep], k[keep]
        self.swap_pair = sp
        self.swap_node = k

        nf = len(sp)
        ng = len(net.sorted_links)
        nsd = len(net.sorted_sd)
        self.g_col = {lk: nf + j for j, lk in enumerate(net.sorted_links)}
        self.eta_col = {pr: nf + ng + j for j, pr in enumerate(net.sorted_sd)}
        self.floor_col = nf + ng + nsd
        self.ncols = self.floor_col + 1

        # balance rows: input - output - surplus = 0, built column by column,
        # rows ascending: a swap column's three rows are its produced pair's
        # (q_k) and its two lane pairs' (-1 each), all distinct
        q = np.array([net.q[v] for v in nodes])
        link_vals = np.array([net.links[lk].capacity * net.links[lk].p for lk in net.sorted_links])
        self._tie = np.zeros(self.ncols)
        self._tie[nf:nf + ng] = TIE * link_vals
        swap_rows = np.sort(np.stack((sp, row[lo[sp], k], row[k, hi[sp]]), axis=1), axis=1)
        swap_vals = np.where(swap_rows == sp[:, None], q[k][:, None], -1.0)
        counts = np.concatenate((np.full(nf, 3), np.ones(ng + nsd, dtype=np.int64), [0]))
        self.A_eq = lp.CscMatrix(
            (npair, self.ncols),
            np.concatenate(([0], np.cumsum(counts))).astype(np.int32),
            np.concatenate((swap_rows.ravel(), rows_of(net.sorted_links),
                            rows_of(net.sorted_sd))).astype(np.int32),
            np.concatenate((swap_vals.ravel(), link_vals, -np.ones(nsd))),
        )
        self.b_eq = np.zeros(npair)

        bounds = np.zeros((self.ncols, 2))
        bounds[:nf, 1] = np.inf
        bounds[nf:nf + ng, 1] = 1.0
        bounds[nf + ng:, 1] = np.inf
        self._base_bounds = bounds

    def solve(
        self,
        objective: dict[int, float],
        extra_ub: Sequence[tuple[dict[int, float], float]] = (),
        eta_lower: Mapping[NodePair, float] | None = None,
        start: lp.LpResult | None = None,
    ) -> lp.LpResult:
        """Maximize a linear objective over the balance polytope.

        Every SD surplus is free; `eta_lower` bounds surpluses from below.
        Each held row of `extra_ub`, a (coefficients by column, upper
        bound) pair, goes to the backend as it is, after the balance rows.
        A program with held rows or surplus lower bounds adds `TIE` per
        ebit of link generation to its costs. A result's objective is
        always the objective's value at `x`, without that term. `start`,
        when given, is the optimal result of a program with the same
        columns and a prefix of this one's held rows, and the solve begins
        from its basis, each further row's slack basic, else from the
        zero plan. It changes only where the solver begins.

        An optimal result is kept, with a read-only `x` and HiGHS's basis,
        and returned for the same program without a solve. A program has
        one start (see `_lexmax`), so the solver returns one optimum for
        it. The key keeps the rows in order, as row order reaches the
        solver, and sorts each row's coefficients, whose order HiGHS does
        not keep: it stores the matrix column by column.
        """
        lower = tuple(sorted(eta_lower.items())) if eta_lower else ()
        key = (tuple(sorted(objective.items())),
               tuple((tuple(sorted(coeffs.items())), ub) for coeffs, ub in extra_ub), lower)
        kept = self._optima.get(key)
        if kept is not None:
            return kept
        bounds = self._base_bounds.copy()
        for pr, lo in lower:
            bounds[self.eta_col[pr], 0] = lo

        c = self._tie.copy() if extra_ub or lower else np.zeros(self.ncols)
        for col, w in objective.items():
            c[col] = -w
        self.solves += 1
        res = lp.get_backend().solve(c, A_eq=self.A_eq, b_eq=self.b_eq, ub_rows=extra_ub,
                                     bounds=bounds, start=None if start is None else start.basis)
        if res.status == LpStatus.OPTIMAL:
            res = replace(res, objective=sum(w * float(res.x[col]) for col, w in objective.items()))
            res.x.flags.writeable = False
            self._optima[key] = res
        return res

    def total_objective(self) -> dict[int, float]:
        """The sum of the SD surpluses."""
        return {self.eta_col[pr]: 1.0 for pr in self.net.sorted_sd}

    def extract(self, x: np.ndarray, objective_log: Iterable[tuple[str, float]]) -> RateSolution:
        """The plan at LP point `x`: each value clipped onto its base
        bounds, any |v| < `DROP_TOL` read as zero, and the nonzero entries
        kept. The backend has refused a point more than `lp.margin` past a
        bound, so clipping moves a value by at most that."""
        v = np.clip(x, *self._base_bounds.T)
        v[np.abs(v) < DROP_TOL] = 0.0
        nf, ng = len(self.swap_pair), len(self.g_col)
        nz = np.flatnonzero(v[:nf])
        nodes = self.net.nodes
        sp = self.swap_pair[nz]
        swaps = {
            (NodePair(nodes[a], nodes[b]), nodes[k]): w
            for a, b, k, w in zip(self.pair_lo[sp].tolist(), self.pair_hi[sp].tolist(),
                                  self.swap_node[nz].tolist(), v[nz].tolist())
        }
        g = {lk: w for lk, w in zip(self.g_col, v[nf:nf + ng].tolist()) if w}
        eta = {pr: w for pr, w in zip(self.eta_col, v[nf + ng:self.floor_col].tolist()) if w}
        return RateSolution(swaps=swaps, g=g, eta=eta, objective_log=tuple(objective_log))


def build_mred(net: Network) -> MredModel:
    """Construct the reusable LP model for `net`."""
    return MredModel(net)


def _model_for(net: Network, model: MredModel) -> MredModel:
    """`model`, once checked to be built for `net`: every planner solves on
    the run's model, so its memo and solve count see every LP."""
    if model.net is not net:
        raise ValidationError("model was built for a different network object")
    return model


def _sd_pair(net: Network, pair: tuple[int, int]) -> NodePair:
    """`pair` in canonical order, refused unless it is one of `net`'s SD
    pairs: the one check every planner makes of a pair it is given."""
    sd = canonical_pair(pair[0], pair[1])
    if sd not in net.sd_pairs:
        raise ValidationError(f"pair {sd} is not an SD pair")
    return sd


def _lexmax(
    m: MredModel,
    stages: Iterable[tuple[str, dict, list]],
    eta_lower: Mapping[NodePair, float] | None = None,
) -> RateSolution | None:
    """Maximize each stage's objective in turn, holding earlier stages.

    A stage is (label, objective, rows): its rows join the program, then
    its objective is maximized and held at its optimum less `lp.margin` for
    the stages after it. `eta_lower` bounds surpluses in every stage. The
    first stage starts from the zero plan, or, with `eta_lower`, from the
    model's max-total optimum, which `face_plan` has solved before, so
    the memo answers it; each later one starts from the optimal basis of
    the stage before it, which its hold row and new rows leave primal
    feasible. Every stage but a first one without `eta_lower` carries
    `TIE` (see `MredModel.solve`), so a plan of two or more stages runs
    no swap cycle. The plan is the last stage's
    solution, and its objective log lists each stage's label and optimum,
    without the tie-break. Returns None when those bounds make the first
    stage infeasible; any other outcome short of optimal, whatever model
    status HiGHS reports, raises `SolverError` naming the stage.
    """
    # each solve is passed a list of its own, which later stages do not extend
    held: list[tuple[dict[int, float], float]] = []
    log: list[tuple[str, float]] = []
    res = m.solve(m.total_objective()) if eta_lower else None
    for label, objective, rows in stages:
        held = [*held, *rows]
        res = m.solve(objective, extra_ub=held, eta_lower=eta_lower, start=res)
        if res.status == LpStatus.INFEASIBLE and not log and eta_lower:
            return None
        if res.status != LpStatus.OPTIMAL:
            raise SolverError(f"{label} stage: solver returned {res.status}")
        v = res.objective
        log.append((label, v))
        held = [*held, ({col: -w for col, w in objective.items()}, -(v - lp.margin(v)))]
    return m.extract(res.x, log)


def solve_max_total(net: Network, model: MredModel) -> RateSolution:
    """Maximize total SD surplus, then even out the per-pair shares.

    The second stage holds the total and maximizes the floor column
    under ``floor <= eta`` for every SD pair, so ties between SD pairs
    resolve to the fair split instead of an arbitrary solver vertex.
    """
    if not net.sd_pairs:
        return RateSolution(swaps={}, g={}, eta={}, objective_log=(("total", 0.0),))
    m = _model_for(net, model)
    floor_rows = [({m.floor_col: 1.0, m.eta_col[pr]: -1.0}, 0.0) for pr in net.sorted_sd]
    return _lexmax(m, [
        ("total", m.total_objective(), []),
        ("min_share", {m.floor_col: 1.0}, floor_rows),
    ])


def solve_single_pair_edr(net: Network, sd: NodePair, model: MredModel) -> float:
    """Best end-to-end rate for SD pair `sd` when it is the only pair served:
    by free disposal, its most surplus while every SD surplus is free, the
    first stage of a plan ranking it first, so the model's memo shares it."""
    sd = _sd_pair(net, sd)
    m = _model_for(net, model)
    res = m.solve({m.eta_col[sd]: 1.0})
    if res.status != LpStatus.OPTIMAL:
        raise SolverError(f"single-pair rate for {sd}: solver returned {res.status}")
    return max(0.0, res.objective)


def solve_lexicographic(
    net: Network,
    priority: Sequence[NodePair],
    model: MredModel,
) -> RateSolution:
    """Maximize SD surpluses one at a time in priority order.

    Each stage maximizes one pair's surplus with all earlier stages held
    at their achieved values (within a relative slack). A final stage
    maximizes the total surplus over the whole SD set so leftover
    capacity is not wasted.
    """
    prio = [_sd_pair(net, p) for p in priority]
    if len(set(prio)) != len(prio):
        raise ValidationError("priority list contains duplicate pairs")
    if not prio:
        return solve_max_total(net, model)

    m = _model_for(net, model)
    stages = [(f"eta[{pr}]", {m.eta_col[pr]: 1.0}, []) for pr in prio]
    return _lexmax(m, stages + [("total", m.total_objective(), [])])


def _entry(net: Network, entry: tuple[NodePair, float, float]) -> tuple[NodePair, float, float]:
    """`entry` as a canonical (sd pair, remaining demand, remaining slots)
    triple of floats, refused unless its pair is an SD pair, its window at
    least one slot and its demand within [0, `MAX_COMMODITY_DEMAND`], past
    which its need could reach HiGHS's infinite bound (`_real`)."""
    pair, theta, delta = entry
    sd = _sd_pair(net, pair)
    try:
        return (sd, _real(theta, "remaining demand", 0, MAX_COMMODITY_DEMAND),
                _real(delta, "remaining slots", 1))
    except ValidationError as exc:
        raise ValidationError(f"pair {sd}: {exc}") from None


def deadline_needs(entries: Iterable[tuple[NodePair, float, float]]) -> dict[NodePair, float]:
    """Per SD pair, the least surplus that meets all its deadline-prefix
    rows ``eta * window >= cumulative demand``: the greatest cumulative
    demand over window among them.

    `entries` are canonical (sd pair, remaining demand, remaining slots)
    triples, as `build_and_check_mred_dc` takes them. A pair's entries are
    sorted by window (stably), and each row sums the demands up to and
    including its entry.
    """
    groups: dict[NodePair, list[tuple[float, float]]] = {}
    for sd, theta, delta in entries:
        groups.setdefault(sd, []).append((theta, delta))
    needs = {}
    for sd in sorted(groups):
        cum = need = 0.0
        for theta, delta in sorted(groups[sd], key=lambda td: td[1]):
            cum += theta
            need = max(need, cum / delta)
        needs[sd] = need
    return needs


def _deadline_stages(m: MredModel, needs: Mapping[NodePair, float]) -> list[tuple[str, dict, list]]:
    """The max-total stage, then the stage that feeds the needy pairs most
    at that held total."""
    return [("total", m.total_objective(), []),
            ("priority_total", {m.eta_col[sd]: 1.0 for sd in needs}, [])]


def face_plan(m: MredModel, needs: Mapping[NodePair, float]) -> RateSolution | None:
    """The max-total plan that feeds the pairs of `needs` most, when it
    meets each pair's deadline need (see `deadline_needs`); None otherwise.

    Its `total` stage is the model's max-total solve and its
    `priority_total` program depends only on which pairs have needs, so
    the model's memo answers every later probe on those pairs. A plan
    that meets the needs is feasible for the deadline program at a total
    within `lp.margin` of V, its unconstrained optimum.
    """
    plan = _lexmax(m, _deadline_stages(m, needs))
    return plan if all(plan.eta.get(sd, 0.0) >= need for sd, need in needs.items()) else None


def deadline_verdict(m: MredModel, admitted: Sequence[tuple[NodePair, float, float]],
                     entry: tuple[NodePair, float, float]) -> str:
    """Whether `entry` can join `admitted`, deadline entries already
    feasible together: `solo_rejected`, `covered`, `solved` or `infeasible`.

    Entries are (sd pair, remaining demand, remaining slots) triples,
    each checked as `build_and_check_mred_dc` checks its entries, before
    any LP. Once the entry's pair is in `m.bound_armed`, a need above its
    solo rate by more than `lp.margin`, the margin by which the backend
    judges every solved value, rejects it without a deadline LP; only
    that pair is checked, since the admitted entries fit together.
    Otherwise `face_plan` covers the probe, or the first stage of
    `build_and_check_mred_dc`'s need-bounded solve decides it, and an
    infeasible one arms the pair. That stage is the plan's
    first stage too, one program, so a feasible verdict runs no second
    stage, and the admitted list's plan reuses the verdicts' programs
    through the memo.
    """
    entry = _entry(m.net, entry)
    sd = entry[0]
    needs = deadline_needs([*(_entry(m.net, e) for e in admitted), entry])
    if sd in m.bound_armed:
        solo = solve_single_pair_edr(m.net, sd, m)
        if needs[sd] > solo + lp.margin(solo):
            return "solo_rejected"
    if face_plan(m, needs) is not None:
        return "covered"
    if _lexmax(m, _deadline_stages(m, needs)[:1], eta_lower=needs) is None:
        m.bound_armed.add(sd)
        return "infeasible"
    return "solved"


def build_and_check_mred_dc(
    net: Network,
    prioritized: Sequence[tuple[NodePair, float, float]],
    model: MredModel,
) -> RateSolution | None:
    """Max-total solve under per-pair deadline prefix constraints.

    `prioritized` holds (sd pair, remaining demand, remaining slots)
    entries. Per SD pair, entries sorted by remaining slots must each be
    coverable by that pair's surplus within their window, cumulatively:
    ``eta * slots_l >= sum of the l tightest demands``. Together a pair's
    rows are one lower bound on its surplus, its need (`deadline_needs`).
    Returns None when the constrained program is infeasible; an empty list
    degenerates to the plain fair max-total solve.

    The program is first answered by `face_plan`, which costs at most one
    LP per set of prioritized pairs. When that plan misses a need, the
    program is solved in two stages with the needs as surplus bounds: the
    constrained max-total optimum, started from the basis of the
    unconstrained one, then, holding that total, the most rate for the
    prioritized pairs. The plan's objective log carries both
    values. `deadline_verdict` runs the same programs up to that first
    stage, so a list it found feasible costs here at most one more LP.
    """
    entries = [_entry(net, e) for e in prioritized]
    if not entries:
        return solve_max_total(net, model)

    m = _model_for(net, model)
    needs = deadline_needs(entries)
    plan = face_plan(m, needs)
    if plan is not None:
        return plan
    # among constrained max-total optima prefer feeding the prioritized
    # pairs, so the executed plan concentrates on the admitted deadlines
    return _lexmax(m, _deadline_stages(m, needs), eta_lower=needs)


def check_solution(net: Network, sol: RateSolution) -> dict:
    """Residual report for a rate plan against the balance constraints;
    `ok` when every residual is within `FEAS_TOL`.

    One pass over the plan totals each pair's input and output: a link
    pair makes ``capacity * p * g``, a swap makes ``q_k * w`` of its
    produced pair and uses ``w`` of each of its two lane pairs
    (`lane_keys`). A pair's slack is its input less its output. Only the
    plan and the network are read, not the LP model, so the report checks
    the model too. A plan naming a pair, link or node outside the network
    raises `KeyError`.
    """
    pairs = net.all_pairs()
    made = dict.fromkeys(pairs, 0.0)
    used = dict.fromkeys(pairs, 0.0)
    for lk, g in sol.g.items():
        link = net.links[lk]
        made[lk] += link.capacity * link.p * g
    for (produced, k), w in sol.swaps.items():
        made[produced] += net.q[k] * w
        for lane, _ in lane_keys(produced, k):
            used[lane] += w

    balance = 0.0
    sd_deficit = 0.0
    eta_gap = 0.0
    for pr in pairs:
        slack = made[pr] - used[pr]
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
    report["ok"] = all(v <= FEAS_TOL for k, v in report.items() if k != "ok")
    return report
