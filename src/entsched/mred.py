"""Rate-balance linear programs for buffered entanglement distribution.

The model assigns every unordered node pair an expected per-slot input
rate (ebits made available) and output rate (ebits consumed by swaps):

* a link pair gains ``capacity * p * g`` from generation, where
  ``g in [0, 1]`` is the planned fraction of link capacity to use;
* pair m:n gains ``q_k / 2 * (f[m:k -> m:n] + f[k:n -> m:n])`` from
  swapping at node k, where the two staged flows are constrained equal
  (a swap consumes one ebit from each side);
* pair m:n loses whatever its own ebits feed into other swaps.

Pairs outside the source-destination set must balance exactly; SD pairs
may run a surplus, and that surplus is their end-to-end rate ``eta``.
The surplus variables are materialized as one LP column per pair, pinned
to zero for non-SD pairs, which lets a single factorized model serve
whole-set, prioritized, and single-pair solves by swapping bounds.

Variables scale as |V|^3 with node count: every (consumed, produced)
pair combination sharing exactly one endpoint gets a column, links or
not, because buffered ebits between non-adjacent nodes are still usable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from . import lp
from .lp import LpStatus, SolverError
from .topology import Network, NodePair, ValidationError, canonical_pair

# post-solve cleanup: clamp tiny negative dust to zero, drop near-zeros
NEG_CLAMP = 1e-9
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


def swap_node(consumed: NodePair, produced: NodePair) -> int:
    """The node where `consumed` ebits merge to extend toward `produced`.

    The pairs must share exactly one endpoint; the swap happens at the
    endpoint of `consumed` that `produced` does not contain.
    """
    lo_shared = consumed.lo == produced.lo or consumed.lo == produced.hi
    hi_shared = consumed.hi == produced.lo or consumed.hi == produced.hi
    if lo_shared == hi_shared:
        raise ValidationError(f"pairs {consumed} and {produced} must share exactly one endpoint")
    return consumed.hi if lo_shared else consumed.lo


@dataclass(frozen=True)
class RateSolution:
    """One feasible rate plan: staged flows, link usage, SD surpluses.

    f maps (consumed pair, produced pair) to the expected number of
    `consumed` ebits per slot staged for the swap that yields `produced`.
    Only nonzero entries are stored.
    """

    f: dict[tuple[NodePair, NodePair], float]
    g: dict[NodePair, float]
    eta: dict[NodePair, float]
    objective_log: tuple[tuple[str, float], ...] = ()

    @cached_property
    def inflow(self) -> dict[NodePair, list[tuple[NodePair, float]]]:
        """Per produced pair: (consumed pair, flow) entries, sorted."""
        idx: dict[NodePair, list[tuple[NodePair, float]]] = {}
        for (consumed, produced), v in sorted(self.f.items()):
            idx.setdefault(produced, []).append((consumed, v))
        return idx

    @cached_property
    def outflow(self) -> dict[NodePair, list[tuple[NodePair, float]]]:
        """Per consumed pair: (produced pair, flow) entries, sorted."""
        idx: dict[NodePair, list[tuple[NodePair, float]]] = {}
        for (consumed, produced), v in sorted(self.f.items()):
            idx.setdefault(consumed, []).append((produced, v))
        return idx

    @cached_property
    def outflow_total(self) -> dict[NodePair, float]:
        return {pair: sum(v for _, v in lst) for pair, lst in self.outflow.items()}

    @cached_property
    def swap_triples(self) -> tuple[tuple[NodePair, int, tuple, tuple], ...]:
        """Executable swaps: (produced, node, left key, right key).

        A swap is executable only when both staged lanes carry positive
        planned flow.
        """
        out = []
        for produced, entries in sorted(self.inflow.items()):
            by_node: dict[int, dict[bool, tuple[tuple, float]]] = {}
            for consumed, v in entries:
                k = swap_node(consumed, produced)
                is_left = consumed.lo == produced.lo or consumed.hi == produced.lo
                by_node.setdefault(k, {})[is_left] = ((consumed, produced), v)
            for k in sorted(by_node):
                sides = by_node[k]
                if True in sides and False in sides:
                    (key_l, v_l), (key_r, v_r) = sides[True], sides[False]
                    if v_l > 0 and v_r > 0:
                        out.append((produced, k, key_l, key_r))
        return tuple(out)


def zero_solution(objective_log: Iterable[tuple[str, float]] = ()) -> RateSolution:
    return RateSolution(f={}, g={}, eta={}, objective_log=tuple(objective_log))


def input_rate(net: Network, pair: NodePair, sol: RateSolution) -> float:
    """Expected ebits per slot made available between `pair`."""
    net.require_pair(pair)
    total = 0.0
    link = net.links.get(pair)
    if link is not None:
        total += link.capacity * link.p * sol.g.get(pair, 0.0)
    for consumed, v in sol.inflow.get(pair, ()):
        total += 0.5 * net.q[swap_node(consumed, pair)] * v
    return total


def output_rate(pair: NodePair, sol: RateSolution) -> float:
    """Expected ebits per slot of `pair` consumed by swaps."""
    return sol.outflow_total.get(pair, 0.0)


class MredModel:
    """Sparse constraint matrices for one network, reusable across solves.

    Column layout: all staged-flow variables, then link usage, then one
    surplus column per node pair. Equality rows: staged-lane symmetry
    (one per produced pair and swap node), then one balance row per pair.
    `solves` counts the LP solves run on this model.
    """

    def __init__(self, net: Network):
        self.net = net
        self.solves = 0
        nodes = net.nodes
        pairs = net.all_pairs()
        self.pairs = pairs
        pidx = {pr: i for i, pr in enumerate(pairs)}

        f_keys: list[tuple[NodePair, NodePair]] = []
        f_produced: list[int] = []
        f_consumed: list[int] = []
        f_qhalf: list[float] = []
        couples: list[tuple[int, int]] = []
        for produced in pairs:
            for k in nodes:
                if k == produced.lo or k == produced.hi:
                    continue
                left = canonical_pair(produced.lo, k)
                right = canonical_pair(k, produced.hi)
                col_l = len(f_keys)
                f_keys.append((left, produced))
                f_produced.append(pidx[produced])
                f_consumed.append(pidx[left])
                f_qhalf.append(0.5 * net.q[k])
                col_r = len(f_keys)
                f_keys.append((right, produced))
                f_produced.append(pidx[produced])
                f_consumed.append(pidx[right])
                f_qhalf.append(0.5 * net.q[k])
                couples.append((col_l, col_r))

        nf = len(f_keys)
        ng = len(net.sorted_links)
        npair = len(pairs)
        self.f_keys = f_keys
        self.f_col = {key: j for j, key in enumerate(f_keys)}
        self.g_col = {lk: nf + j for j, lk in enumerate(net.sorted_links)}
        self.eta_col = {pr: nf + ng + j for j, pr in enumerate(pairs)}
        self.ncols = nf + ng + npair
        self.n_f_vars = nf
        self.n_g_vars = ng
        self.n_pairing_rows = len(couples)
        self.n_balance_rows = npair

        fp = np.asarray(f_produced, dtype=np.int64)
        fc = np.asarray(f_consumed, dtype=np.int64)
        qh = np.asarray(f_qhalf)
        fcols = np.arange(nf, dtype=np.int64)

        # staged-lane symmetry rows: left flow == right flow
        cp = np.asarray(couples, dtype=np.int64).reshape(-1, 2)
        rows = [np.repeat(np.arange(len(couples), dtype=np.int64), 2)]
        cols = [cp.ravel()]
        vals = [np.tile([1.0, -1.0], len(couples))]

        # balance rows: input - output - surplus = 0
        base = len(couples)
        rows += [base + fp, base + fc]
        cols += [fcols, fcols]
        vals += [qh, -np.ones(nf)]
        link_rows = np.array([base + pidx[lk] for lk in net.sorted_links], dtype=np.int64)
        link_cols = np.array([self.g_col[lk] for lk in net.sorted_links], dtype=np.int64)
        link_vals = np.array([net.links[lk].capacity * net.links[lk].p for lk in net.sorted_links])
        rows += [link_rows, base + np.arange(npair, dtype=np.int64)]
        cols += [link_cols, nf + ng + np.arange(npair, dtype=np.int64)]
        vals += [link_vals, -np.ones(npair)]

        nrows = base + npair
        self.A_eq = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nrows, self.ncols),
        ).tocsr()
        self.b_eq = np.zeros(nrows)

        bounds = np.zeros((self.ncols, 2))
        bounds[:nf, 1] = np.inf
        bounds[nf:nf + ng, 1] = 1.0
        # surplus columns stay pinned at zero unless freed per solve
        self._base_bounds = bounds

    def _assemble_ub(self, extra_ub, ncols):
        if not extra_ub:
            return None, None
        rows, cols, vals, rhs = [], [], [], []
        for r, (coeffs, ub) in enumerate(extra_ub):
            for col, w in coeffs.items():
                rows.append(r)
                cols.append(col)
                vals.append(w)
            rhs.append(ub)
        A = sparse.coo_matrix((vals, (rows, cols)), shape=(len(extra_ub), ncols)).tocsr()
        return A, np.asarray(rhs)

    def solve(
        self,
        objective: dict[int, float] | None,
        extra_ub: Sequence[tuple[dict[int, float], float]] = (),
        eta_free: Iterable[NodePair] | None = None,
        maximin_over: Iterable[NodePair] | None = None,
    ) -> lp.LpResult:
        """Maximize a linear objective over the balance polytope.

        `eta_free` selects which pairs may run a surplus (defaults to the
        network's SD set). With `maximin_over`, a fresh variable bounded
        above by each listed pair's surplus is maximized instead; the
        `objective` argument is ignored in that mode.
        """
        free = tuple(eta_free) if eta_free is not None else self.net.sorted_sd
        bounds = self._base_bounds.copy()
        for pr in free:
            bounds[self.eta_col[pr], 1] = np.inf

        ncols = self.ncols
        A_eq = self.A_eq
        if maximin_over is not None:
            ncols += 1
            A_eq = sparse.hstack([A_eq, sparse.csr_matrix((A_eq.shape[0], 1))]).tocsr()
            bounds = np.vstack([bounds, [0.0, np.inf]])
            extra_ub = list(extra_ub) + [
                ({ncols - 1: 1.0, self.eta_col[pr]: -1.0}, 0.0) for pr in sorted(maximin_over)
            ]
            objective = {ncols - 1: 1.0}

        c = np.zeros(ncols)
        for col, w in (objective or {}).items():
            c[col] = -w
        A_ub, b_ub = self._assemble_ub(extra_ub, ncols)
        self.solves += 1
        res = lp.solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=self.b_eq, bounds=bounds)
        if res.objective is not None:
            res = lp.LpResult(status=res.status, x=res.x, objective=-res.objective)
        return res

    def extract(
        self,
        x: np.ndarray,
        objective_log: Iterable[tuple[str, float]],
        eta_free: Iterable[NodePair] | None = None,
    ) -> RateSolution:
        free = set(eta_free) if eta_free is not None else set(self.net.sd_pairs)
        nf = self.n_f_vars

        f = {}
        fv = x[:nf]
        for j in np.flatnonzero((fv > DROP_TOL) | (fv < -NEG_CLAMP)):
            f[self.f_keys[j]] = float(fv[j])
        g = {}
        for lk, col in self.g_col.items():
            v = _clean(float(x[col]))
            if 1.0 < v <= 1.0 + NEG_CLAMP:
                v = 1.0
            if v != 0.0:
                g[lk] = v
        eta = {}
        for pr in sorted(free):
            v = _clean(float(x[self.eta_col[pr]]))
            if v != 0.0:
                eta[pr] = v
        return RateSolution(f=f, g=g, eta=eta, objective_log=tuple(objective_log))


def build_mred(net: Network) -> MredModel:
    """Construct the reusable LP model for `net`."""
    return MredModel(net)


def _model_for(net: Network, model: MredModel | None) -> MredModel:
    if model is not None:
        if model.net is not net:
            raise ValidationError("model was built for a different network object")
        return model
    return MredModel(net)


def _require_optimal(res: lp.LpResult, what: str) -> None:
    if res.status != LpStatus.OPTIMAL:
        raise SolverError(f"{what}: solver returned {res.status}")


def solve_max_total(net: Network, model: MredModel | None = None) -> RateSolution:
    """Maximize total SD surplus, then even out the per-pair shares.

    The second stage pins the total at its optimum and maximizes the
    smallest SD surplus, so ties between SD pairs resolve to the fair
    split instead of an arbitrary solver vertex.
    """
    if not net.sd_pairs:
        return zero_solution([("total", 0.0)])
    m = _model_for(net, model)
    total_obj = {m.eta_col[pr]: 1.0 for pr in net.sorted_sd}
    r1 = m.solve(total_obj)
    _require_optimal(r1, "total-rate stage")
    v = r1.objective
    fix_total = ({col: -1.0 for col in total_obj}, -(v - _lex_eps(v)))
    r2 = m.solve(None, extra_ub=[fix_total], maximin_over=net.sorted_sd)
    _require_optimal(r2, "fair-share stage")
    return m.extract(r2.x, [("total", v), ("min_share", r2.objective)])


def solve_single_pair_edr(net: Network, sd: NodePair, model: MredModel | None = None) -> float:
    """Best end-to-end rate for `sd` when it is the only pair served."""
    sd = canonical_pair(sd[0], sd[1])
    net.require_pair(sd)
    m = _model_for(net, model)
    res = m.solve({m.eta_col[sd]: 1.0}, eta_free=(sd,))
    _require_optimal(res, f"single-pair rate for {sd}")
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
    fixed: list[tuple[dict[int, float], float]] = []
    log: list[tuple[str, float]] = []
    for pr in prio:
        col = m.eta_col[pr]
        res = m.solve({col: 1.0}, extra_ub=fixed)
        _require_optimal(res, f"priority stage for {pr}")
        v = res.objective
        log.append((f"eta[{pr}]", v))
        fixed.append(({col: -1.0}, -(v - _lex_eps(v))))
    total_obj = {m.eta_col[pr]: 1.0 for pr in net.sorted_sd}
    res = m.solve(total_obj, extra_ub=fixed)
    _require_optimal(res, "work-conservation stage")
    log.append(("total", res.objective))
    return m.extract(res.x, log)


def build_and_check_mred_dc(
    net: Network,
    prioritized: Sequence[tuple[NodePair, float, float]],
    model: MredModel | None = None,
    refine: bool = True,
) -> RateSolution | None:
    """Max-total solve under per-pair deadline prefix constraints.

    `prioritized` holds (sd pair, remaining demand, remaining slots)
    entries. Per SD pair, entries sorted by remaining slots must each be
    coverable by that pair's surplus within their window, cumulatively:
    ``eta * slots_l >= sum of the l tightest demands``. Returns None when
    the constrained program is infeasible; an empty list degenerates to
    the plain fair max-total solve.

    `refine=False` skips the second stage that steers the optimum toward
    the prioritized pairs; use it for cheap feasibility probes where only
    the verdict matters.
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
    groups: dict[NodePair, list[tuple[float, float]]] = {}
    for sd, theta, delta in entries:
        groups.setdefault(sd, []).append((theta, delta))

    rows: list[tuple[dict[int, float], float]] = []
    for sd in sorted(groups):
        col = m.eta_col[sd]
        cum = 0.0
        for theta, delta in sorted(groups[sd], key=lambda td: td[1]):
            cum += theta
            rows.append(({col: -delta}, -cum))

    total_obj = {m.eta_col[pr]: 1.0 for pr in net.sorted_sd}
    r1 = m.solve(total_obj, extra_ub=rows)
    if r1.status == LpStatus.INFEASIBLE:
        return None
    _require_optimal(r1, "deadline-constrained total stage")
    v = r1.objective
    if not refine:
        return m.extract(r1.x, [("total", v)])

    # among max-total optima prefer feeding the prioritized pairs, so the
    # executed plan concentrates on the admitted deadlines
    fixed = rows + [({col: -1.0 for col in total_obj}, -(v - _lex_eps(v)))]
    prio_obj = {m.eta_col[sd]: 1.0 for sd in groups}
    r2 = m.solve(prio_obj, extra_ub=fixed)
    _require_optimal(r2, "deadline preference stage")
    return m.extract(r2.x, [("total", v), ("priority_total", r2.objective)])


def check_solution(net: Network, sol: RateSolution, tol: float = FEAS_TOL) -> dict:
    """Residual report for a rate plan against the balance constraints."""
    pair_asym = 0.0
    for produced, k, key_l, key_r in sol.swap_triples:
        pair_asym = max(pair_asym, abs(sol.f.get(key_l, 0.0) - sol.f.get(key_r, 0.0)))
    # triples where only one side is present are pure asymmetry
    seen_lanes: dict[tuple[NodePair, int], list[float]] = {}
    for (consumed, produced), v in sol.f.items():
        k = swap_node(consumed, produced)
        seen_lanes.setdefault((produced, k), []).append(v)
    for lanes in seen_lanes.values():
        if len(lanes) == 1:
            pair_asym = max(pair_asym, abs(lanes[0]))

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

    g_range = 0.0
    for v in sol.g.values():
        g_range = max(g_range, -v, v - 1.0, 0.0)
    f_neg = max((max(0.0, -v) for v in sol.f.values()), default=0.0)
    eta_neg = max((max(0.0, -v) for v in sol.eta.values()), default=0.0)

    report = {
        "pair_symmetry": pair_asym,
        "balance": balance,
        "sd_deficit": sd_deficit,
        "eta_gap": eta_gap,
        "g_out_of_range": g_range,
        "f_negative": f_neg,
        "eta_negative": eta_neg,
    }
    report["ok"] = all(v <= tol for k, v in report.items() if k != "ok")
    return report


def solution_to_json(sol: RateSolution) -> dict:
    return {
        "f": [
            [c.lo, c.hi, p.lo, p.hi, v]
            for (c, p), v in sorted(sol.f.items())
        ],
        "g": [[lk.lo, lk.hi, v] for lk, v in sorted(sol.g.items())],
        "eta": [[pr.lo, pr.hi, v] for pr, v in sorted(sol.eta.items())],
        "objectives": [[label, v] for label, v in sol.objective_log],
    }


def solution_from_json(obj: dict) -> RateSolution:
    try:
        f = {
            (canonical_pair(clo, chi), canonical_pair(plo, phi)): float(v)
            for clo, chi, plo, phi, v in obj.get("f", [])
        }
        g = {canonical_pair(lo, hi): float(v) for lo, hi, v in obj.get("g", [])}
        eta = {canonical_pair(lo, hi): float(v) for lo, hi, v in obj.get("eta", [])}
        log = tuple((str(label), float(v)) for label, v in obj.get("objectives", []))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed solution object: {exc}") from exc
    return RateSolution(f=f, g=g, eta=eta, objective_log=log)


def write_solution(sol: RateSolution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_json(sol), fh, indent=2)
        fh.write("\n")


def read_solution(path: str) -> RateSolution:
    with open(path, encoding="utf-8") as fh:
        return solution_from_json(json.load(fh))
