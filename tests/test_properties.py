"""Invariants checked on random small instances rather than fixtures.

Each hypothesis example draws a 4-7 node Waxman network and a small
workload and runs every policy twice, checking every fresh plan and its
execution table. Every ESDI-O plan must equal a fresh model's solve of
its priority list, and every ESDI-B plan and ESDI-E fallback plan a
fresh model's max-total solve. The examples are derandomized, so the
suite runs the same instances every time. A fixed-plan test checks that
long runs deliver the planned end-to-end rates. A deadline probe on a
model whose max-total optimum is already solved is checked against the
cold two-stage solve. ESDI-E runs at kappa 2 and 3 must match a
reference admission that solves every feasible probe's whole plan. Every
program the model hands the LP backend on random instances is also
solved by `scipy.optimize.linprog`, the reference the direct HiGHS
backend must match bit for bit. The model's
swap columns are checked against ones built through `lane_keys`, and
`check_solution` on random plans, tampered or not, against the per-pair
formulation it replaced. The
protocol's ebit ledger is checked after every slot of random runs, with
and without an age limit. `service_order` must sort lists that all carry
deadlines, or none, as the keys it replaced did.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import against_linprog
from entsched import engine, mred, scheduler
from entsched.lp import LpStatus
from entsched.mred import (
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    lane_keys,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
)
from entsched.protocol import ProtocolConfig, compile_plan
from entsched.scheduler import POLICIES, POLICY_BASELINE, POLICY_DEADLINE, POLICY_ORDERED
from entsched.topology import canonical_pair, generate_waxman, sample_sd_pairs
from entsched.workload import (
    Commodity,
    DeadlineSpec,
    WorkloadConfig,
    generate_workload,
    service_order,
)


def _without_wall(result):
    metrics = result.metrics.to_json()
    metrics.pop("wall_ms")
    events = [{k: v for k, v in e.items() if k != "wall_ms"} for e in result.events]
    return metrics, events


def _check_table(plan, table):
    """Rows are distributions, every executed lane is fed, every SD surplus has an outlet."""
    for targets, probs in table.rows.values():
        assert abs(sum(probs) - 1.0) <= 1e-12, (targets, probs)
    for _, _, left, right in table.swaps:
        for lane in (left, right):
            assert lane in table.rows[lane[0]][0], lane
    for sd, eta in plan.eta.items():
        if eta > 0:
            assert sd in table.rows, sd


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nodes=st.integers(4, 7),
    net_seed=st.integers(0, 10_000),
    sd_count=st.integers(1, 3),
    mean_demand=st.floats(2.0, 8.0),
    horizon=st.integers(1, 5),
    deadlines=st.booleans(),
    run_seed=st.integers(0, 10_000),
)
def test_random_instances_conserve_plan_validly_and_repeat(
    nodes, net_seed, sd_count, mean_demand, horizon, deadlines, run_seed
):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    cfg = WorkloadConfig(rate=1.0, mean_demand=mean_demand, min_demand=1, horizon=horizon,
                         deadline=DeadlineSpec(0.4, 0.1) if deadlines else None)
    commodities = generate_workload(cfg, net.sorted_sd, seed=net_seed + 2)

    plans = []
    step = engine.framework_step

    def recording_step(state, active, slot):
        plan, fresh = step(state, active, slot)
        if fresh and plan is not None:
            plans.append((plan, state.events[-1]["priority"]))
        return plan, fresh

    for policy in POLICIES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "framework_step", recording_step)
            # a conservation failure raises ConservationError and fails the example
            first = engine.run_simulation(net, commodities, policy, seed=run_seed,
                                          horizon_cap=3000)
        assert plans or not commodities, policy
        for plan, priority in plans:
            report = check_solution(net, plan)
            assert report["ok"], (policy, report)
            assert all(w >= 0 for w in plan.swaps.values()), policy
            _check_table(plan, compile_plan(net, plan))
            # a plan served from the model's memo is the one a fresh model solves
            if policy == POLICY_ORDERED:
                pairs = [canonical_pair(*map(int, sd.split(":"))) for sd in priority]
                assert plan == solve_lexicographic(net, pairs, model=build_mred(net)), priority
            elif not priority:
                assert plan == solve_max_total(net, model=build_mred(net)), policy
        plans.clear()
        again = engine.run_simulation(net, commodities, policy, seed=run_seed, horizon_cap=3000)
        assert _without_wall(first) == _without_wall(again), policy


def _cold_probe(net, entries):
    """The deadline probe as two solved stages on a fresh model, with every
    deadline prefix written as a row: the reference for the face plan and
    for needs as surplus bounds."""
    m = build_mred(net)
    rows = []
    for sd in sorted({sd for sd, _, _ in entries}):
        cum = 0.0
        own = [(t, d) for p, t, d in entries if p == sd]
        for theta, delta in sorted(own, key=lambda td: td[1]):
            cum += theta
            rows.append(({m.eta_col[sd]: -delta}, -cum))
    total = {m.eta_col[sd]: 1.0 for sd in net.sorted_sd}
    prioritized = {m.eta_col[sd]: 1.0 for sd, _, _ in entries}
    if m.solve(total, extra_ub=rows).status == LpStatus.INFEASIBLE:
        return None
    return mred._lexmax(m, [("total", total, rows), ("priority_total", prioritized, [])])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nodes=st.integers(5, 9),
    net_seed=st.integers(0, 10_000),
    sd_count=st.integers(1, 4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 0.4), st.integers(1, 12)),
                   min_size=1, max_size=4),
)
def test_warm_deadline_probe_agrees_with_cold_two_stage_solve(nodes, net_seed, sd_count, picks):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    m = build_mred(net)
    v = m.solve(m.total_objective()).objective
    # a pair's demand is a share of the whole max-total rate over its window,
    # so probes range from covered through uncovered to infeasible
    entries = [(net.sorted_sd[i % sd_count], share * v * delta, float(delta))
               for i, share, delta in picks]
    before = m.solves
    warm = build_and_check_mred_dc(net, entries, model=m)
    added = m.solves - before
    face = mred.face_plan(m, entries)
    cold = _cold_probe(net, entries)
    assert (warm is None) == (cold is None), entries
    if warm is None:
        event("probe: infeasible")
        return
    if face is not None:
        event("probe: face-covered")
        assert warm == face and added <= 1
        needs = mred.deadline_needs(entries)
        assert all(face.eta.get(sd, 0.0) >= need for sd, need in needs.items()), entries
    else:
        event("probe: two-stage")
    for plan in (warm, cold):
        assert check_solution(net, plan)["ok"]
    warm_log, cold_log = dict(warm.objective_log), dict(cold.objective_log)
    assert abs(warm_log["total"] - cold_log["total"]) <= mred._lex_eps(v)
    assert warm_log["priority_total"] == pytest.approx(cold_log["priority_total"], rel=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nodes=st.integers(4, 9),
    net_seed=st.integers(0, 10_000),
    sd_count=st.integers(1, 4),
    pick=st.integers(0, 3),
    ratio=st.floats(0.0, 2.0),
    delta=st.integers(1, 40),
)
def test_single_entry_probe_is_feasible_exactly_within_the_solo_rate(
    nodes, net_seed, sd_count, pick, ratio, delta
):
    # the premise of the scheduler's solo-rate bound: at kappa 1 a probe
    # admits one commodity, and its pair alone can be served `rate`
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    sd = net.sorted_sd[pick % len(net.sorted_sd)]
    rate = solve_single_pair_edr(net, sd)
    need = ratio * rate
    assume(abs(need - rate) > 1e-6 * max(1.0, rate))
    entries = [(sd, need * delta, float(delta))]
    event("need within the solo rate" if need <= rate else "need beyond the solo rate")
    assert (_cold_probe(net, entries) is not None) == (need <= rate), entries
    assert (build_and_check_mred_dc(net, entries) is not None) == (need <= rate), entries


def _per_probe_plan_deadline(armed):
    """ESDI-E's admission as it ran before verdicts: each probe is the full
    deadline solve, the last feasible probe is the plan, and the fair
    max-total solve is the fallback. `armed` holds the pairs with an
    LP-infeasible probe, whose later probes check the solo-rate bound
    first. The reference for admitting first and planning once."""

    def plan_deadline(state, active, slot):
        candidates = sorted((c for c in active if c.deadline is not None),
                            key=lambda c: (c.deadline - slot + 1, c.arrival, c.id))
        admitted, plan = [], None
        probes = dict.fromkeys(("covered", "solved", "infeasible", "solo_rejected"), 0)
        for c in candidates:
            if len(admitted) >= state.kappa:
                break
            entry = (c.sd, float(c.remaining), float(c.deadline - slot + 1))
            entries = admitted + [entry]
            if c.sd in armed:
                rate = solve_single_pair_edr(state.net, c.sd, state.model)
                if mred.deadline_needs(entries)[c.sd] > rate * (1 + 1e-7) + 1e-7:
                    probes["solo_rejected"] += 1
                    continue
            probe = build_and_check_mred_dc(state.net, entries, model=state.model)
            if probe is None:
                probes["infeasible"] += 1
                armed.add(c.sd)
            else:
                covered = mred.face_plan(state.model, entries) is not None
                probes["covered" if covered else "solved"] += 1
                admitted.append(entry)
                plan = probe
        if plan is None:
            plan = solve_max_total(state.net, state.model)
        return plan, [sd for sd, _, _ in admitted], {"probes": probes}

    return plan_deadline


def _commodity_states(result):
    return [(c.id, c.status, c.remaining, c.completed_slot, c.expired_slot)
            for c in result.commodities]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    nodes=st.integers(5, 8),
    net_seed=st.integers(0, 10_000),
    sd_count=st.integers(2, 4),
    mean_demand=st.floats(3.0, 12.0),
    horizon=st.integers(2, 6),
    mu=st.sampled_from([0.4, 1.0]),
    kappa=st.sampled_from([2, 3]),
    run_seed=st.integers(0, 10_000),
)
def test_admit_then_plan_once_matches_per_probe_admission(
    nodes, net_seed, sd_count, mean_demand, horizon, mu, kappa, run_seed
):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    cfg = WorkloadConfig(rate=3.0, mean_demand=mean_demand, min_demand=1, horizon=horizon,
                         deadline=DeadlineSpec(mu, 0.1))
    commodities = generate_workload(cfg, net.sorted_sd, seed=net_seed + 2)
    run = lambda: engine.run_simulation(net, commodities, POLICY_DEADLINE, kappa=kappa,
                                        seed=run_seed, horizon_cap=3000)
    plans = []
    plan_once = scheduler.build_and_check_mred_dc

    def recording_plan(net, admitted, model=None):
        plans.append([str(sd) for sd, _, _ in admitted])
        return plan_once(net, admitted, model=model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "build_and_check_mred_dc", recording_plan)
        result = run()
    # one plan per re-plan, of the list its verdicts admitted
    assert plans == [e["priority"] for e in result.events]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "_plan_deadline", _per_probe_plan_deadline(set()))
        ref = run()
    (metrics, events), (ref_metrics, ref_events) = _without_wall(result), _without_wall(ref)
    assert events == ref_events
    assert _commodity_states(result) == _commodity_states(ref)
    solves, ref_solves = metrics.pop("solver_calls"), ref_metrics.pop("solver_calls")
    assert metrics == ref_metrics
    assert solves <= ref_solves
    event("fewer solves" if solves < ref_solves else "as many solves")
    for outcome in ("solved", "infeasible", "solo_rejected"):
        if any(e["probes"][outcome] for e in events):
            event(f"some probe {outcome}")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    nodes=st.integers(5, 10),
    net_seed=st.integers(0, 10_000),
    sd_count=st.integers(1, 4),
    share=st.floats(0.1, 0.99),
    delta=st.integers(1, 12),
)
def test_backend_matches_linprog_on_every_program(nodes, net_seed, sd_count, share, delta):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    with against_linprog():
        m = build_mred(net)
        v = m.solve(m.total_objective()).objective
        solve_max_total(net, m)
        ranked = solve_lexicographic(net, net.sorted_sd[::-1], m)
        solve_single_pair_edr(net, net.sorted_sd[0], m)
        # a share of a plan's own rates is within reach, and unlike the
        # max-total point the lexicographic one may leave the probe uncovered;
        # more than V on one pair is out of reach
        reachable = [(sd, share * ranked.eta.get(sd, 0.0) * delta, float(delta))
                     for sd in net.sorted_sd]
        assert build_and_check_mred_dc(net, reachable, m) is not None
        beyond = [(net.sorted_sd[0], 2 * v * delta + 1, float(delta))]
        assert build_and_check_mred_dc(net, beyond, m) is None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(nodes=st.integers(3, 17), net_seed=st.integers(0, 10_000))
def test_model_swap_columns_match_lane_keys(nodes, net_seed):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.7,
                          seed=net_seed)
    m = build_mred(net)
    pairs = net.all_pairs()
    row = {pr: i for i, pr in enumerate(pairs)}
    ids, want = [], np.zeros((len(pairs), len(m.swap_ids)))
    for produced in pairs:
        for k in net.nodes:
            if k in (produced.lo, produced.hi):
                continue
            (left, _), (right, _) = lane_keys(produced, k)
            j = len(ids)
            ids.append((produced, k))
            want[row[produced], j] += net.q[k]
            want[row[left], j] -= 1.0
            want[row[right], j] -= 1.0
    assert m.swap_ids == ids
    assert np.array_equal(m.A_eq[:, :m.n_f_vars].toarray(), want)


def _per_pair_report(net, sol):
    """The per-pair formulation `check_solution` replaced, kept as its
    reference: each pair's input and output summed over the whole plan."""
    balance = sd_deficit = eta_gap = 0.0
    for pr in net.all_pairs():
        made = 0.0
        link = net.links.get(pr)
        if link is not None:
            made += link.capacity * link.p * sol.g.get(pr, 0.0)
        for (produced, k), w in sol.swaps.items():
            if produced == pr:
                made += net.q[k] * w
        used = sum(w for swap, w in sol.swaps.items() for lane, _ in lane_keys(*swap) if lane == pr)
        slack = made - used
        if pr in net.sd_pairs:
            sd_deficit = max(sd_deficit, -slack)
            eta_gap = max(eta_gap, abs(slack - sol.eta.get(pr, 0.0)))
        else:
            balance = max(balance, abs(slack))
    report = {
        "balance": balance,
        "sd_deficit": sd_deficit,
        "eta_gap": eta_gap,
        "g_out_of_range": max((max(-v, v - 1.0, 0.0) for v in sol.g.values()), default=0.0),
        "swap_negative": max((max(0.0, -v) for v in sol.swaps.values()), default=0.0),
        "eta_negative": max((max(0.0, -v) for v in sol.eta.values()), default=0.0),
    }
    report["ok"] = all(v <= mred.FEAS_TOL for v in report.values())
    return report


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nodes=st.integers(2, 9),
    net_seed=st.integers(0, 10_000),
    sd_count=st.integers(1, 4),
    q=st.floats(0.5, 1.0),
    lexicographic=st.booleans(),
    tampers=st.lists(st.tuples(st.sampled_from(["swaps", "g", "eta"]), st.integers(0, 10_000),
                               st.floats(-1.0, 1.0)), max_size=3),
)
def test_check_solution_matches_per_pair_reference(
    nodes, net_seed, sd_count, q, lexicographic, tampers
):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=q,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    plan = (solve_lexicographic(net, net.sorted_sd[::-1]) if lexicographic
            else solve_max_total(net))
    parts = {"swaps": dict(plan.swaps), "g": dict(plan.g), "eta": dict(plan.eta)}
    # each tamper shifts one entry of the plan, or adds one, by up to 1
    keys = {"swaps": build_mred(net).swap_ids, "g": net.sorted_links, "eta": net.sorted_sd}
    for part, pick, shift in tampers:
        if keys[part]:
            key = keys[part][pick % len(keys[part])]
            parts[part][key] = parts[part].get(key, 0.0) + shift
    sol = mred.RateSolution(**parts)
    report = check_solution(net, sol)
    want = _per_pair_report(net, sol)
    assert report["ok"] == want.pop("ok")
    for key, value in want.items():
        assert abs(report[key] - value) <= 1e-12, (key, report[key], value)
    event("ok" if report["ok"] else "not ok")


# Realized/planned rate over 2000 slots on 6-node networks (seeds 0-39, 93
# SD pairs with a non-dust eta): mean 0.996, sd 0.0080, lowest 0.966.
# Generation and swap draws spread the ratio both ways; ebits still
# buffered when the run ends pull it down. 1 - EPS = 0.95 sits below the
# lowest ratio seen, about 6 sd under the mean.
EPS = 0.05
SLOTS = 2000


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_plan_delivers_planned_rate(seed):
    net = generate_waxman(6, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9, seed=seed)
    net = sample_sd_pairs(net, 3, seed=seed + 100)
    # ESDI-B keeps this plan for the whole run
    plan = solve_max_total(net)
    sinks = [Commodity(id=i, sd=sd, demand=10**9, arrival=1) for i, sd in enumerate(net.sorted_sd)]
    result = engine.run_simulation(net, sinks, POLICY_BASELINE, seed=seed, horizon_cap=SLOTS)
    assert result.metrics.slots == SLOTS
    for c in result.commodities:
        delivered = c.demand - c.remaining
        # deliveries are whole ebits; a dust eta (~1e-6) plans none in the run
        assert delivered >= math.floor((1 - EPS) * plan.eta.get(c.sd, 0.0) * SLOTS), c.sd


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    nodes=st.integers(4, 7),
    net_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
    max_age=st.sampled_from([None, 0, 1, 3]),
    depth=st.sampled_from([1, 2]),
    run_seed=st.integers(0, 10_000),
)
def test_ledger_holds_its_invariants_after_every_slot(
    nodes, net_seed, policy, max_age, depth, run_seed
):
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, 2, seed=net_seed + 1)
    cfg = WorkloadConfig(rate=1.0, mean_demand=6.0, min_demand=1, horizon=4)
    commodities = generate_workload(cfg, net.sorted_sd, seed=net_seed + 2)
    seen = []
    distribute = engine.phase_distribute

    def check(state, active):
        out = distribute(state, active)
        births = [birth for birth, _ in state.cohorts]
        assert all(a < b for a, b in zip(births, births[1:])), births
        assert all(len(counts) == len(state.total) for _, counts in state.cohorts)
        for i, held in enumerate(state.total):
            assert held == sum(counts[i] for _, counts in state.cohorts), i
            assert min([held] + [counts[i] for _, counts in state.cohorts]) >= 0, i
        seen.append(len(births))
        if max_age is None:
            assert len(births) == 1, births
        else:
            assert births[0] >= len(seen) - max_age, (len(seen), births)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "phase_distribute", check)
        result = engine.run_simulation(
            net, commodities, policy, seed=run_seed, horizon_cap=500,
            config=ProtocolConfig(cascade_depth=depth, max_buffer_age=max_age))
    assert len(seen) == result.metrics.slots
    event("cohorts max %d" % max(seen, default=0))


# the keys `service_order` replaced: the hand-out's shortest-job-first and
# earliest-deadline-first orders, and ESDI-E's candidate order
def _sjf_key(c):
    return (c.remaining, c.id)


def _edf_key(c):
    return (c.deadline is None, c.deadline or 0, c.id)


def _candidate_key(c):
    return (c.deadline, c.arrival, c.id)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6), st.integers(0, 8)),
                  min_size=1, max_size=12),
    with_deadlines=st.booleans(),
)
def test_service_order_sorts_as_the_keys_it_replaced(rows, with_deadlines):
    # ids in arrival order, as generate_workload numbers them
    arrival, commodities = 1, []
    for cid, (gap, remaining, life) in enumerate(rows):
        arrival += gap
        c = Commodity(id=cid, sd=canonical_pair(0, 1), demand=6, arrival=arrival,
                      deadline=arrival + life if with_deadlines else None)
        c.remaining = remaining
        commodities.append(c)
    order = [c.id for c in sorted(reversed(commodities), key=service_order)]
    refs = (_edf_key, _candidate_key) if with_deadlines else (_sjf_key,)
    for ref in refs:
        assert order == [c.id for c in sorted(reversed(commodities), key=ref)], ref.__name__
