"""Invariants checked on random small instances rather than fixtures.

Each hypothesis example draws a 4-7 node Waxman network and a small
workload and runs every policy twice, checking every fresh plan and its
execution table. Every ESDI-O plan must equal a fresh model's solve of
its priority list, and every ESDI-B plan and ESDI-E fallback plan a
fresh model's max-total solve. The examples are derandomized, so the
suite runs the same instances every time. A fixed-plan test checks that
long runs deliver the planned end-to-end rates. A deadline probe on a
model whose max-total optimum is already solved is checked against the
cold two-stage solve.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsched import engine, mred
from entsched.mred import (
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    solve_lexicographic,
    solve_max_total,
)
from entsched.protocol import compile_plan
from entsched.scheduler import POLICIES, POLICY_BASELINE, POLICY_ORDERED
from entsched.topology import canonical_pair, generate_waxman, sample_sd_pairs
from entsched.workload import Commodity, DeadlineSpec, WorkloadConfig, generate_workload


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
    """The deadline probe as two solved stages on a fresh model."""
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
    return mred._lexmax(m, [
        ("total", total, rows, None),
        ("priority_total", prioritized, [], None),
    ])


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
    v = m.max_total_optimum()[0]
    # a pair's demand is a share of the whole max-total rate over its window,
    # so probes range from covered through uncovered to infeasible
    entries = [(net.sorted_sd[i % sd_count], share * v * delta, float(delta))
               for i, share, delta in picks]
    warm = build_and_check_mred_dc(net, entries, model=m)
    cold = _cold_probe(net, entries)
    assert (warm is None) == (cold is None), entries
    if warm is None:
        return
    for plan in (warm, cold):
        assert check_solution(net, plan)["ok"]
    warm_log, cold_log = dict(warm.objective_log), dict(cold.objective_log)
    assert abs(warm_log["total"] - cold_log["total"]) <= mred._lex_eps(v)
    assert warm_log["priority_total"] == pytest.approx(cold_log["priority_total"], rel=1e-6)


# Realized/planned rate over 2000 slots on 6-node networks (seeds 0-39, 93
# SD pairs with a non-dust eta): mean 0.996, sd 0.0087, lowest 0.958.
# Generation and swap draws spread the ratio both ways; ebits still
# buffered when the run ends pull it down. 1 - EPS = 0.95 sits below the
# lowest ratio seen, about 5 sd under the mean.
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
