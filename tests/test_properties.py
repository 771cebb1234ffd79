"""Invariants checked on random small instances rather than fixtures.

Each example draws a 4-7 node Waxman network and a small workload and
runs every policy twice. The examples are derandomized, so the suite
runs the same instances every time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsched import engine
from entsched.mred import check_solution
from entsched.scheduler import POLICIES
from entsched.topology import generate_waxman, sample_sd_pairs
from entsched.workload import DeadlineSpec, WorkloadConfig, generate_workload


def _without_wall(result):
    metrics = result.metrics.to_json()
    metrics.pop("wall_ms")
    events = [{k: v for k, v in e.items() if k != "wall_ms"} for e in result.events]
    return metrics, events


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
            plans.append(plan)
        return plan, fresh

    for policy in POLICIES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "framework_step", recording_step)
            # a conservation failure raises ConservationError and fails the example
            first = engine.run_simulation(net, commodities, policy, seed=run_seed,
                                          horizon_cap=3000)
        assert plans or not commodities, policy
        for plan in plans:
            report = check_solution(net, plan)
            assert report["ok"], (policy, report)
            assert all(w >= 0 for w in plan.swaps.values()), policy
        plans.clear()
        again = engine.run_simulation(net, commodities, policy, seed=run_seed, horizon_cap=3000)
        assert _without_wall(first) == _without_wall(again), policy
