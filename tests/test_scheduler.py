import pytest

from conftest import star_net
from entsched import engine, mred, scheduler
from entsched.mred import (
    build_and_check_mred_dc,
    build_mred,
    solve_lexicographic,
    solve_single_pair_edr,
)
from entsched.scheduler import (
    POLICY_BASELINE,
    POLICY_DEADLINE,
    POLICY_ORDERED,
    framework_step,
    new_state,
    rank_pairs_by_completion,
)
from entsched.topology import (
    ValidationError,
    build_manual,
    canonical_pair,
    generate_waxman,
    sample_sd_pairs,
)
from entsched.workload import Commodity, DeadlineSpec, WorkloadConfig, generate_workload

P = canonical_pair
AB = P(0, 1)
AD = P(0, 3)


def _c(cid, sd, demand, arrival=1, deadline=None):
    return Commodity(id=cid, sd=sd, demand=demand, arrival=arrival, deadline=deadline)


def test_new_state_validates():
    net = star_net()
    with pytest.raises(ValidationError):
        new_state(net, "ESDI-X")
    with pytest.raises(ValidationError):
        new_state(net, POLICY_ORDERED, kappa=0)


def test_empty_active_set_keeps_standing_plan():
    state = new_state(star_net(), POLICY_ORDERED)
    plan, fresh = framework_step(state, [], slot=1)
    assert plan is None and not fresh
    assert state.events == []

    plan, fresh = framework_step(state, [_c(0, AB, 6)], slot=2)
    assert fresh and plan is not None
    standing, fresh = framework_step(state, [], slot=3)
    assert standing is plan and not fresh


def test_baseline_solves_once_and_splits_fairly():
    state = new_state(star_net(), POLICY_BASELINE)
    both = [_c(0, AB, 6), _c(1, AD, 6)]
    plan, fresh = framework_step(state, both, slot=1)
    assert fresh
    assert plan.eta[AB] == pytest.approx(1.0, abs=1e-6)
    assert plan.eta[AD] == pytest.approx(1.0, abs=1e-6)

    # active set changes but the whole-set program does not
    again, fresh = framework_step(state, both[:1], slot=4)
    assert again is plan and not fresh
    assert len(state.events) == 1
    assert state.events[0]["priority"] == []


def test_unchanged_fingerprint_skips_resolve():
    state = new_state(star_net(), POLICY_ORDERED)
    both = [_c(0, AB, 6), _c(1, AD, 6)]
    plan, fresh = framework_step(state, both, slot=1)
    assert fresh
    before = state.model.solves
    again, fresh = framework_step(state, list(reversed(both)), slot=2)
    assert again is plan and not fresh
    assert state.model.solves == before
    assert len(state.events) == 1


def test_ordered_ranking_prefers_quicker_completion():
    state = new_state(star_net(), POLICY_ORDERED)
    # equal solo rates, so the smaller demand finishes sooner
    order = rank_pairs_by_completion(state, [_c(0, AD, 6), _c(1, AB, 4)])
    assert order == [AB, AD]
    # equal demands fall back to arrival then id
    order = rank_pairs_by_completion(state, [_c(0, AD, 6), _c(1, AB, 6)])
    assert order == [AD, AB]
    order = rank_pairs_by_completion(state, [_c(0, AD, 6, arrival=2), _c(1, AB, 6, arrival=1)])
    assert order == [AB, AD]


def test_ordered_ranks_unreachable_pairs_last():
    net = build_manual(
        [(v, 1.0) for v in range(5)],
        [(0, 2, 2, 1.0), (1, 2, 2, 1.0), (2, 3, 2, 1.0)],
        [(0, 1), (0, 4)],
    )
    state = new_state(net, POLICY_ORDERED)
    order = rank_pairs_by_completion(state, [_c(0, P(0, 4), 1), _c(1, AB, 50)])
    assert order == [AB, P(0, 4)]
    assert solve_single_pair_edr(net, P(0, 4), state.model) == 0.0


def test_ordered_serves_one_pair_then_the_other():
    state = new_state(star_net(), POLICY_ORDERED, kappa=1)
    c0, c1 = _c(0, AB, 6), _c(1, AD, 6)

    plan, fresh = framework_step(state, [c0, c1], slot=1)
    assert fresh
    assert plan.eta[AB] == pytest.approx(2.0, abs=1e-6)
    assert plan.eta.get(AD, 0.0) == pytest.approx(0.0, abs=1e-6)

    plan, fresh = framework_step(state, [c1], slot=4)
    assert fresh
    assert plan.eta.get(AD, 0.0) == pytest.approx(2.0, abs=1e-6)
    assert [e["slot"] for e in state.events] == [1, 4]
    assert state.events[0]["priority"] == ["0:1"]
    assert state.events[1]["priority"] == ["0:3"]


def test_ordered_truncates_priority_to_kappa():
    state = new_state(star_net(), POLICY_ORDERED, kappa=2)
    plan, _ = framework_step(state, [_c(0, AB, 6), _c(1, AD, 6)], slot=1)
    assert state.events[0]["priority"] == ["0:1", "0:3"]
    labels = [label for label, _ in plan.objective_log]
    assert labels == ["eta[0:1]", "eta[0:3]", "total"]
    assert plan.eta[AB] == pytest.approx(2.0, abs=1e-6)


def test_ordered_reuses_plan_of_a_priority_list_already_solved():
    net = star_net()
    state = new_state(net, POLICY_ORDERED, kappa=1)
    c0, c1, c2 = _c(0, AB, 4), _c(1, AD, 6), _c(2, AB, 2)
    first, _ = framework_step(state, [c0, c1], slot=1)
    framework_step(state, [c1], slot=3)
    before = state.model.solves
    plan, fresh = framework_step(state, [c1, c2], slot=5)
    assert fresh
    assert [e["priority"] for e in state.events] == [["0:1"], ["0:3"], ["0:1"]]
    # the list 0:1 was solved at slot 1, so this re-plan runs no solve
    assert state.model.solves == before
    assert plan == first
    ref = solve_lexicographic(net, [AB], model=build_mred(net))
    assert plan.swaps == ref.swaps
    assert plan.g == ref.g
    assert plan.eta == ref.eta
    assert plan.objective_log == ref.objective_log


def test_deadline_fallback_is_solved_once_per_run():
    state = new_state(star_net(), POLICY_DEADLINE)
    c0, c1 = _c(0, AB, 100, deadline=2), _c(1, AD, 100, deadline=3)
    first, _ = framework_step(state, [c0], slot=1)
    assert state.bound_armed == {AB}
    before = state.model.solves
    plan, fresh = framework_step(state, [c0, c1], slot=2)
    assert fresh and plan == first
    assert [e["priority"] for e in state.events] == [[], []]
    # 0:1 is rejected by its solo rate (one solve), 0:3 by one LP probe, and
    # the fallback plan is the one solved at slot 1
    assert state.model.solves - before == 2
    assert state.bound_armed == {AB, AD}


def _random_deadline_run(seed, mu, kappa):
    """One ESDI-E run on a seeded 7-node Waxman instance."""
    net = generate_waxman(7, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9, seed=seed)
    net = sample_sd_pairs(net, 3, seed=seed + 100)
    cfg = WorkloadConfig(rate=1.5, mean_demand=6.0, min_demand=2, horizon=6,
                         deadline=DeadlineSpec(mu, 0.1))
    demands = generate_workload(cfg, net.sorted_sd, seed=seed + 200)
    return engine.run_simulation(net, demands, POLICY_DEADLINE, kappa=kappa, seed=seed,
                                 horizon_cap=3000)


def test_solo_rate_bound_rejects_only_infeasible_probes(monkeypatch):
    rejected = []
    bound = scheduler._exceeds_solo_rate

    def recording_bound(state, entries, sd):
        hit = bound(state, entries, sd)
        if hit:
            rejected.append((state.net, list(entries)))
        return hit

    monkeypatch.setattr(scheduler, "_exceeds_solo_rate", recording_bound)
    for seed in range(6):
        _random_deadline_run(seed, mu=0.3, kappa=3)
    assert len(rejected) > 20
    for net, entries in rejected:
        assert build_and_check_mred_dc(net, entries, model=build_mred(net)) is None, entries


def test_solo_rate_bound_costs_nothing_without_an_infeasible_probe(monkeypatch):
    probes = []
    probe = scheduler.build_and_check_mred_dc

    def recording_probe(net, entries, model=None):
        res = probe(net, entries, model=model)
        probes.append((tuple(entries), res is not None, mred.deadline_covered(model, entries)))
        return res

    monkeypatch.setattr(scheduler, "build_and_check_mred_dc", recording_probe)
    states = []
    step = engine.framework_step

    def recording_step(state, active, slot):
        states.append(state)
        return step(state, active, slot)

    monkeypatch.setattr(engine, "framework_step", recording_step)
    # windows twice the demand; on these seeds every tightest candidate fits
    for seed in (3, 4, 5, 7):
        result = _random_deadline_run(seed, mu=2.0, kappa=1)
        state = states[-1]
        assert probes and all(feasible for _, feasible, _ in probes)
        assert not state.bound_armed
        # each re-plan is one feasible probe, as without the bound. The
        # model runs each distinct program once: the max-total solve behind
        # the cover check, then one solve per distinct entry list, and one
        # more when the max-total point does not cover it
        assert len(probes) == len(result.events)
        distinct = {entries: covered for entries, _, covered in probes}
        uncovered = sum(not covered for covered in distinct.values())
        assert result.metrics.solver_calls == 1 + len(distinct) + uncovered
        # seed 5 probes the list ((5:6, 2.0, 5.0),) twice and solves it once
        assert seed != 5 or result.metrics.solver_calls == 6
        states.clear()
        probes.clear()


def test_repeated_single_pair_rate_runs_no_lp():
    net = star_net()
    m = build_mred(net)
    first = solve_single_pair_edr(net, AB, m)
    before = m.solves
    assert solve_single_pair_edr(net, AB, m) == first
    assert m.solves == before


def test_deadline_admits_tightest_first():
    state = new_state(star_net(), POLICY_DEADLINE, kappa=1)
    active = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
    plan, fresh = framework_step(state, active, slot=1)
    assert fresh
    assert state.events[0]["priority"] == ["0:1"]
    assert plan.eta[AB] == pytest.approx(2.0, abs=1e-6)
    assert plan.eta.get(AD, 0.0) == pytest.approx(0.0, abs=1e-6)


def test_deadline_plan_is_the_feasible_probe():
    state = new_state(star_net(), POLICY_DEADLINE, kappa=1)
    before = state.model.solves
    framework_step(state, [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)], slot=1)
    assert state.events[0]["priority"] == ["0:1"]
    # the max-total solve, then one covered probe's single stage, and no
    # further solve once it is admitted
    assert state.model.solves - before == 2


def test_deadline_skips_infeasible_candidate():
    state = new_state(star_net(), POLICY_DEADLINE, kappa=2)
    # jointly the two would need 1.5 + 1.0 from a hub rate of 2
    active = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
    plan, _ = framework_step(state, active, slot=1)
    assert state.events[0]["priority"] == ["0:1"]
    assert plan.eta[AB] == pytest.approx(2.0, abs=1e-6)

    # the rejected probe leaves the plan of the admitted entries alone
    net = star_net()
    ref = build_and_check_mred_dc(net, [(AB, 6.0, 4.0)], model=build_mred(net))
    assert plan.swaps == ref.swaps
    assert plan.g == ref.g
    assert plan.eta == ref.eta
    assert plan.objective_log == ref.objective_log
    assert [label for label, _ in plan.objective_log] == ["total", "priority_total"]


def test_deadline_admission_uses_remaining_demand():
    state = new_state(star_net(), POLICY_DEADLINE, kappa=2)
    c0, c1 = _c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)
    c0.remaining = 2   # partially served: 2/4 and 6/6 now fit together
    plan, _ = framework_step(state, [c0, c1], slot=1)
    assert state.events[0]["priority"] == ["0:1", "0:3"]
    assert plan.eta[AB] >= 0.5 - 1e-6
    assert plan.eta[AD] >= 1.0 - 1e-6


def test_deadline_falls_back_to_fair_plan():
    state = new_state(star_net(), POLICY_DEADLINE)
    plan, fresh = framework_step(state, [_c(0, AB, 100, deadline=2)], slot=1)
    assert fresh
    assert state.events[0]["priority"] == []
    assert plan.eta[AB] == pytest.approx(1.0, abs=1e-6)
    assert plan.eta[AD] == pytest.approx(1.0, abs=1e-6)


def test_deadline_ignores_unconstrained_commodities_in_admission():
    state = new_state(star_net(), POLICY_DEADLINE, kappa=2)
    plan, _ = framework_step(state, [_c(0, AB, 6), _c(1, AD, 6, deadline=6)], slot=1)
    assert state.events[0]["priority"] == ["0:3"]
    assert plan.eta[AD] == pytest.approx(2.0, abs=1e-6)


def test_events_count_probe_outcomes_and_mark_reused_plans():
    net = star_net()
    state = new_state(net, POLICY_DEADLINE, kappa=2)
    # 0:1 alone is feasible; 0:3 with it needs 1.5 + 1.0 of a hub rate of 2
    framework_step(state, [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)], slot=1)
    covered = build_mred(net).max_total_optimum()[1][AB] >= 1.5
    assert state.events[0]["probes"] == {
        "covered": int(covered), "solved": int(not covered), "infeasible": 1, "solo_rejected": 0,
    }

    state = new_state(net, POLICY_DEADLINE)
    c0, c1 = _c(0, AB, 100, deadline=2), _c(1, AD, 100, deadline=3)
    framework_step(state, [c0], slot=1)
    framework_step(state, [c0, c1], slot=2)
    assert [e["probes"] for e in state.events] == [
        {"covered": 0, "solved": 0, "infeasible": 1, "solo_rejected": 0},
        {"covered": 0, "solved": 0, "infeasible": 1, "solo_rejected": 1},
    ]

    state = new_state(net, POLICY_ORDERED)
    c0, c1, c2 = _c(0, AB, 4), _c(1, AD, 6), _c(2, AB, 2)
    for slot, active in ((1, [c0, c1]), (3, [c1]), (5, [c1, c2])):
        framework_step(state, active, slot)
    assert [e["reused"] for e in state.events] == [False, False, True]

    state = new_state(net, POLICY_BASELINE)
    framework_step(state, [c0], slot=1)
    assert "reused" not in state.events[0] and "probes" not in state.events[0]


def test_event_record_shape():
    state = new_state(star_net(), POLICY_ORDERED)
    framework_step(state, [_c(0, AB, 6)], slot=3)
    (event,) = state.events
    assert set(event) == {"slot", "policy", "priority", "objectives", "wall_ms", "reused"}
    assert event["reused"] is False
    assert event["slot"] == 3
    assert event["policy"] == POLICY_ORDERED
    assert event["wall_ms"] >= 0.0
    assert all(isinstance(label, str) and isinstance(v, float) for label, v in event["objectives"])
