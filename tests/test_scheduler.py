import pytest

from conftest import star_net
from entsched.mred import build_and_check_mred_dc, build_mred
from entsched.scheduler import (
    POLICY_BASELINE,
    POLICY_DEADLINE,
    POLICY_ORDERED,
    framework_step,
    new_state,
    rank_pairs_by_completion,
    single_pair_rate,
)
from entsched.topology import ValidationError, build_manual, canonical_pair
from entsched.workload import Commodity

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
    assert single_pair_rate(state, P(0, 4)) == 0.0


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


def test_edr_cache_avoids_repeat_solves():
    state = new_state(star_net(), POLICY_ORDERED)
    first = single_pair_rate(state, AB)
    before = state.model.solves
    assert single_pair_rate(state, AB) == first
    assert state.model.solves == before


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
    # one two-stage probe, and no further solve once it is admitted
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


def test_event_record_shape():
    state = new_state(star_net(), POLICY_ORDERED)
    framework_step(state, [_c(0, AB, 6)], slot=3)
    (event,) = state.events
    assert set(event) == {"slot", "policy", "priority", "objectives", "wall_ms"}
    assert event["slot"] == 3
    assert event["policy"] == POLICY_ORDERED
    assert event["wall_ms"] >= 0.0
    assert all(isinstance(label, str) and isinstance(v, float) for label, v in event["objectives"])
