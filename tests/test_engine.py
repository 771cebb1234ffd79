import pytest

from conftest import numpy_allocate, star_net
from entsched import engine, lp, protocol
from entsched.engine import ConservationError, RunMetrics, RunResult, run_simulation
from entsched.protocol import ProtocolConfig
from entsched.scheduler import POLICY_BASELINE, POLICY_DEADLINE, POLICY_ORDERED
from entsched.topology import ValidationError, build_manual, canonical_pair, generate_waxman, sample_sd_pairs
from entsched.workload import COMPLETED, EXPIRED, Commodity, WorkloadConfig, generate_workload

P = canonical_pair
AB = P(0, 1)
AD = P(0, 3)


def _c(cid, sd, demand, arrival=1, deadline=None):
    return Commodity(id=cid, sd=sd, demand=demand, arrival=arrival, deadline=deadline)


def _by_id(result: RunResult):
    return {c.id: c for c in result.commodities}


# -- deterministic two-commodity scenarios on the star -------------------------

def test_baseline_shares_and_misses_tight_deadline(star):
    demands = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
    result = run_simulation(star, demands, POLICY_BASELINE, seed=3)
    done = _by_id(result)
    assert done[0].status == EXPIRED
    assert done[0].remaining == 2    # served 1 per slot through slot 4
    assert done[1].status == COMPLETED
    assert done[1].completed_slot == 6
    assert result.metrics.success_ratio == pytest.approx(0.5)
    assert result.metrics.solver_calls == 2
    assert len(result.events) == 1


def test_ordered_serves_sequentially(star):
    demands = [_c(0, AB, 6), _c(1, AD, 6)]
    result = run_simulation(star, demands, POLICY_ORDERED, seed=3)
    done = _by_id(result)
    assert done[0].completed_slot == 3
    assert done[1].completed_slot == 6
    assert result.metrics.avg_completion_time == pytest.approx(4.5)
    assert result.metrics.success_ratio == 1.0   # vacuous: no deadlines
    assert [e["slot"] for e in result.events] == [1, 4]
    assert result.events[0]["priority"] == ["0:1"]
    assert result.events[1]["priority"] == ["0:3"]


def test_buffers_are_reconciled_only_when_the_plan_changes(star, monkeypatch):
    slots, now = [], []
    reconcile, active_set = engine.reconcile_buffers, engine.active_set

    def clock(work, slot):
        now.append(slot)
        return active_set(work, slot)

    def recording(state, table, rng):
        slots.append(now[-1])
        return reconcile(state, table, rng)

    monkeypatch.setattr(engine, "active_set", clock)
    monkeypatch.setattr(engine, "reconcile_buffers", recording)
    result = run_simulation(star, [_c(0, AB, 6), _c(1, AD, 6)], POLICY_ORDERED, seed=3)
    assert slots == [e["slot"] for e in result.events] == [1, 4]


def test_deadline_policy_meets_both(star):
    demands = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
    result = run_simulation(star, demands, POLICY_DEADLINE, seed=3)
    done = _by_id(result)
    assert done[0].status == COMPLETED and done[0].completed_slot == 3
    assert done[1].status == COMPLETED and done[1].completed_slot == 6
    assert result.metrics.success_ratio == 1.0
    assert result.metrics.avg_completion_time is None
    assert [e["slot"] for e in result.events] == [1, 4]


def test_runs_are_reproducible(star):
    demands = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
    a = run_simulation(star, demands, POLICY_DEADLINE, seed=9)
    b = run_simulation(star, demands, POLICY_DEADLINE, seed=9)
    ja, jb = a.metrics.to_json(), b.metrics.to_json()
    ja.pop("wall_ms")
    jb.pop("wall_ms")
    assert ja == jb
    assert [(c.status, c.remaining, c.completed_slot) for c in a.commodities] == [
        (c.status, c.remaining, c.completed_slot) for c in b.commodities
    ]


# -- mechanics ----------------------------------------------------------------

def test_metrics_json_key_order(star):
    result = run_simulation(star, [_c(0, AB, 2)], POLICY_BASELINE, seed=0)
    assert list(result.metrics.to_json()) == [
        "policy", "seed", "success_ratio", "avg_completion_time", "unfinished",
        "n_commodities", "solver_calls", "slots", "wall_ms",
    ]


def test_empty_workload_short_circuits(star):
    result = run_simulation(star, [], POLICY_ORDERED, seed=1)
    m = result.metrics
    assert m.slots == 0
    assert m.n_commodities == 0
    assert m.success_ratio == 1.0
    assert m.avg_completion_time is None
    assert m.unfinished == 0
    assert m.solver_calls == 0


def test_unreachable_pair_counts_unfinished():
    net = build_manual(
        [(0, 1.0), (1, 1.0), (4, 1.0)],
        [(0, 1, 2, 1.0)],
        [(0, 4)],
    )
    result = run_simulation(net, [_c(0, P(0, 4), 3)], POLICY_BASELINE, horizon_cap=40)
    assert result.metrics.slots == 40
    assert result.metrics.unfinished == 1
    assert result.metrics.avg_completion_time is None


def test_late_arrival_idles_then_solves(star):
    result = run_simulation(star, [_c(0, AB, 4, arrival=5)], POLICY_ORDERED, seed=2)
    assert result.events[0]["slot"] == 5
    done = _by_id(result)
    assert done[0].completed_slot == 6   # two ebits per slot once planned
    assert result.metrics.avg_completion_time == pytest.approx(2.0)
    assert result.metrics.slots == 6


def test_input_validation(star):
    with pytest.raises(ValidationError):
        run_simulation(star, [_c(0, AB, 1), _c(0, AD, 1)], POLICY_BASELINE)
    with pytest.raises(ValidationError):
        run_simulation(star, [_c(0, P(1, 3), 1)], POLICY_BASELINE)
    with pytest.raises(ValidationError):
        run_simulation(star, [], POLICY_BASELINE, horizon_cap=-1)
    with pytest.raises(ValidationError):
        run_simulation(star, [], POLICY_BASELINE, seed=-1)
    with pytest.raises(ValidationError):
        run_simulation(star, [], "ESDI-Z")


def test_a_slot_whose_flows_do_not_balance_raises_naming_the_slot(star, monkeypatch):
    rows = []
    run_simulation(star, [_c(0, AB, 6)], POLICY_BASELINE, trace=rows.append)
    first = next(row for row in rows if row["distributed"])
    real = engine.phase_distribute

    def under_reported(buffers, active):
        handed, finished = real(buffers, active)
        return handed - 1 if handed else handed, finished

    monkeypatch.setattr(engine, "phase_distribute", under_reported)
    with pytest.raises(ConservationError, match=rf"^slot {first['slot']}: generated "
                                                rf".* \+ handed {first['distributed'] - 1}$"):
        run_simulation(star, [_c(0, AB, 6)], POLICY_BASELINE)


def test_solver_calls_count_the_runs_backend_solves(star):
    inner = lp.get_backend()
    calls = []

    class CountingBackend:
        name = "counting"

        def solve(self, c, **kwargs):
            calls.append(1)
            return inner.solve(c, **kwargs)

    lp.set_backend(CountingBackend())
    try:
        demands = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
        result = run_simulation(star, demands, POLICY_DEADLINE, seed=3)
    finally:
        lp.set_backend(inner)
    assert calls
    assert result.metrics.solver_calls == len(calls)


def test_trace_hook_reports_each_slot(star):
    rows = []
    result = run_simulation(star, [_c(0, AB, 6)], POLICY_BASELINE, trace=rows.append)
    assert [r["slot"] for r in rows] == list(range(1, result.metrics.slots + 1))
    assert sum(r["distributed"] for r in rows) == 6
    assert rows[-1]["completed"] == [0]
    for r in rows:
        assert r["generated"] == (
            r["buffered"] - rows[rows.index(r) - 1]["buffered"] if rows.index(r) else r["buffered"]
        ) + r["dropped"] + 2 * r["swap_attempts"] - r["swap_successes"] + r["distributed"]


def test_mixed_deadlines_use_edf_distribution(star):
    # same pair at one ebit per slot; shortest-remaining would pick id 0,
    # earliest-deadline must pick id 1 and just meet slot 6
    demands = [_c(0, AB, 3), _c(1, AB, 6, deadline=6)]
    result = run_simulation(star, demands, POLICY_BASELINE, seed=4)
    done = _by_id(result)
    assert done[1].status == COMPLETED and done[1].completed_slot == 6
    assert done[0].status == COMPLETED and done[0].completed_slot == 9


def test_deadline_expiry_frees_capacity_for_resolve(star):
    # the prioritized commodity expires after one slot, forcing a re-plan
    # that shifts the hub to the remaining pair
    demands = [_c(0, AB, 4, deadline=1), _c(1, AD, 8)]
    result = run_simulation(star, demands, POLICY_ORDERED, seed=5)
    done = _by_id(result)
    assert done[0].status == EXPIRED and done[0].expired_slot == 2
    assert done[0].remaining == 2
    assert done[1].status == COMPLETED and done[1].completed_slot == 5
    assert result.metrics.success_ratio == 0.0
    assert [e["slot"] for e in result.events] == [1, 2]
    assert result.events[1]["priority"] == ["0:3"]


# -- conservation and stability on stochastic runs -----------------------------

def _random_case(seed):
    net = generate_waxman(
        8, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.85, q=0.85, seed=seed
    )
    net = sample_sd_pairs(net, 3, seed=seed + 77)
    cfg = WorkloadConfig(rate=0.8, mean_demand=6.0, min_demand=2, horizon=12)
    demands = generate_workload(cfg, net.sorted_sd, seed=seed + 200)
    return net, demands


def test_random_runs_hold_conservation_and_finish():
    for seed in range(4):
        net, demands = _random_case(seed)
        for policy in (POLICY_BASELINE, POLICY_ORDERED, POLICY_DEADLINE):
            result = run_simulation(
                net, demands, policy, seed=seed, horizon_cap=4000
            )
            m = result.metrics
            assert m.n_commodities == len(demands)
            terminal = sum(
                1 for c in result.commodities if c.status in (COMPLETED, EXPIRED)
            )
            assert terminal + m.unfinished == m.n_commodities


def test_buffer_age_knob_runs_clean():
    net, demands = _random_case(1)
    rows = []
    result = run_simulation(
        net, demands, POLICY_ORDERED, seed=1, horizon_cap=2000,
        config=ProtocolConfig(max_buffer_age=1), trace=rows.append,
    )
    assert result.metrics.n_commodities == len(demands)
    assert any(row["dropped"] > 0 for row in rows)


def _spy_after_each_slot(monkeypatch, check):
    """Call check(slot, state) after every slot's last phase."""
    slots = []
    distribute = engine.phase_distribute

    def spy(state, active):
        out = distribute(state, active)
        slots.append(len(slots) + 1)
        check(slots[-1], state)
        return out

    monkeypatch.setattr(engine, "phase_distribute", spy)
    return slots


@pytest.mark.parametrize("max_age", [None, 10**6])
def test_birth_slots_are_recorded_only_under_an_age_limit(monkeypatch, max_age):
    # without an age limit every ebit has one birth, so the ledger keeps
    # one cohort; a limit that never drops must still keep births apart
    net, demands = _random_case(1)
    cohorts = []
    slots = _spy_after_each_slot(monkeypatch, lambda _, state: cohorts.append(len(state.cohorts)))
    result = run_simulation(
        net, demands, POLICY_ORDERED, seed=1, horizon_cap=2000,
        config=ProtocolConfig(max_buffer_age=max_age),
    )
    assert len(slots) == result.metrics.slots
    assert set(cohorts) == {1} if max_age is None else max(cohorts) > 1


@pytest.mark.parametrize("max_age", [0, 2])
def test_age_limit_retires_every_overaged_ebit(monkeypatch, max_age):
    # a swap product inherits its older parent's birth and must join that
    # birth's cohort, so that expiry still finds it; the late arrival keeps
    # the first plan stocking buffers for 60 slots
    net, _ = _random_case(0)
    demands = [_c(i, sd, 2) for i, sd in enumerate(net.sorted_sd)]
    demands.append(_c(9, net.sorted_sd[0], 1, arrival=60))

    def check(slot, state):
        born = [birth for birth, _ in state.cohorts]
        assert born == sorted(set(born)), (slot, born)
        assert all(birth >= slot - max_age for birth in born), (slot, born)

    rows = []
    slots = _spy_after_each_slot(monkeypatch, check)
    run_simulation(
        net, demands, POLICY_BASELINE, seed=7, horizon_cap=200,
        config=ProtocolConfig(max_buffer_age=max_age), trace=rows.append,
    )
    assert len(slots) == 60
    assert sum(row["swap_successes"] for row in rows) > 0
    assert sum(row["dropped"] for row in rows) > 0


def _counted(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def _per_call_switch_batch(calls):
    """`protocol.switch_batch` as it was before routes held their splits:
    every batch over more than one target is split afresh, by the numpy
    reference `numpy_allocate`."""

    def switch_batch(state, route, counts, count, rng):
        targets, split = route
        if split is not None:
            calls["split"] += 1
        for i, n in zip(targets, (count,) if split is None else numpy_allocate(count, split.probs, rng)):
            state.total[i] += n
            counts[i] += n

    return switch_batch


@pytest.mark.parametrize("policy, seed, config, path, least", [
    # several cohorts and a second swap pass: products split by _pair_off
    (POLICY_BASELINE, 2, ProtocolConfig(max_buffer_age=3, cascade_depth=2), "_pair_off", 1),
    # several re-plans, each table bound in turn
    (POLICY_ORDERED, 1, ProtocolConfig(), "compile_plan", 4),
])
def test_bound_splits_match_a_per_call_split_over_whole_runs(monkeypatch, policy, seed, config, path,
                                                             least):
    net, demands = _random_case(seed)

    def run():
        rows = []
        result = run_simulation(net, demands, policy, seed=seed, horizon_cap=4000,
                                config=config, trace=rows.append)
        metrics = result.metrics.to_json()
        metrics.pop("wall_ms")
        return metrics, rows

    bound = run()
    calls = {"split": 0, "_pair_off": 0, "compile_plan": 0}
    for module, name in ((protocol, "_pair_off"), (engine, "compile_plan")):
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
    monkeypatch.setattr(protocol, "switch_batch", _per_call_switch_batch(calls))
    assert run() == bound
    assert calls["split"] > 0
    assert calls[path] >= least
