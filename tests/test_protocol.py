import numpy as np
import pytest

from conftest import same_state, star_net, two_hop_line
from entsched.mred import RateSolution, solve_max_total
from entsched.protocol import (
    DIST_EDF,
    DIST_SJF,
    BufferState,
    FifoCounter,
    PlanTable,
    ProtocolConfig,
    allocate_batch,
    compile_plan,
    expire_old_ebits,
    phase_distribute,
    phase_generate,
    phase_swap,
    reconcile_buffers,
    switch_batch,
    switch_probabilities,
)
from entsched.rng import SlotRng
from entsched.topology import ValidationError, build_manual, canonical_pair
from entsched.workload import Commodity

P = canonical_pair


def _rng(seed=0, slot=1, phase=0):
    return SlotRng(seed).stream(slot, phase)


def test_protocol_config_validation():
    with pytest.raises(ValidationError):
        ProtocolConfig(cascade_depth=0)
    with pytest.raises(ValidationError):
        ProtocolConfig(max_buffer_age=-1)
    assert ProtocolConfig().max_buffer_age is None


# -- buffer bookkeeping -------------------------------------------------------

def test_fifo_counter_merges_and_takes_oldest_first():
    c = FifoCounter()
    c.add(1, 2)
    c.add(1, 3)
    c.add(4, 1)
    assert c.total == 6
    assert list(c.batches) == [[1, 5], [4, 1]]
    assert c.take(4) == [(1, 4)]
    assert c.take(2) == [(1, 1), (4, 1)]
    assert c.total == 0
    with pytest.raises(ValueError):
        c.take(1)


def test_fifo_counter_drop_born_before():
    c = FifoCounter()
    c.add(1, 2)
    c.add(3, 2)
    c.add(5, 2)
    assert c.drop_born_before(4) == 4
    assert c.total == 2
    assert c.drop_born_before(4) == 0


def test_buffer_state_totals_and_prune():
    state = BufferState()
    state.parked[P(0, 1)].add(1, 2)
    state.staged[(P(0, 1), P(0, 2))].add(1, 3)
    state.ready[P(0, 2)].add(1, 1)
    assert state.total_ebits() == 6
    assert state.staged[(P(0, 1), P(0, 2))].total == 3
    assert state.ready[P(0, 2)].total == 1


# -- switching ----------------------------------------------------------------

def test_switch_probabilities_normalizes_over_outlets():
    # 0:1 is the left lane of the swap at 1 toward 0:2 and of the swap at 0 toward 1:3
    plan = compile_plan(star_net(), RateSolution(swaps={(P(0, 2), 1): 1.0, (P(1, 3), 0): 2.0},
                                                 g={}, eta={P(0, 1): 1.0}))
    targets, probs = switch_probabilities(plan, P(0, 1))
    assert targets == [(P(0, 1), P(0, 2)), (P(0, 1), P(1, 3)), None]
    assert probs == pytest.approx([0.25, 0.5, 0.25])
    assert switch_probabilities(plan, P(2, 3)) is None


def test_plan_table_swaps_require_both_lanes():
    net = build_manual([(0, 1.0), (1, 0.7), (2, 0.8), (3, 1.0)],
                       [(0, 2, 2, 1.0), (1, 2, 2, 1.0), (3, 2, 2, 1.0)], [(0, 1), (0, 3)])
    table = compile_plan(net, RateSolution(
        swaps={(P(0, 3), 2): 0.5, (P(0, 2), 1): 1.0, (P(1, 3), 2): -1e-8}, g={}, eta={}))
    # sorted by (produced, node), with the swap node's q; only positive rates execute
    assert table.swaps == (
        (P(0, 2), 0.7, (P(0, 1), P(0, 2)), (P(1, 2), P(0, 2))),
        (P(0, 3), 0.8, (P(0, 2), P(0, 3)), (P(2, 3), P(0, 3))),
    )
    assert table.live == {lane for swap in table.swaps for lane in swap[2:]}


def test_switch_probabilities_pure_surplus():
    plan = compile_plan(star_net(), RateSolution(swaps={}, g={}, eta={P(0, 1): 2.0}))
    targets, probs = switch_probabilities(plan, P(0, 1))
    assert targets == [None]
    assert probs == [1.0]


def test_allocate_batch_integral_shares_are_deterministic():
    for _ in range(5):
        assert allocate_batch(4, [0.5, 0.5], _rng()) == [2, 2]
        assert allocate_batch(10, [0.3, 0.7], _rng()) == [3, 7]
        assert allocate_batch(3, [1.0], _rng()) == [3]


def test_allocate_batch_conserves_count_and_stays_near_share():
    rng = _rng(seed=9)
    for trial in range(200):
        k = int(rng.integers(1, 5))
        raw = rng.random(k) + 1e-3
        probs = list(raw / raw.sum())
        n = int(rng.integers(0, 40))
        counts = allocate_batch(n, probs, rng)
        assert sum(counts) == n
        for share, got in zip((n * p for p in probs), counts):
            assert np.floor(share) - 1e-9 <= got <= np.ceil(share) + 1e-9


def test_allocate_batch_is_unbiased():
    rng = _rng(seed=5)
    total = np.zeros(2)
    trials = 4000
    for _ in range(trials):
        total += allocate_batch(10, [1 / 3, 2 / 3], rng)
    assert total[0] / trials == pytest.approx(10 / 3, abs=0.05)


def _numpy_allocate(count, probs, rng):
    """The numpy formulation `allocate_batch` replaced, kept as its reference."""
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


def test_allocate_batch_matches_numpy_reference():
    # rows of 8 or more targets are where numpy's sum is pairwise, not sequential
    draw = _rng(seed=21)
    rows = [(4, [0.5, 0.25]), (3, [0.5, 0.5, 0.0]), (7, [1.0])]
    for _ in range(3000):
        weights = [float(w) for w in draw.random(int(draw.integers(1, 21)))]
        denom = sum(weights)
        rows.append((int(draw.integers(0, 60)), [w / denom for w in weights]))
    for i, (count, probs) in enumerate(rows):
        rng, ref = _rng(seed=i), _rng(seed=i)
        assert allocate_batch(count, probs, rng) == _numpy_allocate(count, probs, ref), (count, probs)
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)


def test_switch_batch_parks_without_outlet():
    state = BufferState()
    switch_batch(state, PlanTable(), P(0, 1), birth=2, count=3, rng=_rng())
    assert state.parked[P(0, 1)].total == 3


# -- expiry and reconciliation ------------------------------------------------

def test_expire_old_ebits_cutoff():
    state = BufferState()
    state.ready[P(0, 1)].add(3, 2)
    state.staged[(P(0, 1), P(0, 2))].add(1, 1)
    assert expire_old_ebits(state, slot=5, max_age=2) == 1
    assert expire_old_ebits(state, slot=6, max_age=2) == 2
    assert state.total_ebits() == 0
    assert expire_old_ebits(state, slot=9, max_age=None) == 0


def test_reconcile_drains_stale_lanes_and_retries_parked():
    state = BufferState()
    lane = (P(0, 1), P(0, 2))
    state.staged[lane].add(1, 4)
    reconcile_buffers(state, PlanTable(), slot=2, rng=_rng(slot=2))
    assert all(c.total == 0 for c in state.staged.values())
    assert state.parked[P(0, 1)].total == 4

    plan = compile_plan(star_net(), RateSolution(swaps={(P(0, 2), 1): 1.0}, g={}, eta={}))
    reconcile_buffers(state, plan, slot=3, rng=_rng(slot=3))
    assert all(c.total == 0 for c in state.parked.values())
    assert state.staged[lane].total == 4
    # births survived the round trip
    assert list(state.staged[lane].batches) == [[1, 4]]


def _pools(state):
    return [{key: [list(b) for b in c.batches] for key, c in pool.items()}
            for pool in (state.parked, state.staged, state.ready)]


def test_reconcile_again_on_the_same_table_moves_and_draws_nothing():
    state = BufferState()
    state.staged[(P(1, 3), P(0, 3))].add(1, 2)   # stale lane; 1:3 has no outlet
    state.staged[(P(0, 2), P(0, 1))].add(1, 1)   # live lane
    state.parked[P(0, 2)].add(1, 2)              # regains an outlet split over two lanes
    table = compile_plan(star_net(), RateSolution(
        swaps={(P(0, 1), 2): 1.0, (P(0, 3), 2): 1.0}, g={}, eta={}))
    rng = _rng(slot=3)
    reconcile_buffers(state, table, slot=3, rng=rng)
    assert state.parked[P(1, 3)].total == 2
    assert state.parked[P(0, 2)].total == 0
    assert state.staged[(P(0, 2), P(0, 1))].total == 2
    assert state.staged[(P(0, 2), P(0, 3))].total == 1

    pools, draws = _pools(state), rng.bit_generator.state
    reconcile_buffers(state, table, slot=4, rng=rng)
    assert _pools(state) == pools
    assert same_state(rng.bit_generator.state, draws)


def test_reconcile_keeps_live_lanes_untouched():
    state = BufferState()
    lane = (P(0, 1), P(0, 2))
    state.staged[lane].add(1, 2)
    plan = compile_plan(star_net(), RateSolution(swaps={(P(0, 2), 1): 0.5}, g={}, eta={}))
    reconcile_buffers(state, plan, slot=2, rng=_rng(slot=2))
    assert state.staged[lane].total == 2


# -- generation ---------------------------------------------------------------

def test_phase_generate_integral_usage_is_exact():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 2, 1.0)], [(0, 1)])
    plan = compile_plan(net, RateSolution(swaps={}, g={P(0, 1): 1.0}, eta={P(0, 1): 2.0}))
    state = BufferState()
    made = phase_generate(plan, state, birth=1, rng=_rng(phase=1))
    assert made == 2
    assert state.ready[P(0, 1)].total == 2


def test_phase_generate_fractional_usage_matches_expectation():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 0.8)], [(0, 1)])
    plan = compile_plan(net, RateSolution(swaps={}, g={P(0, 1): 0.5}, eta={P(0, 1): 0.4}))
    state = BufferState()
    slots = 20000
    total = 0
    srng = SlotRng(11)
    for slot in range(1, slots + 1):
        total += phase_generate(plan, state, slot, srng.stream(slot, 1))
    assert total / slots == pytest.approx(0.4, abs=0.02)
    assert state.ready[P(0, 1)].total == total


def test_idle_table_leaves_every_phase_a_noop():
    # the table a run executes before its first plan
    idle = PlanTable()
    assert switch_probabilities(idle, P(0, 1)) is None
    state = BufferState()
    state.parked[P(0, 1)].add(1, 2)
    state.ready[P(0, 2)].add(1, 1)
    reconcile_buffers(state, idle, slot=2, rng=_rng(slot=2))
    assert phase_generate(idle, state, 2, _rng(slot=2, phase=1)) == 0
    assert phase_swap(idle, state, 2, _rng(slot=2, phase=2)) == (0, 0)
    assert state.parked[P(0, 1)].total == 2
    assert state.ready[P(0, 2)].total == 1
    assert state.total_ebits() == 3


# -- swapping -----------------------------------------------------------------

def _two_hop_plan(net, eta=0.9):
    return compile_plan(net, RateSolution(
        swaps={(P(0, 2), 1): 1.0},
        g={P(0, 1): 1.0, P(1, 2): 1.0},
        eta={P(0, 2): eta},
    ))


def test_phase_swap_consumes_both_lanes():
    net = two_hop_line(q=1.0)
    plan = _two_hop_plan(net)
    state = BufferState()
    state.staged[(P(0, 1), P(0, 2))].add(1, 3)
    state.staged[(P(1, 2), P(0, 2))].add(1, 2)
    attempts, wins = phase_swap(plan, state, slot=2, rng=_rng(slot=2, phase=2))
    assert (attempts, wins) == (2, 2)
    assert state.ready[P(0, 2)].total == 2
    assert state.staged[(P(0, 1), P(0, 2))].total == 1
    assert state.staged[(P(1, 2), P(0, 2))].total == 0


def test_phase_swap_success_rate_matches_q():
    net = two_hop_line(q=0.7)
    plan = _two_hop_plan(net)
    srng = SlotRng(3)
    attempts = wins = 0
    for slot in range(1, 4001):
        state = BufferState()
        state.staged[(P(0, 1), P(0, 2))].add(slot, 5)
        state.staged[(P(1, 2), P(0, 2))].add(slot, 5)
        a, w = phase_swap(plan, state, slot, srng.stream(slot, 2))
        attempts += a
        wins += w
    assert attempts == 20000
    assert wins / attempts == pytest.approx(0.7, abs=0.02)


def test_phase_swap_product_inherits_older_birth():
    net = two_hop_line(q=1.0)
    plan = _two_hop_plan(net)
    state = BufferState()
    state.staged[(P(0, 1), P(0, 2))].add(1, 1)
    state.staged[(P(1, 2), P(0, 2))].add(5, 1)
    phase_swap(plan, state, slot=6, rng=_rng(slot=6, phase=2))
    assert list(state.ready[P(0, 2)].batches) == [[1, 1]]


def _three_hop_plan(net):
    return compile_plan(net, RateSolution(
        swaps={(P(0, 2), 1): 1.0, (P(0, 3), 2): 1.0},
        g={P(0, 1): 1.0, P(1, 2): 1.0, P(2, 3): 1.0},
        eta={P(0, 3): 0.8},
    ))


def test_phase_swap_cascade_depth_controls_same_slot_chaining():
    from conftest import three_hop_line

    net = three_hop_line(c=1, p=1.0, q=1.0)
    for depth, want_ready in ((1, 0), (2, 1)):
        state = BufferState()
        state.staged[(P(0, 1), P(0, 2))].add(1, 1)
        state.staged[(P(1, 2), P(0, 2))].add(1, 1)
        state.staged[(P(2, 3), P(0, 3))].add(1, 1)
        phase_swap(
            _three_hop_plan(net), state, slot=2,
            rng=_rng(slot=2, phase=2),
            config=ProtocolConfig(cascade_depth=depth),
        )
        assert state.ready[P(0, 3)].total == want_ready
        if depth == 1:
            assert state.staged[(P(0, 2), P(0, 3))].total == 1


# -- distribution -------------------------------------------------------------

def _commodity(cid, sd, demand, arrival=1, deadline=None, remaining=None):
    c = Commodity(id=cid, sd=sd, demand=demand, arrival=arrival, deadline=deadline)
    if remaining is not None:
        c.remaining = remaining
    return c


def test_distribute_shortest_remaining_first():
    state = BufferState()
    state.ready[P(0, 1)].add(1, 4)
    a = _commodity(0, P(0, 1), 6, remaining=5)
    b = _commodity(1, P(0, 1), 6, remaining=3)
    handed, done = phase_distribute(state, [a, b], DIST_SJF)
    assert handed == 4
    assert done == [b]
    assert b.remaining == 0 and a.remaining == 4
    assert state.ready[P(0, 1)].total == 0


def test_distribute_earliest_deadline_first():
    state = BufferState()
    state.ready[P(0, 1)].add(1, 2)
    late = _commodity(0, P(0, 1), 2, deadline=9)
    soon = _commodity(1, P(0, 1), 2, deadline=4)
    never = _commodity(2, P(0, 1), 2)
    handed, done = phase_distribute(state, [late, soon, never], DIST_EDF)
    assert handed == 2
    assert done == [soon]
    assert late.remaining == 2 and never.remaining == 2


def test_distribute_leftover_stays_ready():
    state = BufferState()
    state.ready[P(0, 1)].add(1, 5)
    c = _commodity(0, P(0, 1), 2)
    handed, done = phase_distribute(state, [c], DIST_SJF)
    assert handed == 2 and done == [c]
    assert state.ready[P(0, 1)].total == 3


def test_distribute_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        phase_distribute(BufferState(), [], "fifo")


# -- conservation across phases ----------------------------------------------

def test_phases_conserve_ebits_on_a_solved_plan():
    net = two_hop_line(c1=3, p1=0.8, c2=2, p2=0.9, q=0.85)
    plan = compile_plan(net, solve_max_total(net))
    state = BufferState()
    srng = SlotRng(17)
    sink = _commodity(0, P(0, 2), 10 ** 9)
    for slot in range(1, 301):
        before = state.total_ebits()
        reconcile_buffers(state, plan, slot, srng.stream(slot, 0))
        assert state.total_ebits() == before
        made = phase_generate(plan, state, slot, srng.stream(slot, 1))
        attempts, wins = phase_swap(plan, state, slot, srng.stream(slot, 2))
        handed, _ = phase_distribute(state, [sink], DIST_SJF)
        after = state.total_ebits()
        assert made == (after - before) + 2 * attempts - wins + handed
