import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    numpy_allocate,
    reference_generate,
    reference_swap,
    same_state,
    star_net,
    three_hop_line,
    two_hop_line,
)
from entsched.mred import RateSolution, build_mred, solve_max_total
from entsched.protocol import (
    PHASE_GENERATE,
    PHASE_SWAP,
    BufferState,
    ConservationError,
    PlanTable,
    ProtocolConfig,
    Split,
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


def _put(state, pool, key, birth, n):
    """Buffer `n` ebits of `key` in `pool`, born at `birth`."""
    i = state.index(pool, key)
    state.cohort(birth)[i] += n
    state.total[i] += n


def _held(state, pool, key):
    return state.total[pool[key]] if key in pool else 0


def _births(state, pool, key):
    """The (birth, count) cohorts that hold ebits of `key`, oldest first."""
    i = pool[key]
    return [(birth, counts[i]) for birth, counts in state.cohorts if counts[i]]


def test_protocol_config_validation():
    with pytest.raises(ValidationError):
        ProtocolConfig(cascade_depth=0)
    with pytest.raises(ValidationError):
        ProtocolConfig(max_buffer_age=-1)
    assert ProtocolConfig().max_buffer_age is None


def test_protocol_config_refuses_a_fractional_cascade_depth():
    # range() would refuse it only once a slot's swap phase ran
    with pytest.raises(ValidationError, match=r"^cascade_depth must be a whole number, got 1\.5$"):
        ProtocolConfig(cascade_depth=1.5)


# -- buffer bookkeeping -------------------------------------------------------

def test_ledger_merges_cohorts_and_takes_oldest_first():
    state = BufferState()
    _put(state, state.ready, P(0, 1), 1, 2)
    _put(state, state.ready, P(0, 1), 1, 3)
    _put(state, state.ready, P(0, 1), 4, 1)
    i = state.ready[P(0, 1)]
    assert state.total[i] == 6
    assert _births(state, state.ready, P(0, 1)) == [(1, 5), (4, 1)]
    state.take(i, 4)
    assert _births(state, state.ready, P(0, 1)) == [(1, 1), (4, 1)]
    state.take(i, 2)
    assert state.total[i] == 0
    assert _births(state, state.ready, P(0, 1)) == []
    with pytest.raises(ConservationError, match="take"):
        state.take(i, 1)


def test_ledger_keeps_cohorts_in_birth_order():
    # births only open new cohorts at the young end; a product of older
    # parents is added to the parent's cohort, never appended behind it
    state = BufferState()
    _put(state, state.ready, P(0, 1), 2, 1)
    _put(state, state.staged, (P(0, 1), P(0, 2)), 3, 1)
    _put(state, state.ready, P(0, 1), 5, 1)
    assert [birth for birth, _ in state.cohorts] == [2, 3, 5]
    with pytest.raises(ConservationError, match="birth 4 is older"):
        state.cohort(4)
    state.take(state.ready[P(0, 1)], 1)
    assert _births(state, state.ready, P(0, 1)) == [(5, 1)]


def test_expire_drops_cohorts_born_before_the_cutoff():
    state = BufferState()
    for birth in (1, 3, 5):
        _put(state, state.parked, P(0, 1), birth, 2)
    assert expire_old_ebits(state, slot=6, max_age=2) == 4
    assert state.total[state.parked[P(0, 1)]] == 2
    assert [birth for birth, _ in state.cohorts] == [5]
    assert expire_old_ebits(state, slot=6, max_age=2) == 0


def test_expire_drops_leading_empty_cohorts():
    state = BufferState()
    _put(state, state.ready, P(0, 1), 1, 1)
    _put(state, state.ready, P(0, 1), 2, 1)
    state.take(state.ready[P(0, 1)], 1)
    assert expire_old_ebits(state, slot=2, max_age=5) == 0
    assert [birth for birth, _ in state.cohorts] == [2]


def test_buffer_state_totals_and_prune():
    state = BufferState()
    _put(state, state.parked, P(0, 1), 1, 2)
    _put(state, state.staged, (P(0, 1), P(0, 2)), 1, 3)
    _put(state, state.ready, P(0, 2), 1, 1)
    assert state.total_ebits() == 6
    assert _held(state, state.staged, (P(0, 1), P(0, 2))) == 3
    assert _held(state, state.ready, P(0, 2)) == 1
    # the same pair keeps separate keys in the parked and ready pools
    assert _held(state, state.ready, P(0, 1)) == 0
    assert len(state.total) == 3 and all(len(c) == 3 for _, c in state.cohorts)


# -- switching ----------------------------------------------------------------

def test_switch_probabilities_normalizes_over_outlets():
    # 0:1 is the left lane of the swap at 1 toward 0:2 and of the swap at 0 toward 1:3
    state = BufferState()
    plan = compile_plan(star_net(), RateSolution(swaps={(P(0, 2), 1): 1.0, (P(1, 3), 0): 2.0},
                                                 g={}, eta={P(0, 1): 1.0}), state)
    targets, split = switch_probabilities(plan, P(0, 1))
    assert targets == (state.staged[(P(0, 1), P(0, 2))], state.staged[(P(0, 1), P(1, 3))],
                       state.ready[P(0, 1)])
    assert split.probs == pytest.approx([0.25, 0.5, 0.25])
    assert switch_probabilities(plan, P(2, 3)) is None


def test_plan_table_swaps_require_both_lanes():
    net = build_manual([(0, 1.0), (1, 0.7), (2, 0.8), (3, 1.0)],
                       [(0, 2, 2, 1.0), (1, 2, 2, 1.0), (3, 2, 2, 1.0)], [(0, 1), (0, 3)])
    state = BufferState()
    table = compile_plan(net, RateSolution(
        swaps={(P(0, 3), 2): 0.5, (P(0, 2), 1): 1.0, (P(1, 3), 2): 0.25}, g={}, eta={}), state)
    staged = state.staged
    # sorted by (produced, node), with the swap node's q; every swap of the plan runs
    assert table.swaps == (
        (0.7, staged[(P(0, 1), P(0, 2))], staged[(P(1, 2), P(0, 2))],
         ((staged[(P(0, 2), P(0, 3))],), None)),
        (0.8, staged[(P(0, 2), P(0, 3))], staged[(P(2, 3), P(0, 3))],
         ((state.parked[P(0, 3)],), None)),
        (0.8, staged[(P(1, 2), P(1, 3))], staged[(P(2, 3), P(1, 3))],
         ((state.parked[P(1, 3)],), None)),
    )
    # each lane a row feeds is one a swap drains
    assert table.live == {i for swap in table.swaps for i in swap[1:3]} == set(staged.values())


def test_switch_probabilities_pure_surplus():
    # the ready pool is the one target, so it takes every batch without a split
    state = BufferState()
    plan = compile_plan(star_net(), RateSolution(swaps={}, g={}, eta={P(0, 1): 2.0}), state)
    assert switch_probabilities(plan, P(0, 1)) == ((state.ready[P(0, 1)],), None)


def _route(state, probs):
    """A route of pair 0:1 on `state` over `probs`, one staged lane per
    entry, in the form `compile_plan` gives a row, and those lanes."""
    lanes = [(P(0, 1), P(0, k + 2)) for k in range(len(probs))]
    targets = tuple(state.index(state.staged, lane) for lane in lanes)
    return (targets, Split(probs) if len(targets) > 1 else None), lanes


def _switched(count, probs, rng):
    """The split `switch_batch` makes of `count` ebits over `probs`, along
    a fresh route."""
    state = BufferState()
    route, lanes = _route(state, probs)
    switch_batch(state, route, state.cohort(0), count, rng)
    return [_held(state, state.staged, lane) for lane in lanes]


def test_allocate_batch_integral_shares_are_deterministic():
    for _ in range(5):
        assert _switched(4, [0.5, 0.5], _rng()) == [2, 2]
        assert _switched(10, [0.3, 0.7], _rng()) == [3, 7]
        assert _switched(3, [1.0], _rng()) == [3]


def test_allocate_batch_conserves_count_and_stays_near_share():
    rng = _rng(seed=9)
    for trial in range(200):
        k = int(rng.integers(1, 5))
        raw = rng.random(k) + 1e-3
        probs = list(raw / raw.sum())
        n = int(rng.integers(0, 40))
        counts = _switched(n, probs, rng)
        assert sum(counts) == n
        for share, got in zip((n * p for p in probs), counts):
            assert np.floor(share) - 1e-9 <= got <= np.ceil(share) + 1e-9


def test_allocate_batch_is_unbiased():
    rng = _rng(seed=5)
    total = np.zeros(2)
    trials = 4000
    for _ in range(trials):
        total += _switched(10, [1 / 3, 2 / 3], rng)
    assert total[0] / trials == pytest.approx(10 / 3, abs=0.05)


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
        assert _switched(count, probs, rng) == numpy_allocate(count, probs, ref), (count, probs)
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)


def test_switch_batch_parks_without_outlet():
    state = BufferState()
    # the plan produces 0:1 and gives it no outlet
    table = compile_plan(star_net(), RateSolution(swaps={(P(0, 1), 2): 1.0}, g={}, eta={}), state)
    route = table.swaps[0][3]
    assert switch_probabilities(table, P(0, 1)) is None
    assert route == ((state.parked[P(0, 1)],), None)
    switch_batch(state, route, state.cohort(2), count=3, rng=_rng())
    assert _held(state, state.parked, P(0, 1)) == 3
    assert _births(state, state.parked, P(0, 1)) == [(2, 3)]


def test_compile_plan_resolves_the_table_to_ledger_indices():
    state = BufferState()
    table = compile_plan(star_net(), RateSolution(
        swaps={(P(0, 1), 2): 1.0, (P(0, 3), 2): 3.0}, g={P(1, 2): 0.5}, eta={P(0, 1): 1.0}), state)
    staged = state.staged
    targets, split = table.rows[P(0, 2)]
    assert targets == (staged[(P(0, 2), P(0, 1))], staged[(P(0, 2), P(0, 3))])
    assert split.probs == pytest.approx([0.25, 0.75])
    # the split fills its memo by batch size, as batches arrive
    assert split == {}
    assert split[4] == ([(0, 1), (1, 3)], 0, [], 0.0) and list(split) == [4]
    # a one-target row and an unrouted pair take every batch without a split
    assert table.rows[P(1, 2)] == ((staged[(P(1, 2), P(0, 1))],), None)
    assert table.rows[P(0, 1)] == ((state.ready[P(0, 1)],), None)
    assert P(0, 3) not in table.rows
    # per link (whole attempts, chance of one more, p, route); one route per pair
    assert table.links == ((1, 0.0, 1.0, table.rows[P(1, 2)]),)
    assert table.links[0][3] is table.rows[P(1, 2)]
    # per swap (q, left lane, right lane, route of the produced pair)
    assert table.swaps == (
        (1.0, staged[(P(0, 2), P(0, 1))], staged[(P(1, 2), P(0, 1))], table.rows[P(0, 1)]),
        (1.0, staged[(P(0, 2), P(0, 3))], staged[(P(2, 3), P(0, 3))], ((state.parked[P(0, 3)],), None)),
    )
    assert table.live == set(staged.values())
    assert len(state.total) == len(state.parked) + len(state.staged) + len(state.ready)


def test_compile_plan_feeds_rows_only_from_swaps_it_runs():
    # a rate below zero, as a share, once gave row 0:2 the probabilities
    # [1.000002, -2e-06] and routed ebits to the lane of a swap the table
    # did not run; `extract` now clips it to zero, so the plan it makes
    # holds no such rate and the table runs every swap of the plan
    net = star_net()
    m = build_mred(net)
    nodes = net.nodes
    col = {(P(nodes[m.pair_lo[sp]], nodes[m.pair_hi[sp]]), nodes[k]): j
           for j, (sp, k) in enumerate(zip(m.swap_pair, m.swap_node))}
    x = np.zeros(m.ncols)
    x[col[(P(0, 1), 2)]], x[col[(P(0, 3), 2)]] = 1.0, -2e-6
    for lk, g in ((P(0, 2), 1.0), (P(1, 2), 0.5), (P(2, 3), 0.5)):
        x[m.g_col[lk]] = g
    x[m.eta_col[P(0, 1)]] = 1.0
    plan = m.extract(x, ())
    assert plan.swaps == {(P(0, 1), 2): 1.0}
    state = BufferState()
    table = compile_plan(net, plan, state)
    assert len(table.swaps) == len(plan.swaps)
    lanes = set(state.staged.values())
    for targets, split in table.rows.values():
        probs = [1.0] if split is None else split.probs
        assert min(probs) >= 0.0 and sum(probs) == pytest.approx(1.0, abs=1e-12), probs
        assert {i for i in targets if i in lanes} <= table.live, targets


@seed(0xac1994f0b07e7e3535063038a39cb280d89ad4473445f2c33a04e8b4a0bef5b3a381dca28221a281e8c1b36f3287aa5e)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 1.0, 2.0, 7.0]),
                     min_size=1, max_size=20).filter(lambda w: sum(w) > 0),
    counts=st.lists(st.integers(0, 60), min_size=1, max_size=20),
    seed=st.integers(0, 2 ** 16),
)
def test_bound_route_splits_batches_as_the_numpy_reference(weights, counts, seed):
    # zero weights are drawn often; every count comes twice, so the second
    # batch of each size reads the memo
    probs = [w / sum(weights) for w in weights]
    state = BufferState()
    route, lanes = _route(state, probs)
    keys = [state.staged[lane] for lane in lanes]
    rng, ref = _rng(seed=seed), _rng(seed=seed)
    for count in counts + counts:
        before = [state.total[i] for i in keys]
        switch_batch(state, route, state.cohort(0), count, rng)
        got = [state.total[i] - b for i, b in zip(keys, before)]
        assert got == numpy_allocate(count, probs, ref)
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)


def test_a_newly_bound_table_splits_by_its_own_rows():
    # a memo keyed by id() of a freed row could serve table B with table A's
    # split; the split lives on the table's route, so B's batches follow B
    net = build_manual([(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
                       [(0, 2, 4, 1.0), (1, 2, 2, 1.0), (3, 2, 2, 1.0)], [(0, 1), (0, 3)])
    lanes = [(P(0, 2), P(0, 1)), (P(0, 2), P(0, 3))]

    def table(w1, w3):
        return compile_plan(net, RateSolution(
            swaps={(P(0, 1), 2): w1, (P(0, 3), 2): w3}, g={P(0, 2): 1.0}, eta={}), state)

    def slot(tab, n):
        before = state.total_ebits()
        reconcile_buffers(state, tab, _rng(slot=n, phase=0))
        made = phase_generate(tab, state, 0, _rng(slot=n, phase=1))
        attempts, wins = phase_swap(tab, state, _rng(slot=n, phase=2))
        assert made == (state.total_ebits() - before) + 2 * attempts - wins
        return [_held(state, state.staged, lane) for lane in lanes]

    state = BufferState()
    a = table(1.0, 3.0)
    assert slot(a, 1) == [1, 3]
    freed = weakref.ref(a)
    # the ledger keeps no plan: A and its routes go as soon as the caller drops A
    del a
    gc.collect()
    assert freed() is None
    assert slot(table(3.0, 1.0), 2) == [4, 4]


# -- expiry and reconciliation ------------------------------------------------

def test_expire_old_ebits_cutoff():
    state = BufferState()
    _put(state, state.staged, (P(0, 1), P(0, 2)), 1, 1)
    _put(state, state.ready, P(0, 1), 3, 2)
    assert expire_old_ebits(state, slot=5, max_age=2) == 1
    assert expire_old_ebits(state, slot=6, max_age=2) == 2
    assert state.total_ebits() == 0
    assert expire_old_ebits(state, slot=9, max_age=None) == 0


def test_reconcile_drains_stale_lanes_and_retries_parked():
    state = BufferState()
    lane = (P(0, 1), P(0, 2))
    _put(state, state.staged, lane, 1, 4)
    reconcile_buffers(state, PlanTable(), rng=_rng(slot=2))
    assert all(state.total[i] == 0 for i in state.staged.values())
    assert _held(state, state.parked, P(0, 1)) == 4

    plan = compile_plan(star_net(), RateSolution(swaps={(P(0, 2), 1): 1.0}, g={}, eta={}), state)
    reconcile_buffers(state, plan, rng=_rng(slot=3))
    assert all(state.total[i] == 0 for i in state.parked.values())
    assert _held(state, state.staged, lane) == 4
    # births survived the round trip
    assert _births(state, state.staged, lane) == [(1, 4)]


def _pools(state):
    return ([dict(pool) for pool in (state.parked, state.staged, state.ready)],
            list(state.total), [(birth, list(counts)) for birth, counts in state.cohorts])


def test_reconcile_again_on_the_same_table_moves_and_draws_nothing():
    state = BufferState()
    _put(state, state.staged, (P(1, 3), P(0, 3)), 1, 2)   # stale lane; 1:3 has no outlet
    _put(state, state.staged, (P(0, 2), P(0, 1)), 1, 1)   # live lane
    _put(state, state.parked, P(0, 2), 1, 2)              # regains an outlet split over two lanes
    table = compile_plan(star_net(), RateSolution(
        swaps={(P(0, 1), 2): 1.0, (P(0, 3), 2): 1.0}, g={}, eta={}), state)
    rng = _rng(slot=3)
    reconcile_buffers(state, table, rng=rng)
    assert _held(state, state.parked, P(1, 3)) == 2
    assert _held(state, state.parked, P(0, 2)) == 0
    assert _held(state, state.staged, (P(0, 2), P(0, 1))) == 2
    assert _held(state, state.staged, (P(0, 2), P(0, 3))) == 1

    pools, draws = _pools(state), rng.bit_generator.state
    reconcile_buffers(state, table, rng=rng)
    assert _pools(state) == pools
    assert same_state(rng.bit_generator.state, draws)


def test_reconcile_keeps_live_lanes_untouched():
    state = BufferState()
    lane = (P(0, 1), P(0, 2))
    _put(state, state.staged, lane, 1, 2)
    plan = compile_plan(star_net(), RateSolution(swaps={(P(0, 2), 1): 0.5}, g={}, eta={}), state)
    reconcile_buffers(state, plan, rng=_rng(slot=2))
    assert _held(state, state.staged, lane) == 2


# -- generation ---------------------------------------------------------------

def test_phase_generate_integral_usage_is_exact():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 2, 1.0)], [(0, 1)])
    state = BufferState()
    plan = compile_plan(net, RateSolution(swaps={}, g={P(0, 1): 1.0}, eta={P(0, 1): 2.0}), state)
    made = phase_generate(plan, state, birth=1, rng=_rng(phase=1))
    assert made == 2
    assert _held(state, state.ready, P(0, 1)) == 2


def test_phase_generate_fractional_usage_matches_expectation():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 0.8)], [(0, 1)])
    state = BufferState()
    plan = compile_plan(net, RateSolution(swaps={}, g={P(0, 1): 0.5}, eta={P(0, 1): 0.4}), state)
    slots = 20000
    total = 0
    srng = SlotRng(11)
    for slot in range(1, slots + 1):
        total += phase_generate(plan, state, slot, srng.stream(slot, 1))
    assert total / slots == pytest.approx(0.4, abs=0.02)
    assert _held(state, state.ready, P(0, 1)) == total


def test_idle_table_leaves_every_phase_a_noop():
    # the table a run executes before its first plan
    idle = PlanTable()
    assert switch_probabilities(idle, P(0, 1)) is None
    state = BufferState()
    _put(state, state.parked, P(0, 1), 1, 2)
    _put(state, state.ready, P(0, 2), 1, 1)
    reconcile_buffers(state, idle, rng=_rng(slot=2))
    assert phase_generate(idle, state, 2, _rng(slot=2, phase=1)) == 0
    assert phase_swap(idle, state, _rng(slot=2, phase=2)) == (0, 0)
    assert _held(state, state.parked, P(0, 1)) == 2
    assert _held(state, state.ready, P(0, 2)) == 1
    assert state.total_ebits() == 3


# -- swapping -----------------------------------------------------------------

def _two_hop_plan(net, state, eta=0.9):
    return compile_plan(net, RateSolution(
        swaps={(P(0, 2), 1): 1.0},
        g={P(0, 1): 1.0, P(1, 2): 1.0},
        eta={P(0, 2): eta},
    ), state)


def test_phase_swap_consumes_both_lanes():
    net = two_hop_line(q=1.0)
    state = BufferState()
    plan = _two_hop_plan(net, state)
    _put(state, state.staged, (P(0, 1), P(0, 2)), 1, 3)
    _put(state, state.staged, (P(1, 2), P(0, 2)), 1, 2)
    attempts, wins = phase_swap(plan, state, rng=_rng(slot=2, phase=2))
    assert (attempts, wins) == (2, 2)
    assert _held(state, state.ready, P(0, 2)) == 2
    assert _held(state, state.staged, (P(0, 1), P(0, 2))) == 1
    assert _held(state, state.staged, (P(1, 2), P(0, 2))) == 0


def test_phase_swap_success_rate_matches_q():
    net = two_hop_line(q=0.7)
    srng = SlotRng(3)
    attempts = wins = 0
    for slot in range(1, 4001):
        state = BufferState()
        plan = _two_hop_plan(net, state)
        _put(state, state.staged, (P(0, 1), P(0, 2)), slot, 5)
        _put(state, state.staged, (P(1, 2), P(0, 2)), slot, 5)
        a, w = phase_swap(plan, state, srng.stream(slot, 2))
        attempts += a
        wins += w
    assert attempts == 20000
    assert wins / attempts == pytest.approx(0.7, abs=0.02)


def test_phase_swap_product_inherits_older_birth():
    net = two_hop_line(q=1.0)
    state = BufferState()
    plan = _two_hop_plan(net, state)
    _put(state, state.staged, (P(0, 1), P(0, 2)), 1, 1)
    _put(state, state.staged, (P(1, 2), P(0, 2)), 5, 1)
    phase_swap(plan, state, rng=_rng(slot=6, phase=2))
    assert _births(state, state.ready, P(0, 2)) == [(1, 1)]


def _three_hop_plan(net, state):
    return compile_plan(net, RateSolution(
        swaps={(P(0, 2), 1): 1.0, (P(0, 3), 2): 1.0},
        g={P(0, 1): 1.0, P(1, 2): 1.0, P(2, 3): 1.0},
        eta={P(0, 3): 0.8},
    ), state)


def test_phase_swap_cascade_depth_controls_same_slot_chaining():
    net = three_hop_line(c=1, p=1.0, q=1.0)
    for depth, want_ready in ((1, 0), (2, 1)):
        state = BufferState()
        _put(state, state.staged, (P(0, 1), P(0, 2)), 1, 1)
        _put(state, state.staged, (P(1, 2), P(0, 2)), 1, 1)
        _put(state, state.staged, (P(2, 3), P(0, 3)), 1, 1)
        phase_swap(
            _three_hop_plan(net, state), state,
            rng=_rng(slot=2, phase=2),
            config=ProtocolConfig(cascade_depth=depth),
        )
        assert _held(state, state.ready, P(0, 3)) == want_ready
        if depth == 1:
            assert _held(state, state.staged, (P(0, 2), P(0, 3))) == 1


# -- fast paths against the reference path -----------------------------------

def test_one_target_route_batches_as_a_one_entry_split():
    # `switch_batch` skips the Split of a one-target route
    runs = []
    for split in (None, Split([1.0])):
        state = BufferState()
        route = ((state.index(state.parked, P(0, 1)),), split)
        rng = _rng(seed=5)
        for count in [*range(51), 10 ** 6]:
            switch_batch(state, route, state.cohort(0), count, rng)
        runs.append((state, rng))
    (fast, fast_rng), (ref, ref_rng) = runs
    assert fast.total == ref.total == [sum(range(51)) + 10 ** 6]
    assert list(fast.cohorts) == list(ref.cohorts)
    assert same_state(fast_rng.bit_generator.state, ref_rng.bit_generator.state)


def test_one_cohort_swap_pass_matches_the_cohort_walk():
    # an empty newer cohort sends `phase_swap` through `_pair_off`, the walk
    # its one-cohort fast path must agree with in counts and draws
    net = three_hop_line(c=1, p=1.0, q=0.7)
    held = {(P(0, 1), P(0, 2)): 40, (P(1, 2), P(0, 2)): 30, (P(2, 3), P(0, 3)): 25}
    for depth in (1, 2):
        runs = []
        for newer in (False, True):
            state = BufferState()
            table = _three_hop_plan(net, state)
            for lane, n in held.items():
                _put(state, state.staged, lane, 0, n)
            if newer:
                state.cohort(1)
            rng = _rng(seed=11, slot=1, phase=2)
            swapped = phase_swap(table, state, rng, ProtocolConfig(cascade_depth=depth))
            runs.append((swapped, state, rng))
        (fast, a, a_rng), (walk, b, b_rng) = runs
        assert fast == walk and fast[1] > 0
        assert a.total == b.total
        assert a.cohorts[0] == b.cohorts[0]
        assert b.cohorts[1] == (1, [0] * len(b.total))
        assert same_state(a_rng.bit_generator.state, b_rng.bit_generator.state)


@st.composite
def _slot_cases(draw):
    """A ledger of 4-8 keys holding 1-3 cohorts, and a table over it whose
    links and swaps route to 1-4 distinct keys, split by random weights."""
    keys = draw(st.integers(4, 8))
    held = draw(st.lists(st.lists(st.integers(0, 30), min_size=keys, max_size=keys),
                         min_size=1, max_size=3))

    def route():
        targets = tuple(draw(st.permutations(range(keys)))[:draw(st.integers(1, 4))])
        if len(targets) == 1:
            return targets, None
        weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 2.0, 7.0]),
                                min_size=len(targets), max_size=len(targets))
                       .filter(lambda w: sum(w) > 0))
        return targets, Split([w / sum(weights) for w in weights])

    links = tuple((draw(st.integers(0, 6)), draw(st.sampled_from([0.0, 0.25, 0.5, 0.9])),
                   draw(st.floats(0.05, 1.0)), route())
                  for _ in range(draw(st.integers(0, 6))))
    swaps = tuple((draw(st.floats(0.05, 1.0)), *draw(st.permutations(range(keys)))[:2], route())
                  for _ in range(draw(st.integers(0, 6))))
    # a birth past the newest cohort opens one more before the swaps
    birth = len(held) - 1 + draw(st.integers(0, 1))
    return held, PlanTable(links=links, swaps=swaps), birth


def _ledger(held):
    """A ledger whose cohort b holds `held[b][j]` ebits of key j."""
    state = BufferState()
    for j in range(len(held[0])):
        state.index(state.staged, j)
    for birth, row in enumerate(held):
        counts = state.cohort(birth)
        for j, n in enumerate(row):
            counts[j] += n
            state.total[j] += n
    return state


@seed(0x5107_4e41_6b65_726e)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_slot_cases(), rng_seed=st.integers(0, 2 ** 16), depth=st.integers(1, 2))
def test_slot_kernel_matches_the_reference_path(case, rng_seed, depth):
    # the phases forward one-target batches inline and draw through bound
    # methods; the reference forwards every batch through the old
    # `switch_batch`, so equal ledgers and next draws mean the same draws
    held, table, birth = case
    runs = []
    for generate, swap in ((phase_generate, phase_swap), (reference_generate, reference_swap)):
        state, srng = _ledger(held), SlotRng(rng_seed)
        rng = srng.stream(3, PHASE_GENERATE)
        made = generate(table, state, birth, rng)
        after_generate = (made, rng.random(), list(state.total), list(state.cohorts))
        rng = srng.stream(3, PHASE_SWAP)
        swapped = swap(table, state, rng, ProtocolConfig(cascade_depth=depth))
        runs.append((after_generate, swapped, rng.random(), state.total, list(state.cohorts)))
    assert runs[0] == runs[1]
    (made, *_), swapped, _, total, cohorts = runs[0]
    ledger = [made, *swapped, *total, *(n for _, counts in cohorts for n in counts)]
    assert all(type(n) is int for n in ledger), ledger


# -- distribution -------------------------------------------------------------

def _commodity(cid, sd, demand, arrival=1, deadline=None, remaining=None):
    c = Commodity(id=cid, sd=sd, demand=demand, arrival=arrival, deadline=deadline)
    if remaining is not None:
        c.remaining = remaining
    return c


def test_distribute_shortest_remaining_first():
    state = BufferState()
    _put(state, state.ready, P(0, 1), 1, 4)
    a = _commodity(0, P(0, 1), 6, remaining=5)
    b = _commodity(1, P(0, 1), 6, remaining=3)
    handed, done = phase_distribute(state, [a, b])
    assert handed == 4
    assert done == [b]
    assert b.remaining == 0 and a.remaining == 4
    assert _held(state, state.ready, P(0, 1)) == 0


def test_distribute_earliest_deadline_first():
    state = BufferState()
    _put(state, state.ready, P(0, 1), 1, 2)
    late = _commodity(0, P(0, 1), 2, deadline=9)
    soon = _commodity(1, P(0, 1), 2, deadline=4)
    never = _commodity(2, P(0, 1), 2)
    handed, done = phase_distribute(state, [late, soon, never])
    assert handed == 2
    assert done == [soon]
    assert late.remaining == 2 and never.remaining == 2


def test_distribute_leftover_stays_ready():
    state = BufferState()
    _put(state, state.ready, P(0, 1), 1, 5)
    c = _commodity(0, P(0, 1), 2)
    handed, done = phase_distribute(state, [c])
    assert handed == 2 and done == [c]
    assert _held(state, state.ready, P(0, 1)) == 3


def test_distribute_serves_deadlines_first_then_least_remaining():
    # one pair holding both kinds: deadline commodities go first, earliest
    # deadline first, then deadline-free ones by least remaining demand
    state = BufferState()
    _put(state, state.ready, P(0, 1), 1, 9)
    big = _commodity(0, P(0, 1), 5)
    late = _commodity(1, P(0, 1), 3, deadline=9)
    small = _commodity(2, P(0, 1), 2)
    soon = _commodity(3, P(0, 1), 3, deadline=6)
    handed, done = phase_distribute(state, [big, late, small, soon])
    assert handed == 9
    assert done == [soon, late, small]
    assert big.remaining == 4


# -- conservation across phases ----------------------------------------------

def test_phases_conserve_ebits_on_a_solved_plan():
    net = two_hop_line(c1=3, p1=0.8, c2=2, p2=0.9, q=0.85)
    state = BufferState()
    plan = compile_plan(net, solve_max_total(net, build_mred(net)), state)
    srng = SlotRng(17)
    sink = _commodity(0, P(0, 2), 10 ** 9)
    for slot in range(1, 301):
        before = state.total_ebits()
        reconcile_buffers(state, plan, srng.stream(slot, 0))
        assert state.total_ebits() == before
        made = phase_generate(plan, state, slot, srng.stream(slot, 1))
        attempts, wins = phase_swap(plan, state, srng.stream(slot, 2))
        handed, _ = phase_distribute(state, [sink])
        after = state.total_ebits()
        assert made == (after - before) + 2 * attempts - wins + handed
