import numpy as np
import pytest

from entsched.rng import SlotRng


def _draws(rng: np.random.Generator) -> list:
    """One draw of each kind the protocol takes."""
    return [
        rng.random(3).tolist(),
        rng.binomial(40, 0.3, size=3).tolist(),
        rng.hypergeometric(7, 5, 6, size=3).tolist(),
    ]


def test_slot_rng_streams_are_stable_and_distinct():
    a = SlotRng(42).stream(7, 1).integers(1 << 30, size=4)
    b = SlotRng(42).stream(7, 1).integers(1 << 30, size=4)
    c = SlotRng(42).stream(7, 2).integers(1 << 30, size=4)
    d = SlotRng(43).stream(7, 1).integers(1 << 30, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_draws_do_not_depend_on_earlier_draws():
    want = _draws(SlotRng(5).stream(9, 2))
    srng = SlotRng(5)
    for slot, phase, n in ((9, 2, 1), (3, 0, 17), (9, 1, 1000), (10, 2, 2)):
        # leave the shared generator mid-buffer, at another counter
        srng.stream(slot, phase).random(n)
        srng.stream(slot, phase).integers(1 << 20, size=n, dtype=np.uint32)
        assert _draws(srng.stream(9, 2)) == want


@pytest.mark.parametrize("seed, slot, phase", [(6, 9, 2), (5, 10, 2), (5, 9, 1), (5, 8, 2)])
def test_stream_draws_differ_by_seed_slot_and_phase(seed, slot, phase):
    assert _draws(SlotRng(seed).stream(slot, phase)) != _draws(SlotRng(5).stream(9, 2))


def test_stream_layout_is_pinned():
    # Philox keyed by SeedSequence(seed), counter (0, 0, phase, slot); a change
    # of key or counter layout re-draws every protocol run
    words = SlotRng(42).stream(7, 1).bit_generator.random_raw(2)
    assert words.tolist() == [10421830574133373150, 17187025561632716707]


@pytest.mark.parametrize("seed, slot, phase", [(42, 7, 1), (5, 9, 2), (0, 100_000, 0)])
def test_stream_draws_as_philox_keyed_by_the_seed_at_counter_phase_slot(seed, slot, phase):
    def fresh():
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, phase, slot]))

    srng = SlotRng(seed)
    assert _draws(srng.stream(slot, phase)) == _draws(fresh())
    # leave the shared generator mid-buffer, with a cached 32-bit half
    srng.stream(slot + 1, phase).random(3)
    srng.stream(slot + 1, phase).integers(1 << 20, size=3, dtype=np.uint32)
    assert _draws(srng.stream(slot, phase)) == _draws(fresh())
