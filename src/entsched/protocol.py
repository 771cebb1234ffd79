"""Slot-level execution of a rate plan over integer ebit buffers.

Each slot runs fixed phases: reconcile buffers against the current plan,
generate link ebits, perform swaps, distribute end-to-end ebits to
commodities. Every random draw comes from a stream derived from
(seed, slot, phase), so runs are reproducible regardless of how many
slots executed before or what other phases consumed.

Ebits live in three pools keyed by node pair: `staged` lanes hold ebits
committed to a particular swap, `ready` holds end-to-end ebits awaiting
handoff, and `parked` holds ebits whose pair currently has no outlet.
All pools remember birth slots so an optional maximum buffer age can
retire ebits that waited too long.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .mred import RateSolution
from .topology import Network, NodePair, ValidationError
from .workload import Commodity

PHASE_RECONCILE = 0
PHASE_GENERATE = 1
PHASE_SWAP = 2

DIST_SJF = "sjf"
DIST_EDF = "edf"

# snap guard for LP dust around integers
_INT_EPS = 1e-9

LaneKey = tuple[NodePair, NodePair]


class SlotRng:
    """Per-(slot, phase) random streams for one simulation run."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, slot: int, phase: int) -> np.random.Generator:
        seq = np.random.SeedSequence((self.seed, slot, phase))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs for the slot executor.

    cascade_depth bounds how many times per slot a freshly swapped ebit
    may itself be swapped again; depth 1 means products wait for the
    next slot. max_buffer_age retires ebits older than the given number
    of slots (None keeps them forever).
    """

    cascade_depth: int = 1
    max_buffer_age: int | None = None

    def __post_init__(self) -> None:
        if self.cascade_depth < 1:
            raise ValidationError(f"cascade_depth must be >= 1, got {self.cascade_depth}")
        if self.max_buffer_age is not None and self.max_buffer_age < 0:
            raise ValidationError(f"max_buffer_age must be >= 0, got {self.max_buffer_age}")


class FifoCounter:
    """Integer counter split into birth-slot batches, oldest first."""

    __slots__ = ("batches", "total")

    def __init__(self) -> None:
        self.batches: deque[list[int]] = deque()
        self.total = 0

    def add(self, birth: int, count: int) -> None:
        if count <= 0:
            return
        if self.batches and self.batches[-1][0] == birth:
            self.batches[-1][1] += count
        else:
            self.batches.append([birth, count])
        self.total += count

    def take(self, count: int) -> list[tuple[int, int]]:
        """Remove `count` ebits oldest-first, returned as (birth, n) chunks."""
        if count > self.total:
            raise ValueError(f"take({count}) from counter holding {self.total}")
        out: list[tuple[int, int]] = []
        left = count
        while left > 0:
            birth, n = self.batches[0]
            if n <= left:
                out.append((birth, n))
                left -= n
                self.batches.popleft()
            else:
                out.append((birth, left))
                self.batches[0][1] = n - left
                left = 0
        self.total -= count
        return out

    def drop_born_before(self, cutoff: int) -> int:
        dropped = 0
        while self.batches and self.batches[0][0] < cutoff:
            dropped += self.batches.popleft()[1]
        self.total -= dropped
        return dropped


@dataclass
class BufferState:
    parked: dict[NodePair, FifoCounter] = field(default_factory=dict)
    staged: dict[LaneKey, FifoCounter] = field(default_factory=dict)
    ready: dict[NodePair, FifoCounter] = field(default_factory=dict)

    def add_parked(self, pair: NodePair, birth: int, count: int) -> None:
        if count > 0:
            self.parked.setdefault(pair, FifoCounter()).add(birth, count)

    def add_staged(self, key: LaneKey, birth: int, count: int) -> None:
        if count > 0:
            self.staged.setdefault(key, FifoCounter()).add(birth, count)

    def add_ready(self, pair: NodePair, birth: int, count: int) -> None:
        if count > 0:
            self.ready.setdefault(pair, FifoCounter()).add(birth, count)

    def stage_total(self, key: LaneKey) -> int:
        counter = self.staged.get(key)
        return counter.total if counter else 0

    def ready_total(self, pair: NodePair) -> int:
        counter = self.ready.get(pair)
        return counter.total if counter else 0

    def total_ebits(self) -> int:
        pools = list(self.parked.values()) + list(self.staged.values()) + list(self.ready.values())
        return sum(c.total for c in pools)

    def prune_empty(self) -> None:
        for pool in (self.parked, self.staged, self.ready):
            dead = [k for k, c in pool.items() if c.total == 0]
            for k in dead:
                del pool[k]


def switch_probabilities(plan: RateSolution | None, pair: NodePair):
    """Forwarding distribution for a fresh ebit of `pair` under `plan`.

    Returns (targets, probs) where each target is a staged-lane key or
    None for the ready pool, or None overall when the plan gives the
    pair no outlet and the ebit should be parked.
    """
    if plan is None:
        return None
    out = plan.outflow.get(pair, ())
    surplus = plan.eta.get(pair, 0.0)
    denom = sum(v for _, v in out) + surplus
    if denom <= 0.0:
        return None
    targets: list[LaneKey | None] = [(pair, produced) for produced, _ in out]
    probs = [v / denom for _, v in out]
    if surplus > 0.0:
        targets.append(None)
        probs.append(surplus / denom)
    return targets, probs


def allocate_batch(count: int, probs: list[float], rng: np.random.Generator) -> list[int]:
    """Split `count` units over `probs` with stratified rounding.

    Each bucket gets the floor of its expected share; the leftover units
    are placed by systematic sampling over the fractional remainders, so
    the split is unbiased, never off by more than one per bucket, and
    fully deterministic when the expected shares are integers.
    """
    shares = [count * p for p in probs]
    counts = [int(np.floor(s + _INT_EPS)) for s in shares]
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


def switch_batch(
    state: BufferState,
    plan: RateSolution | None,
    pair: NodePair,
    birth: int,
    count: int,
    rng: np.random.Generator,
) -> None:
    """Forward `count` ebits of `pair` into lanes or the ready pool."""
    if count <= 0:
        return
    dist = switch_probabilities(plan, pair)
    if dist is None:
        state.add_parked(pair, birth, count)
        return
    targets, probs = dist
    for target, n in zip(targets, allocate_batch(count, probs, rng)):
        if n <= 0:
            continue
        if target is None:
            state.add_ready(pair, birth, n)
        else:
            state.add_staged(target, birth, n)


def expire_old_ebits(state: BufferState, slot: int, max_age: int | None) -> int:
    """Drop ebits older than `max_age` slots from every pool."""
    if max_age is None:
        return 0
    cutoff = slot - max_age
    dropped = 0
    for pool in (state.parked, state.staged, state.ready):
        for counter in pool.values():
            dropped += counter.drop_born_before(cutoff)
    state.prune_empty()
    return dropped


def reconcile_buffers(
    state: BufferState,
    plan: RateSolution | None,
    slot: int,
    rng: np.random.Generator,
) -> None:
    """Realign buffered ebits with the current plan.

    Lanes the plan no longer feeds are drained back to the parked pool,
    then every parked ebit whose pair has an outlet again is re-switched.
    Runs every slot; it only moves ebits when the plan actually changed
    or previously parked pairs regained an outlet.
    """
    for key in sorted(state.staged):
        if plan is not None and plan.f.get(key, 0.0) > 0.0:
            continue
        counter = state.staged[key]
        if counter.total:
            for birth, n in counter.take(counter.total):
                state.add_parked(key[0], birth, n)
    retry = []
    for pair in sorted(state.parked):
        counter = state.parked[pair]
        if counter.total and switch_probabilities(plan, pair) is not None:
            retry.extend((pair, birth, n) for birth, n in counter.take(counter.total))
    for pair, birth, n in retry:
        switch_batch(state, plan, pair, birth, n, rng)
    state.prune_empty()


def phase_generate(
    net: Network,
    plan: RateSolution | None,
    state: BufferState,
    slot: int,
    rng: np.random.Generator,
) -> int:
    """Attempt link-level generation per the plan's usage fractions.

    A link with expected usage x makes floor(x) attempts plus one more
    with probability frac(x); each attempt succeeds with the link's p.
    Returns the number of fresh ebits created.
    """
    if plan is None:
        return 0
    generated = 0
    for pair in sorted(plan.g):
        link = net.links[pair]
        expected = link.capacity * plan.g[pair]
        base = int(np.floor(expected + _INT_EPS))
        frac = expected - base
        if frac < _INT_EPS:
            frac = 0.0
        attempts = base + (1 if frac > 0.0 and rng.random() < frac else 0)
        made = int(rng.binomial(attempts, link.p)) if attempts else 0
        if made:
            generated += made
            switch_batch(state, plan, pair, slot, made, rng)
    return generated


def _zip_chunks(left: list[tuple[int, int]], right: list[tuple[int, int]]):
    """Pair two equal-total chunk lists; each piece keeps the older birth."""
    out: list[tuple[int, int]] = []
    i = j = 0
    li = ri = 0
    while i < len(left) and j < len(right):
        lb, ln = left[i]
        rb, rn = right[j]
        n = min(ln - li, rn - ri)
        out.append((min(lb, rb), n))
        li += n
        ri += n
        if li == ln:
            i += 1
            li = 0
        if ri == rn:
            j += 1
            ri = 0
    return out


def _split_successes(chunks, successes: int, rng: np.random.Generator):
    """Attribute swap successes to age chunks without replacement."""
    if len(chunks) == 1:
        return [(chunks[0][0], successes)]
    out = []
    rem_total = sum(n for _, n in chunks)
    rem_good = successes
    for birth, n in chunks[:-1]:
        if rem_good <= 0:
            hit = 0
        elif rem_good >= rem_total:
            hit = n
        else:
            hit = int(rng.hypergeometric(rem_good, rem_total - rem_good, n))
        out.append((birth, hit))
        rem_good -= hit
        rem_total -= n
    out.append((chunks[-1][0], rem_good))
    return out


def phase_swap(
    net: Network,
    plan: RateSolution | None,
    state: BufferState,
    slot: int,
    rng: np.random.Generator,
    config: ProtocolConfig = ProtocolConfig(),
) -> tuple[int, int]:
    """Execute planned swaps on buffered ebits.

    Each executable swap pairs off the two staged lanes' current
    holdings; every attempt consumes one ebit from each lane and yields
    the produced pair's ebit with the swap node's success probability.
    Products are forwarded only after the full pass, so within a slot a
    product cascades into further swaps only up to the configured depth.
    Returns (attempts, successes).
    """
    if plan is None:
        return (0, 0)
    attempts = 0
    successes = 0
    for _ in range(config.cascade_depth):
        products: list[tuple[NodePair, int, int]] = []
        for produced, k, key_l, key_r in plan.swap_triples:
            w = min(state.stage_total(key_l), state.stage_total(key_r))
            if w <= 0:
                continue
            won = int(rng.binomial(w, net.q[k]))
            chunks = _zip_chunks(state.staged[key_l].take(w), state.staged[key_r].take(w))
            attempts += w
            successes += won
            if won:
                products.extend(
                    (produced, birth, n) for birth, n in _split_successes(chunks, won, rng) if n
                )
        if not products:
            break
        for produced, birth, n in products:
            switch_batch(state, plan, produced, birth, n, rng)
    state.prune_empty()
    return attempts, successes


def phase_distribute(
    state: BufferState,
    active: list[Commodity],
    mode: str = DIST_SJF,
) -> tuple[int, list[Commodity]]:
    """Hand ready end-to-end ebits to active commodities.

    Within a pair, commodities are served to completion in shortest-
    remaining order (`sjf`) or earliest-deadline order (`edf`); ids
    break ties. Returns the ebits handed over and the commodities whose
    demand reached zero.
    """
    if mode not in (DIST_SJF, DIST_EDF):
        raise ValidationError(f"unknown distribution mode {mode!r}")
    by_pair: dict[NodePair, list[Commodity]] = {}
    for c in active:
        if c.remaining > 0:
            by_pair.setdefault(c.sd, []).append(c)

    handed = 0
    completed: list[Commodity] = []
    for pair in sorted(by_pair):
        pool = state.ready.get(pair)
        if pool is None or pool.total == 0:
            continue
        if mode == DIST_SJF:
            queue = sorted(by_pair[pair], key=lambda c: (c.remaining, c.id))
        else:
            queue = sorted(
                by_pair[pair],
                key=lambda c: (c.deadline is None, c.deadline or 0, c.id),
            )
        for c in queue:
            if pool.total == 0:
                break
            n = min(pool.total, c.remaining)
            pool.take(n)
            c.remaining -= n
            handed += n
            if c.remaining == 0:
                completed.append(c)
    state.prune_empty()
    return handed, completed
