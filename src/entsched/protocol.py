"""Slot-level execution of a rate plan over integer ebit buffers.

Each slot runs fixed phases: generate link ebits, perform swaps,
distribute end-to-end ebits to commodities; when a new plan arrives,
buffered ebits are first reconciled with it. The phases read the plan's
execution table (`PlanTable`), which `compile_plan` builds once per
plan. Every random draw comes from a stream derived from (seed, slot,
phase) (`rng.SlotRng`), so runs are reproducible regardless of how many
slots executed before or what other phases consumed.

Ebits live in three pools keyed by node pair: `staged` lanes hold ebits
committed to a particular swap, `ready` holds end-to-end ebits awaiting
handoff, and `parked` holds ebits whose pair currently has no outlet.
Pools keep ebits in batches by birth slot, so an optional maximum buffer
age can retire ebits that waited too long. Without an age limit the
engine gives every ebit the same birth, so each counter is one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .mred import LaneKey, RateSolution, lane_keys
from .topology import Network, NodePair, ValidationError
from .workload import Commodity

PHASE_RECONCILE = 0
PHASE_GENERATE = 1
PHASE_SWAP = 2

DIST_SJF = "sjf"
DIST_EDF = "edf"

# snap guard for LP dust around integers
_INT_EPS = 1e-9


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
    """The three pools; a key keeps its counter for the whole run."""

    parked: dict[NodePair, FifoCounter] = field(default_factory=lambda: defaultdict(FifoCounter))
    staged: dict[LaneKey, FifoCounter] = field(default_factory=lambda: defaultdict(FifoCounter))
    ready: dict[NodePair, FifoCounter] = field(default_factory=lambda: defaultdict(FifoCounter))

    def total_ebits(self) -> int:
        pools = (self.parked, self.staged, self.ready)
        return sum(c.total for pool in pools for c in pool.values())


@dataclass(frozen=True)
class PlanTable:
    """A rate plan compiled for execution, built once per fresh plan.

    links: per link the plan uses, in pair order, (pair, whole attempts,
    chance of one more attempt, p).
    rows: per pair with an outlet, its forwarding row (targets, probs);
    a target is a staged-lane key, or None for the ready pool.
    swaps: the swaps with a positive rate, in (produced, node) order, as
    (produced, q of the swap node, left lane, right lane).
    live: the lanes of those swaps.
    The default table is idle: it generates, forwards and swaps nothing.
    """

    links: tuple[tuple[NodePair, int, float, float], ...] = ()
    rows: dict[NodePair, tuple[list[LaneKey | None], list[float]]] = field(default_factory=dict)
    swaps: tuple[tuple[NodePair, float, LaneKey, LaneKey], ...] = ()
    live: frozenset[LaneKey] = frozenset()


def compile_plan(net: Network, plan: RateSolution) -> PlanTable:
    """The execution table of `plan` on `net`.

    A link with expected usage x = capacity * g makes floor(x) attempts
    plus one more with probability frac(x). A fresh ebit of a pair goes
    to each lane that consumes it, and to the ready pool for an SD
    surplus, in proportion to the planned rates.
    """
    links = []
    for pair in sorted(plan.g):
        link = net.links[pair]
        expected = link.capacity * plan.g[pair]
        base = math.floor(expected + _INT_EPS)
        frac = expected - base
        if frac < _INT_EPS:
            frac = 0.0
        links.append((pair, base, frac, link.p))

    outflow: dict[NodePair, list[tuple[LaneKey, float]]] = {}
    for lane, w in sorted((lane, w) for swap, w in plan.swaps.items() for lane in lane_keys(*swap)):
        outflow.setdefault(lane[0], []).append((lane, w))
    rows = {}
    for pair in outflow.keys() | plan.eta.keys():
        out = outflow.get(pair, ())
        surplus = plan.eta.get(pair, 0.0)
        denom = sum(w for _, w in out) + surplus
        if denom <= 0.0:
            continue
        targets: list[LaneKey | None] = [lane for lane, _ in out]
        probs = [w / denom for _, w in out]
        if surplus > 0.0:
            targets.append(None)
            probs.append(surplus / denom)
        rows[pair] = (targets, probs)

    swaps = tuple(
        (produced, net.q[k], *lane_keys(produced, k))
        for (produced, k), w in sorted(plan.swaps.items())
        if w > 0
    )
    live = frozenset(lane for _, _, left, right in swaps for lane in (left, right))
    return PlanTable(links=tuple(links), rows=rows, swaps=swaps, live=live)


def switch_probabilities(table: PlanTable, pair: NodePair):
    """The forwarding row (targets, probs) of `pair`, or None when the
    plan gives it no outlet and its ebits should be parked."""
    return table.rows.get(pair)


def allocate_batch(count: int, probs: list[float], rng: np.random.Generator) -> list[int]:
    """Split `count` units over `probs` with stratified rounding.

    Each bucket gets the floor of its expected share; the leftover units
    are placed by systematic sampling over the fractional remainders, so
    the split is unbiased, never off by more than one per bucket, and
    fully deterministic when the expected shares are integers. A
    single-outlet row (normalized, so its one entry is 1.0) takes
    everything and draws nothing.
    """
    if len(probs) == 1:
        return [count]
    shares = [count * p for p in probs]
    counts = [math.floor(s + _INT_EPS) for s in shares]
    leftover = count - sum(counts)
    if leftover <= 0:
        return counts
    cum = list(accumulate(max(0.0, s - b) for s, b in zip(shares, counts)))
    rem_sum = cum[-1]
    if rem_sum <= 0.0:
        counts[probs.index(max(probs))] += leftover
        return counts
    start, step, last = rng.random(), rem_sum / leftover, len(probs) - 1
    for i in range(leftover):
        counts[min(bisect_right(cum, (start + i) * step), last)] += 1
    return counts


def switch_batch(
    state: BufferState,
    table: PlanTable,
    pair: NodePair,
    birth: int,
    count: int,
    rng: np.random.Generator,
) -> None:
    """Forward `count` ebits of `pair` into lanes or the ready pool."""
    if count <= 0:
        return
    dist = switch_probabilities(table, pair)
    if dist is None:
        state.parked[pair].add(birth, count)
        return
    targets, probs = dist
    for target, n in zip(targets, allocate_batch(count, probs, rng)):
        if target is None:
            state.ready[pair].add(birth, n)
        else:
            state.staged[target].add(birth, n)


def expire_old_ebits(state: BufferState, slot: int, max_age: int | None) -> int:
    """Drop ebits older than `max_age` slots from every pool."""
    if max_age is None:
        return 0
    cutoff = slot - max_age
    dropped = 0
    for pool in (state.parked, state.staged, state.ready):
        for counter in pool.values():
            dropped += counter.drop_born_before(cutoff)
    return dropped


def reconcile_buffers(
    state: BufferState,
    table: PlanTable,
    slot: int,
    rng: np.random.Generator,
) -> None:
    """Realign buffered ebits with a newly compiled plan.

    Lanes of swaps the plan no longer runs are drained to the parked pool,
    then every parked ebit whose pair has an outlet again is re-switched.
    The engine calls it only when the plan changes: under an unchanged
    table every staged ebit sits in a live lane and every parked pair
    still has no outlet, so a second call moves and draws nothing.
    """
    for key in sorted(state.staged):
        if key in table.live:
            continue
        counter = state.staged[key]
        if counter.total:
            for birth, n in counter.take(counter.total):
                state.parked[key[0]].add(birth, n)
    retry = []
    for pair in sorted(state.parked):
        counter = state.parked[pair]
        if counter.total and switch_probabilities(table, pair) is not None:
            retry.extend((pair, birth, n) for birth, n in counter.take(counter.total))
    for pair, birth, n in retry:
        switch_batch(state, table, pair, birth, n, rng)


def phase_generate(
    table: PlanTable,
    state: BufferState,
    birth: int,
    rng: np.random.Generator,
) -> int:
    """Attempt link-level generation per the plan's usage fractions.

    Each link makes its table's whole attempts, plus one more with the
    table's chance; each attempt succeeds with the link's p. Fresh ebits
    are recorded with birth slot `birth`. Returns the number created.
    """
    generated = 0
    for pair, base, frac, p in table.links:
        attempts = base + (1 if frac > 0.0 and rng.random() < frac else 0)
        made = int(rng.binomial(attempts, p)) if attempts else 0
        if made:
            generated += made
            switch_batch(state, table, pair, birth, made, rng)
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
    table: PlanTable,
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
    attempts = 0
    successes = 0
    for _ in range(config.cascade_depth):
        products: list[tuple[NodePair, int, int]] = []
        for produced, q, key_l, key_r in table.swaps:
            left, right = state.staged[key_l], state.staged[key_r]
            w = min(left.total, right.total)
            if w <= 0:
                continue
            won = int(rng.binomial(w, q))
            chunks = _zip_chunks(left.take(w), right.take(w))
            attempts += w
            successes += won
            if won:
                products.extend(
                    (produced, birth, n) for birth, n in _split_successes(chunks, won, rng) if n
                )
        if not products:
            break
        for produced, birth, n in products:
            switch_batch(state, table, produced, birth, n, rng)
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
        pool = state.ready[pair]
        if pool.total == 0:
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
    return handed, completed
