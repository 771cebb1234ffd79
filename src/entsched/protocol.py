"""Slot-level execution of a rate plan over integer ebit buffers.

Each slot runs fixed phases: generate link ebits, perform swaps,
distribute end-to-end ebits to commodities; when a new plan arrives,
buffered ebits are first reconciled with it. The phases read the plan's
execution table (`PlanTable`), which `compile_plan` builds once per
plan. Every random draw comes from a stream derived from (seed, slot,
phase) (`rng.SlotRng`), so runs are reproducible regardless of how many
slots executed before or what other phases consumed.

Buffered ebits live in one integer ledger (`BufferState`) keyed by
`staged` lanes (ebits committed to a swap), `ready` pairs (end-to-end
ebits awaiting handoff) and `parked` pairs (ebits with no outlet). It
holds each key's total and its counts per birth cohort, oldest first, so
an optional maximum buffer age retires whole cohorts; without one every
ebit has the same birth and there is one cohort.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub

import numpy as np

from .mred import LaneKey, RateSolution, lane_keys
from .topology import Network, NodePair, ValidationError
from .workload import Commodity, service_order

PHASE_RECONCILE = 0
PHASE_GENERATE = 1
PHASE_SWAP = 2

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


def _rounding(count: int, probs: list[float]) -> tuple[list[int], int, list[float], float]:
    """The deterministic part of splitting `count` units over `probs`:
    (floors, leftover, cumulative remainders, step). Leftover units are
    placed by one uniform start and a bisection each; when there are none
    to place by sampling, leftover is 0 and the floors are final."""
    shares = [count * p for p in probs]
    floors = [math.floor(s + _INT_EPS) for s in shares]
    leftover = count - sum(floors)
    if leftover <= 0:
        return floors, 0, [], 0.0
    cum = list(accumulate(max(0.0, s - b) for s, b in zip(shares, floors)))
    rem_sum = cum[-1]
    if rem_sum <= 0.0:
        floors[probs.index(max(probs))] += leftover
        return floors, 0, [], 0.0
    return floors, leftover, cum, rem_sum / leftover


class Split(dict):
    """A forwarding row's probabilities, with its `_rounding` memoized by
    batch size. It lives on the route that holds it, so it is dropped
    with the plan it was bound for."""

    __slots__ = ("probs",)

    def __init__(self, probs: list[float]) -> None:
        super().__init__()
        self.probs = probs

    def __missing__(self, count: int):
        rounding = self[count] = _rounding(count, self.probs)
        return rounding


# where a pair's ebits go, in ledger indices: (targets, split), where split
# is None when the one target takes every batch
Route = tuple[tuple[int, ...], Split | None]


class BufferState:
    """Every buffered ebit, as an integer ledger.

    `parked`, `staged` and `ready` map each pool's keys to ledger
    indices, given on first sight and never removed. `total[i]` is key
    i's count, and `cohorts` holds (birth, counts) with births strictly
    increasing, so `total[i]` is the sum of `counts[i]` over cohorts.
    """

    __slots__ = ("parked", "staged", "ready", "total", "cohorts", "_table", "_bound")

    def __init__(self) -> None:
        self.parked: dict[NodePair, int] = {}
        self.staged: dict[LaneKey, int] = {}
        self.ready: dict[NodePair, int] = {}
        self.total: list[int] = []
        self.cohorts: deque[tuple[int, list[int]]] = deque()
        self._table: PlanTable | None = None

    def index(self, pool: dict, key) -> int:
        """The ledger index of `key` in `pool`."""
        i = pool.get(key)
        if i is None:
            i = pool[key] = len(self.total)
            self.total.append(0)
            for _, counts in self.cohorts:
                counts.append(0)
        return i

    def cohort(self, birth: int) -> list[int]:
        """The counts of the newest cohort, which a later `birth` opens."""
        if not self.cohorts or self.cohorts[-1][0] < birth:
            self.cohorts.append((birth, [0] * len(self.total)))
        elif self.cohorts[-1][0] > birth:
            raise ValueError(f"birth {birth} is older than the newest cohort")
        return self.cohorts[-1][1]

    def take(self, i: int, n: int) -> None:
        """Remove `n` ebits of key `i`, oldest cohorts first."""
        if n > self.total[i]:
            raise ValueError(f"take({n}) from key {i} holding {self.total[i]}")
        self.total[i] -= n
        for _, counts in self.cohorts:
            got = min(counts[i], n)
            counts[i] -= got
            n -= got

    def total_ebits(self) -> int:
        return sum(self.total)

    def route(self, table: PlanTable, pair: NodePair) -> Route:
        """Where `table` forwards ebits of `pair`: its row's targets, or the
        parked pool when the plan gives the pair no outlet."""
        dist = switch_probabilities(table, pair)
        if dist is None:
            return (self.index(self.parked, pair),), None
        keys = tuple(self.index(self.ready, pair) if t is None else self.index(self.staged, t)
                     for t in dist[0])
        return keys, Split(dist[1]) if len(keys) > 1 else None

    def bind(self, table: PlanTable) -> tuple[tuple, tuple]:
        """`table` in ledger indices, resolved once per table: per link
        (whole attempts, chance of one more, p, route), per swap (q, left
        lane, right lane, route of the produced pair). The routes, and so
        their splits, are kept until another table is bound."""
        if table is not self._table:
            index, staged = self.index, self.staged
            links = tuple((base, frac, p, self.route(table, pair))
                          for pair, base, frac, p in table.links)
            swaps = tuple((q, index(staged, left), index(staged, right), self.route(table, prod))
                          for prod, q, left, right in table.swaps)
            self._table, self._bound = table, (links, swaps)
        return self._bound


def allocate_batch(count: int, probs: list[float], rng: np.random.Generator) -> list[int]:
    """Split `count` units over `probs` with stratified rounding.

    Each bucket gets the floor of its expected share; the leftover units
    are placed by systematic sampling over the fractional remainders, so
    the split is unbiased, never off by more than one per bucket, and
    fully deterministic when the expected shares are integers.
    """
    floors, leftover, cum, step = _rounding(count, probs)
    if leftover:
        start, last = rng.random(), len(probs) - 1
        for i in range(leftover):
            floors[min(bisect_right(cum, (start + i) * step), last)] += 1
    return floors


def switch_batch(
    state: BufferState, route: Route, counts: list[int], count: int, rng: np.random.Generator
) -> None:
    """Forward `count` ebits along `route` into the cohort `counts`. Over
    more than one target the batch is split as `allocate_batch` splits it,
    from the floors the route's split holds for `count`."""
    targets, split = route
    total = state.total
    if split is None:
        i = targets[0]
        total[i] += count
        counts[i] += count
        return
    floors, leftover, cum, step = split[count]
    for i, n in zip(targets, floors):
        total[i] += n
        counts[i] += n
    if leftover:
        start, last = rng.random(), len(targets) - 1
        for k in range(leftover):
            i = targets[min(bisect_right(cum, (start + k) * step), last)]
            total[i] += 1
            counts[i] += 1


def expire_old_ebits(state: BufferState, slot: int, max_age: int | None) -> int:
    """Drop the cohorts born more than `max_age` slots ago, and leading
    cohorts that have emptied; returns the ebits dropped."""
    if max_age is None:
        return 0
    cohorts, total = state.cohorts, state.total
    dropped = 0
    while cohorts and (cohorts[0][0] < slot - max_age or not any(cohorts[0][1])):
        counts = cohorts.popleft()[1]
        dropped += sum(counts)
        total[:] = map(sub, total, counts)
    return dropped


def reconcile_buffers(state: BufferState, table: PlanTable, rng: np.random.Generator) -> None:
    """Realign buffered ebits with a newly compiled plan.

    Lanes of swaps the plan no longer runs are drained to the parked pool,
    then every parked ebit whose pair has an outlet again is re-switched,
    pair by pair in sorted order, oldest cohort first. The engine calls
    it only when the plan changes: under an unchanged table every staged
    ebit sits in a live lane and every parked pair still has no outlet,
    so a second call moves and draws nothing.
    """
    total, cohorts = state.total, state.cohorts
    for lane, i in sorted(state.staged.items()):
        if total[i] and lane not in table.live:
            j = state.index(state.parked, lane[0])
            for _, counts in cohorts:
                counts[j], counts[i] = counts[j] + counts[i], 0
            total[j], total[i] = total[j] + total[i], 0
    for pair, j in sorted(state.parked.items()):
        if total[j] and switch_probabilities(table, pair) is not None:
            route = state.route(table, pair)
            for _, counts in cohorts:
                n, counts[j] = counts[j], 0
                if n:
                    total[j] -= n
                    switch_batch(state, route, counts, n, rng)


def phase_generate(
    table: PlanTable,
    state: BufferState,
    birth: int,
    rng: np.random.Generator,
) -> int:
    """Attempt link-level generation per the plan's usage fractions.

    Each link makes its table's whole attempts, plus one more with the
    table's chance; each attempt succeeds with the link's p. Fresh ebits
    join the cohort born at `birth`. Returns the number created.
    """
    links, _ = state.bind(table)
    counts = state.cohort(birth)
    generated = 0
    for base, frac, p, route in links:
        attempts = base + (1 if frac > 0.0 and rng.random() < frac else 0)
        made = int(rng.binomial(attempts, p)) if attempts else 0
        if made:
            generated += made
            switch_batch(state, route, counts, made, rng)
    return generated


def _pair_off(cohorts, left: int, right: int, w: int):
    """Take `w` ebits from each of two lanes, oldest first, and pair the
    k-th of one with the k-th of the other; yields (counts, n) for the n
    pairs whose older parent is in the cohort whose counts are `counts`."""
    cl = cr = done = 0
    for _, counts in cohorts:
        n = min(counts[left], w - cl)
        counts[left] -= n
        cl += n
        n = min(counts[right], w - cr)
        counts[right] -= n
        cr += n
        # pair k's older parent is in the first cohort where max(cl, cr) > k
        if max(cl, cr) > done:
            yield counts, max(cl, cr) - done
            done = max(cl, cr)
        if cl == cr == w:
            return


def phase_swap(
    table: PlanTable,
    state: BufferState,
    rng: np.random.Generator,
    config: ProtocolConfig = ProtocolConfig(),
) -> tuple[int, int]:
    """Execute planned swaps on buffered ebits.

    Each executable swap pairs off the two staged lanes' current
    holdings, oldest first; every attempt consumes one ebit from each
    lane and yields the produced pair's ebit with the swap node's
    success probability, in the cohort of its older parent. The pairs
    are walked cohort by cohort with one binomial draw per cohort that
    holds older parents, which has the law of one draw over all pairs
    followed by a split without replacement; with one cohort it is that
    one draw. Products are forwarded only after the full pass, so within
    a slot a product cascades into further swaps only up to the
    configured depth. Returns (attempts, successes).
    """
    _, swaps = state.bind(table)
    total, cohorts = state.total, state.cohorts
    attempts = successes = 0
    for _ in range(config.cascade_depth):
        products: list[tuple[Route, list[int], int]] = []
        for q, left, right, route in swaps:
            w = min(total[left], total[right])
            if not w:
                continue
            total[left] -= w
            total[right] -= w
            attempts += w
            if len(cohorts) == 1:
                counts = cohorts[0][1]
                counts[left] -= w
                counts[right] -= w
                pieces = ((counts, w),)
            else:
                pieces = _pair_off(cohorts, left, right, w)
            for counts, n in pieces:
                won = int(rng.binomial(n, q))
                if won:
                    successes += won
                    products.append((route, counts, won))
        if not products:
            break
        for route, counts, won in products:
            switch_batch(state, route, counts, won, rng)
    return attempts, successes


def phase_distribute(
    state: BufferState, active: list[Commodity]
) -> tuple[int, list[Commodity]]:
    """Hand ready end-to-end ebits to active commodities.

    Within a pair, commodities are served to completion in
    `workload.service_order`: earliest deadline first, then deadline-free
    ones by least remaining demand. Returns the ebits handed over and the
    commodities whose demand reached zero.
    """
    by_pair: dict[NodePair, list[Commodity]] = {}
    for c in active:
        if c.remaining > 0:
            by_pair.setdefault(c.sd, []).append(c)

    handed = 0
    completed: list[Commodity] = []
    total = state.total
    for pair in sorted(by_pair):
        i = state.ready.get(pair)
        if i is None or not total[i]:
            continue
        for c in sorted(by_pair[pair], key=service_order):
            if not total[i]:
                break
            n = min(total[i], c.remaining)
            state.take(i, n)
            c.remaining -= n
            handed += n
            if c.remaining == 0:
                completed.append(c)
    return handed, completed
