"""Slot-level execution of a rate plan over integer ebit buffers.

Each slot runs fixed phases: generate link ebits, perform swaps,
distribute end-to-end ebits to commodities; when a new plan arrives,
buffered ebits are first reconciled with it. The phases read the plan's
execution table (`PlanTable`), which `compile_plan` builds once per
plan straight onto the ledger's indices. The ledger keeps no plan, so a
table's routes and their splits are freed with the table. Every random
draw comes from a stream derived from (seed, slot, phase)
(`rng.SlotRng`), so runs are reproducible regardless of how many slots
executed before or what other phases consumed.

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
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import sub

import numpy as np

from .mred import LaneKey, RateSolution, lane_keys
from .topology import Network, NodePair, _whole
from .workload import Commodity, service_order

PHASE_RECONCILE = 0
PHASE_GENERATE = 1
PHASE_SWAP = 2

# snap guard for LP dust around integers
_INT_EPS = 1e-9


class ConservationError(RuntimeError):
    """Ebits were created or lost outside the modeled channels: a slot's
    flow identity fails to balance, or the ledger is asked for ebits it
    does not hold."""


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
        object.__setattr__(self, "cascade_depth", _whole(self.cascade_depth, "cascade_depth", 1))
        if self.max_buffer_age is not None:
            object.__setattr__(self, "max_buffer_age",
                               _whole(self.max_buffer_age, "max_buffer_age", 0))


@dataclass(frozen=True)
class PlanTable:
    """A rate plan compiled onto one ledger, once per fresh plan.

    Its indices are valid only for the `BufferState` it was compiled on,
    and its routes, with their splits, are freed with the table.
    links: per link the plan uses, in pair order, (whole attempts, chance
    of one more attempt, p, route).
    rows: per pair with an outlet, its route: the staged lanes that
    consume its ebits, then the ready pool for an SD surplus.
    swaps: the plan's swaps, in (produced, node) order, as
    (q of the swap node, left lane, right lane, route of the produced
    pair), each lane as its ledger index.
    live: the ledger indices of those lanes.
    The default table is idle on every ledger: it generates, forwards and
    swaps nothing.
    """

    links: tuple[tuple[int, float, float, Route], ...] = ()
    rows: dict[NodePair, Route] = field(default_factory=dict)
    swaps: tuple[tuple[float, int, int, Route], ...] = ()
    live: frozenset[int] = frozenset()


def compile_plan(net: Network, plan: RateSolution, state: BufferState) -> PlanTable:
    """The execution table of `plan` on `net`, in `state`'s ledger indices.

    A link with expected usage x = capacity * g makes floor(x) attempts
    plus one more with probability frac(x). A fresh ebit of a pair goes
    to each lane that consumes it, and to the ready pool for an SD
    surplus, in proportion to the planned rates; without an outlet it is
    parked. No other code turns a plan's pairs and lanes into indices.
    Every rate the plan holds runs: `MredModel.extract` has clipped each
    onto its column's bounds.
    """
    index, staged = state.index, state.staged
    outflow: dict[NodePair, list[tuple[int, float]]] = {}
    for lane, w in sorted((lane, w) for swap, w in plan.swaps.items()
                          for lane in lane_keys(*swap)):
        outflow.setdefault(lane[0], []).append((index(staged, lane), w))
    rows = {}
    for pair in outflow.keys() | plan.eta.keys():
        out = outflow.get(pair, [])
        if pair in plan.eta:
            out.append((index(state.ready, pair), plan.eta[pair]))
        denom = sum(w for _, w in out)
        split = Split([w / denom for _, w in out]) if len(out) > 1 else None
        rows[pair] = tuple(i for i, _ in out), split
    table = PlanTable(rows=rows)

    def route(pair: NodePair) -> Route:
        return switch_probabilities(table, pair) or ((index(state.parked, pair),), None)

    links = []
    for pair in sorted(plan.g):
        link = net.links[pair]
        expected = link.capacity * plan.g[pair]
        base = math.floor(expected + _INT_EPS)
        frac = expected - base
        if frac < _INT_EPS:
            frac = 0.0
        links.append((base, frac, link.p, route(pair)))
    swaps = tuple(
        (net.q[k], *(staged[lane] for lane in lane_keys(produced, k)), route(produced))
        for produced, k in sorted(plan.swaps)
    )
    live = frozenset(i for _, left, right, _ in swaps for i in (left, right))
    return replace(table, links=tuple(links), swaps=swaps, live=live)


def switch_probabilities(table: PlanTable, pair: NodePair) -> Route | None:
    """The route of `pair`'s row, or None when the plan gives it no
    outlet and its ebits should be parked."""
    return table.rows.get(pair)


class Split(dict):
    """A forwarding row's probabilities, with the deterministic part of
    splitting a batch over them memoized by batch size. It lives on the
    route that holds it, so it is freed with the table it was compiled
    into."""

    __slots__ = ("probs",)

    def __init__(self, probs: list[float]) -> None:
        super().__init__()
        self.probs = probs

    def __missing__(self, count: int) -> tuple[list[tuple[int, int]], int, list[float], float]:
        """(placed, leftover, bounds, step) for `count` units: each target
        gets the floor of its share, listed in `placed` as (position, floor)
        when the floor is not 0, and the leftover units are placed by one
        uniform start and a bisection each over `bounds`, the cumulative
        remainders before the last target's. With no remainder to sample by,
        the largest share takes them; when none are left to place by
        sampling, leftover is 0 and the floors are final."""
        probs = self.probs
        shares = [count * p for p in probs]
        floors = [math.floor(s + _INT_EPS) for s in shares]
        leftover = max(0, count - sum(floors))
        cum = list(accumulate(max(0.0, s - b) for s, b in zip(shares, floors)))
        if leftover and cum[-1] <= 0.0:
            floors[probs.index(max(probs))] += leftover
            leftover = 0
        step = cum[-1] / leftover if leftover else 0.0
        placed = [(k, n) for k, n in enumerate(floors) if n]
        rounding = self[count] = placed, leftover, cum[:-1] if leftover else [], step
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
    The ledger holds no plan: `compile_plan` resolves each plan into it.
    """

    __slots__ = ("parked", "staged", "ready", "total", "cohorts")

    def __init__(self) -> None:
        self.parked: dict[NodePair, int] = {}
        self.staged: dict[LaneKey, int] = {}
        self.ready: dict[NodePair, int] = {}
        self.total: list[int] = []
        self.cohorts: deque[tuple[int, list[int]]] = deque()

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
            raise ConservationError(f"birth {birth} is older than the newest cohort")
        return self.cohorts[-1][1]

    def take(self, i: int, n: int) -> None:
        """Remove `n` ebits of key `i`, oldest cohorts first."""
        if n > self.total[i]:
            raise ConservationError(f"take({n}) from key {i} holding {self.total[i]}")
        self.total[i] -= n
        for _, counts in self.cohorts:
            got = min(counts[i], n)
            counts[i] -= got
            n -= got

    def total_ebits(self) -> int:
        return sum(self.total)


def switch_batch(
    state: BufferState, route: Route, counts: list[int], count: int, rng: np.random.Generator
) -> None:
    """Forward `count` ebits along `route` into the cohort `counts`.

    Over more than one target the batch is split by stratified rounding:
    each target gets the floor of its expected share, from the route's
    `Split` for `count`, and the leftover units are placed by systematic
    sampling over the fractional remainders. So the split is unbiased,
    never off by more than one per target, and draws nothing when the
    expected shares are integers. One target takes the whole batch; the
    generate and swap phases forward such a batch themselves and call this
    only for a split one.
    """
    targets, split = route
    total = state.total
    if split is None:
        i = targets[0]
        total[i] += count
        counts[i] += count
        return
    placed, leftover, bounds, step = split[count]
    for k, n in placed:
        i = targets[k]
        total[i] += n
        counts[i] += n
    if leftover:
        start = rng.random()
        # a point at or past the last bound falls to the last target
        for k in range(leftover):
            i = targets[bisect_right(bounds, (start + k) * step)]
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
        if total[i] and i not in table.live:
            j = state.index(state.parked, lane[0])
            for _, counts in cohorts:
                counts[j], counts[i] = counts[j] + counts[i], 0
            total[j], total[i] = total[j] + total[i], 0
    for pair, j in sorted(state.parked.items()):
        if total[j] and (route := switch_probabilities(table, pair)) is not None:
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
    counts = state.cohort(birth)
    total = state.total
    random, binomial = rng.random, rng.binomial
    generated = 0
    for base, frac, p, route in table.links:
        attempts = base + 1 if frac > 0.0 and random() < frac else base
        # with scalar arguments the draw is a Python int
        made = binomial(attempts, p) if attempts else 0
        if made:
            generated += made
            targets, split = route
            if split is None:
                i = targets[0]
                total[i] += made
                counts[i] += made
            else:
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
    total, cohorts = state.total, state.cohorts
    binomial = rng.binomial
    # a lone cohort is paired off as `_pair_off` would, in counts and draws;
    # no swap opens or drops a cohort, so it stays alone for the phase
    single = cohorts[0][1] if len(cohorts) == 1 else None
    attempts = successes = 0
    for _ in range(config.cascade_depth):
        products: list[tuple[Route, list[int], int]] = []
        for q, left, right, route in table.swaps:
            held_left, held_right = total[left], total[right]
            w = held_left if held_left < held_right else held_right
            if not w:
                continue
            total[left] = held_left - w
            total[right] = held_right - w
            attempts += w
            if single is not None:
                single[left] -= w
                single[right] -= w
                won = binomial(w, q)
                if won:
                    successes += won
                    products.append((route, single, won))
                continue
            for counts, n in _pair_off(cohorts, left, right, w):
                won = binomial(n, q)
                if won:
                    successes += won
                    products.append((route, counts, won))
        if not products:
            break
        for route, counts, won in products:
            targets, split = route
            if split is None:
                i = targets[0]
                total[i] += won
                counts[i] += won
            else:
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
