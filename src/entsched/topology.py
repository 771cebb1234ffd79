"""Network model for buffered entanglement distribution.

A network is a set of repeater nodes joined by entanglement-generating
links. Each node can merge two entangled pairs that meet at it (swapping)
with a per-node success probability; each link makes up to `capacity`
generation attempts per slot, each succeeding with probability `p`. A
subset of node pairs is marked as source-destination pairs: they are the
only pairs allowed to accumulate end-to-end ebits.

All pairs are stored canonically with the smaller node id first, so a
pair has exactly one representation regardless of construction order.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


# the largest link capacity a network may hold: capacity * p is a
# coefficient of the rate LP, and HiGHS refuses a model whose coefficients
# exceed 1e15
MAX_CAPACITY = 10**9

# the most nodes a network may hold: the rate LP has one swap column per
# (node pair, swap node), 485 100 at 100 nodes, where building the model
# took 114-152 ms and 75 MB on a 2-core x86 host
MAX_NODES = 100

# the most placements `generate_waxman` draws before it gives up on
# finding a connected one
MAX_ATTEMPTS = 1000


class ValidationError(ValueError):
    """Network data fails structural validation."""


class NodePair(NamedTuple):
    """Unordered node pair, canonically (lo, hi) with lo < hi."""

    lo: int
    hi: int

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


def canonical_pair(m: int, n: int) -> NodePair:
    """Canonical NodePair for endpoints m and n, in either order; equal
    endpoints raise ValidationError."""
    if m == n:
        raise ValidationError(f"pair endpoints must differ, got {m} and {n}")
    return NodePair(m, n) if m < n else NodePair(n, m)


@dataclass(frozen=True)
class Link:
    """One entanglement-generating link: integer capacity, success prob."""

    capacity: int
    p: float


@dataclass(frozen=True)
class Network:
    """Immutable network: node swap probabilities, links, SD pairs."""

    q: dict[int, float]
    links: dict[NodePair, Link]
    sd_pairs: frozenset[NodePair]

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.q))

    @cached_property
    def sorted_links(self) -> tuple[NodePair, ...]:
        return tuple(sorted(self.links))

    @cached_property
    def sorted_sd(self) -> tuple[NodePair, ...]:
        return tuple(sorted(self.sd_pairs))

    def all_pairs(self) -> list[NodePair]:
        """Every unordered node pair, links or not, sorted: the pairs of
        `nodes` at `pair_positions`."""
        ns = self.nodes
        lo, hi = pair_positions(len(ns))
        return [NodePair(ns[i], ns[j]) for i, j in zip(lo.tolist(), hi.tolist())]


def pair_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions (lo, hi), lo < hi, of every pair among `n` sorted
    nodes: lo ascending, then hi ascending, the order of `all_pairs`."""
    return np.nonzero(np.less.outer(np.arange(n), np.arange(n)))


def build_manual(
    nodes: Iterable[tuple[int, float]],
    links: Iterable[tuple[int, int, int, float]],
    sd_pairs: Iterable[tuple[int, int]] = (),
) -> Network:
    """Build and validate a network from explicit parts.

    Args:
        nodes: (node_id, swap_success_probability) entries.
        links: (u, v, capacity, generation_success_probability) entries.
        sd_pairs: (s, t) endpoint pairs allowed to keep end-to-end ebits.

    Raises:
        ValidationError: on duplicate ids, unknown endpoints, an id,
            endpoint or capacity that is not whole (`_whole`), a
            probability outside (0, 1] (`_real`), more than `MAX_NODES`
            nodes or a capacity above `MAX_CAPACITY`.
    """
    nodes = list(nodes)
    _whole(len(nodes), "node count", most=MAX_NODES)
    q: dict[int, float] = {}
    for node_id, qv in nodes:
        node_id = _whole(node_id, "node id")
        if node_id in q:
            raise ValidationError(f"duplicate node id {node_id}")
        try:
            q[node_id] = _real(qv, "swap probability", most=1, above=0)
        except ValidationError as exc:
            raise ValidationError(f"node {node_id}: {exc}") from None

    link_map: dict[NodePair, Link] = {}
    for u, v, cap, p in links:
        lp = canonical_pair(_whole(u, "link endpoint"), _whole(v, "link endpoint"))
        if lp.lo not in q or lp.hi not in q:
            raise ValidationError(f"link {lp} references an undeclared node")
        if lp in link_map:
            raise ValidationError(f"duplicate link {lp}")
        cap = _whole(cap, "link capacity", 1, MAX_CAPACITY)
        try:
            link_map[lp] = Link(capacity=cap, p=_real(p, "success probability", most=1, above=0))
        except ValidationError as exc:
            raise ValidationError(f"link {lp}: {exc}") from None

    sd: set[NodePair] = set()
    for s, t in sd_pairs:
        sp = canonical_pair(_whole(s, "sd pair endpoint"), _whole(t, "sd pair endpoint"))
        if sp.lo not in q or sp.hi not in q:
            raise ValidationError(f"sd pair {sp} references an undeclared node")
        sd.add(sp)

    return Network(q=q, links=link_map, sd_pairs=frozenset(sd))


def is_connected(net: Network) -> bool:
    """True when every node is reachable over links (single node: yes)."""
    nodes = net.nodes
    if len(nodes) <= 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for lp in net.links:
        adj[lp.lo].append(lp.hi)
        adj[lp.hi].append(lp.lo)
    seen = {nodes[0]}
    frontier = deque([nodes[0]])
    while frontier:
        v = frontier.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)


def check_waxman_params(n: int, alpha: float, beta: float, cap_lo: int, cap_hi: int,
                        p: float, q: float) -> tuple[int, int, int]:
    """`n`, `cap_lo` and `cap_hi` as ints, once the `generate_waxman` shape
    is in range; ValidationError otherwise."""
    n = _whole(n, "node count", 1, MAX_NODES)
    _real(alpha, "alpha", above=0)
    _real(beta, "beta", most=1, above=0)
    cap_lo = _whole(cap_lo, "cap_lo", 1)
    cap_hi = _whole(cap_hi, "cap_hi", cap_lo, MAX_CAPACITY)
    _real(p, "p", most=1, above=0)
    _real(q, "q", most=1, above=0)
    return n, cap_lo, cap_hi


def generate_waxman(
    n: int,
    alpha: float,
    beta: float,
    cap_lo: int,
    cap_hi: int,
    p: float,
    q: float,
    seed: int,
) -> Network:
    """Random connected geometric network on the unit square.

    Nodes are placed uniformly at random; a link between two nodes at
    distance d appears with probability beta * exp(-d / (alpha * L)),
    where L is the largest pairwise distance in the placement. Link
    capacities are integer-uniform in [cap_lo, cap_hi]. Placement and
    edges are redrawn until the result is connected.

    Raises:
        ValidationError: parameters out of range, or no connected draw
            within `MAX_ATTEMPTS`.
    """
    n, cap_lo, cap_hi = check_waxman_params(n, alpha, beta, cap_lo, cap_hi, p, q)
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    node_list = [(v, q) for v in range(n)]
    lo, hi = pair_positions(n)

    for _ in range(MAX_ATTEMPTS):
        pos = rng.random((n, 2))
        links = []
        if len(lo):
            d = np.hypot(*(pos[lo] - pos[hi]).T)
            longest = float(d.max())
            # all nodes coincident: distance term drops out; a tiny alpha
            # overflows the exponent to -inf, which gives probability 0
            if longest == 0.0:
                prob = np.full(len(d), beta)
            else:
                with np.errstate(over="ignore", divide="ignore"):
                    prob = beta * np.exp(-d / (alpha * longest))
            picked = rng.random(len(d)) < prob
            caps = rng.integers(cap_lo, cap_hi + 1, size=int(picked.sum()))
            links = [(i, j, c, p) for i, j, c in zip(lo[picked].tolist(), hi[picked].tolist(),
                                                     caps.tolist())]
        net = build_manual(node_list, links)
        if is_connected(net):
            return net
    raise ValidationError(f"no connected draw in {MAX_ATTEMPTS} attempts "
                          f"(n={n}, alpha={alpha}, beta={beta})")


def sample_sd_pairs(net: Network, count: int, seed: int) -> Network:
    """Copy of `net` with `count` distinct SD pairs sampled uniformly.

    Requests beyond the number of available pairs are capped.
    """
    count = _whole(count, "sd pair count", 0)
    seed = _whole(seed, "seed", 0)
    # pair i of `all_pairs`, without building the others
    ns = net.nodes
    lo, hi = pair_positions(len(ns))
    count = min(count, len(lo))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(lo), size=count, replace=False) if count else []
    sd = frozenset(NodePair(ns[lo[i]], ns[hi[i]]) for i in sorted(chosen))
    return replace(net, sd_pairs=sd)


def to_json(net: Network) -> dict:
    return {
        "nodes": [{"id": v, "q": net.q[v]} for v in net.nodes],
        "links": [
            {"u": lp.lo, "v": lp.hi, "c": net.links[lp].capacity, "p": net.links[lp].p}
            for lp in net.sorted_links
        ],
        "sd_pairs": [[sp.lo, sp.hi] for sp in net.sorted_sd],
    }


def _whole(v, what: str, least: int | None = None, most: int | None = None) -> int:
    """`v` as an int, the one check of every count the package takes: any
    integral number, Python's or numpy's, or an integral float such as
    3.0. A bool, a fraction, a non-finite value or a non-number is
    refused rather than truncated, and so is a value outside [`least`,
    `most`], each with a one-line ValidationError naming `what`."""
    if type(v) is not int:
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not (isinstance(v, numbers.Integral) or float(v).is_integer())):
            raise ValidationError(f"{what} must be a whole number, got {v!r}")
        v = int(v)
    if least is not None and v < least:
        raise ValidationError(f"{what} must be >= {least}, got {v}")
    if most is not None and v > most:
        raise ValidationError(f"{what} {v} exceeds the maximum {most}")
    return v


def _real(v, what: str, least: float | None = None, most: float | None = None, *,
          above: float | None = None) -> float:
    """`v` as a float, the one check of every real parameter the package
    takes: any finite real number, Python's or numpy's, within [`least`,
    `most`] and past `above`. A bool, a non-number, NaN and an infinite
    value are refused, and so is a value out of range, each with a
    one-line ValidationError naming `what`."""
    x = v
    if type(x) is not float:
        real = type(x) is int or not isinstance(x, bool) and isinstance(x, numbers.Real)
        try:
            x = float(x) if real else math.nan
        except OverflowError:
            x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be a finite number, got {v!r}")
    if least is not None and x < least:
        raise ValidationError(f"{what} must be >= {least}, got {v}")
    if above is not None and x <= above:
        raise ValidationError(f"{what} must be > {above}, got {v}")
    if most is not None and x > most:
        raise ValidationError(f"{what} {v} exceeds the maximum {most}")
    return x


def _json_int(literal: str) -> int:
    """A JSON integer as an int; OverflowError when it is too large for a
    float, which many JSON readers hold every number as."""
    v = int(literal)
    float(v)
    return v


def from_json(obj: dict) -> Network:
    """The network a `to_json` object describes, as `build_manual` checks it."""
    try:
        nodes = [(e["id"], e["q"]) for e in obj["nodes"]]
        links = [(e["u"], e["v"], e["c"], e["p"]) for e in obj.get("links", [])]
        return build_manual(nodes, links, obj.get("sd_pairs", []))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network object: {exc}") from exc


def write_network(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_network(path: str) -> Network:
    """The network in the JSON file at `path`. Content that is not UTF-8 or
    JSON, nests too deeply to parse, holds an integer too large for a
    float or is not a valid network raises ValidationError prefixed
    ``cannot read network <path>: ``; a path that cannot be opened raises
    OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return from_json(json.load(fh, parse_int=_json_int))
        except (ValidationError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
                OverflowError) as exc:
            raise ValidationError(f"cannot read network {path}: {exc}") from exc
