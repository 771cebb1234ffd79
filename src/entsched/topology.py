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
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


class DegeneratePair(ValueError):
    """Both endpoints of a node pair are the same node."""


class ValidationError(ValueError):
    """Network data fails structural validation."""


class GenerationFailed(RuntimeError):
    """Random generation exhausted its retry budget."""


class NodePair(NamedTuple):
    """Unordered node pair, canonically (lo, hi) with lo < hi."""

    lo: int
    hi: int

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


def canonical_pair(m: int, n: int) -> NodePair:
    """Canonical NodePair for endpoints m and n, in either order."""
    if m == n:
        raise DegeneratePair(f"pair endpoints must differ, got {m} and {n}")
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
        """Every unordered node pair, links or not, sorted."""
        ns = self.nodes
        return [NodePair(ns[i], ns[j]) for i in range(len(ns)) for j in range(i + 1, len(ns))]

    def require_pair(self, pair: NodePair) -> None:
        if pair.lo not in self.q or pair.hi not in self.q:
            raise KeyError(f"pair {pair} has endpoints outside the network")


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
        ValidationError: on duplicate ids, unknown endpoints, or
            out-of-range parameters.
    """
    q: dict[int, float] = {}
    for node_id, qv in nodes:
        node_id = int(node_id)
        if node_id in q:
            raise ValidationError(f"duplicate node id {node_id}")
        if not 0.0 < qv <= 1.0:
            raise ValidationError(f"node {node_id}: swap probability {qv} not in (0, 1]")
        q[node_id] = float(qv)

    link_map: dict[NodePair, Link] = {}
    for u, v, cap, p in links:
        lp = canonical_pair(int(u), int(v))
        if lp.lo not in q or lp.hi not in q:
            raise ValidationError(f"link {lp} references an undeclared node")
        if lp in link_map:
            raise ValidationError(f"duplicate link {lp}")
        if int(cap) != cap or cap < 1:
            raise ValidationError(f"link {lp}: capacity {cap} must be an integer >= 1")
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"link {lp}: success probability {p} not in (0, 1]")
        link_map[lp] = Link(capacity=int(cap), p=float(p))

    sd: set[NodePair] = set()
    for s, t in sd_pairs:
        sp = canonical_pair(int(s), int(t))
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
                        p: float, q: float) -> None:
    """Raise ValidationError unless the `generate_waxman` shape is in range."""
    if n < 1:
        raise ValidationError(f"node count {n} must be >= 1")
    if not alpha > 0:
        raise ValidationError(f"alpha {alpha} must be > 0")
    if not 0 < beta <= 1:
        raise ValidationError(f"beta {beta} must lie in (0, 1]")
    if cap_lo < 1 or cap_hi < cap_lo:
        raise ValidationError(f"capacity range [{cap_lo}, {cap_hi}] invalid")
    if not 0 < p <= 1 or not 0 < q <= 1:
        raise ValidationError("p and q must lie in (0, 1]")


def generate_waxman(
    n: int,
    alpha: float,
    beta: float,
    cap_lo: int,
    cap_hi: int,
    p: float,
    q: float,
    seed: int,
    max_attempts: int = 1000,
) -> Network:
    """Random connected geometric network on the unit square.

    Nodes are placed uniformly at random; a link between two nodes at
    distance d appears with probability beta * exp(-d / (alpha * L)),
    where L is the largest pairwise distance in the placement. Link
    capacities are integer-uniform in [cap_lo, cap_hi]. Placement and
    edges are redrawn until the result is connected.

    Raises:
        GenerationFailed: no connected draw within `max_attempts`.
        ValidationError: parameters out of range.
    """
    check_waxman_params(n, alpha, beta, cap_lo, cap_hi, p, q)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    node_list = [(v, q) for v in range(n)]
    idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    for _ in range(max_attempts):
        pos = rng.random((n, 2))
        if idx_pairs:
            d = np.array([np.hypot(*(pos[i] - pos[j])) for i, j in idx_pairs])
            longest = float(d.max())
            # all nodes coincident: distance term drops out
            prob = np.full(len(d), beta) if longest == 0.0 else beta * np.exp(-d / (alpha * longest))
            picked = rng.random(len(d)) < prob
            caps = rng.integers(cap_lo, cap_hi + 1, size=int(picked.sum()))
            links = [
                (idx_pairs[k][0], idx_pairs[k][1], int(caps[m]), p)
                for m, k in enumerate(np.flatnonzero(picked))
            ]
        else:
            links = []
        net = build_manual(node_list, links)
        if is_connected(net):
            return net
    raise GenerationFailed(f"no connected draw in {max_attempts} attempts (n={n}, beta={beta})")


def sample_sd_pairs(net: Network, count: int, seed: int) -> Network:
    """Copy of `net` with `count` distinct SD pairs sampled uniformly.

    Requests beyond the number of available pairs are capped.
    """
    pairs = net.all_pairs()
    if count < 0:
        raise ValidationError(f"sd pair count {count} must be >= 0")
    count = min(count, len(pairs))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=count, replace=False) if count else []
    return replace(net, sd_pairs=frozenset(pairs[i] for i in sorted(chosen)))


def to_json(net: Network) -> dict:
    return {
        "nodes": [{"id": v, "q": net.q[v]} for v in net.nodes],
        "links": [
            {"u": lp.lo, "v": lp.hi, "c": net.links[lp].capacity, "p": net.links[lp].p}
            for lp in net.sorted_links
        ],
        "sd_pairs": [[sp.lo, sp.hi] for sp in net.sorted_sd],
    }


def _whole(v, what: str) -> int:
    """`v` as an int; a bool or a number with a fraction is refused rather
    than truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not float(v).is_integer():
        raise ValidationError(f"{what} must be a whole number, got {v!r}")
    return int(v)


def from_json(obj: dict) -> Network:
    try:
        nodes = [(_whole(e["id"], "node id"), e["q"]) for e in obj["nodes"]]
        links = [(_whole(e["u"], "link u"), _whole(e["v"], "link v"),
                  _whole(e["c"], "link capacity"), e["p"]) for e in obj.get("links", [])]
        sd = [(_whole(s, "sd pair endpoint"), _whole(t, "sd pair endpoint"))
              for s, t in obj.get("sd_pairs", [])]
        return build_manual(nodes, links, sd)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network object: {exc}") from exc


def write_network(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_network(path: str) -> Network:
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh))
