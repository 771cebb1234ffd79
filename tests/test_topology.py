import hashlib
import json

import numpy as np
import pytest

from entsched import topology
from entsched.topology import (
    NodePair,
    ValidationError,
    build_manual,
    canonical_pair,
    generate_waxman,
    is_connected,
    sample_sd_pairs,
)


def test_canonical_pair_orients():
    assert canonical_pair(3, 1) == NodePair(1, 3)
    assert canonical_pair(1, 3) == NodePair(1, 3)


def test_canonical_pair_rejects_degenerate():
    with pytest.raises(ValidationError, match="pair endpoints must differ, got 5 and 5"):
        canonical_pair(5, 5)
    # a self-loop link is the same error, not a ValueError of its own
    with pytest.raises(ValidationError, match="got 1 and 1"):
        build_manual([(0, 0.9), (1, 0.9)], [(1, 1, 1, 0.9)])


def test_build_manual_star(star):
    assert star.nodes == (0, 1, 2, 3)
    assert star.links[canonical_pair(2, 0)].capacity == 2
    assert star.sd_pairs == {NodePair(0, 1), NodePair(0, 3)}
    assert is_connected(star)


def test_build_manual_rejects_zero_p():
    with pytest.raises(ValidationError):
        build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 2, 0.0)])


def test_build_manual_rejects_a_repeated_node_and_a_link_to_an_undeclared_one():
    with pytest.raises(ValidationError, match=r"^duplicate node id 1$"):
        build_manual([(0, 1.0), (1, 1.0), (1, 0.5)], [])
    with pytest.raises(ValidationError, match=r"^link 0:9 references an undeclared node$"):
        build_manual([(0, 1.0), (1, 1.0)], [(9, 0, 1, 1.0)])


def test_build_manual_rejects_unknown_sd_node():
    with pytest.raises(ValidationError):
        build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)], sd_pairs=[(0, 9)])


def test_build_manual_rejects_duplicate_link():
    with pytest.raises(ValidationError):
        build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0), (1, 0, 2, 0.5)])


def test_build_manual_rejects_bad_capacity():
    with pytest.raises(ValidationError):
        build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 0, 1.0)])


def test_build_manual_rejects_bad_q():
    with pytest.raises(ValidationError):
        build_manual([(0, 0.0), (1, 1.0)], [(0, 1, 1, 1.0)])


def test_all_pairs_count(star):
    pairs = star.all_pairs()
    assert len(pairs) == 6
    assert all(pr.lo < pr.hi for pr in pairs)
    assert pairs == sorted(pairs)


def test_waxman_large_preset_shape():
    net = generate_waxman(20, alpha=0.8, beta=0.8, cap_lo=3, cap_hi=10, p=0.9, q=0.9, seed=11)
    assert len(net.nodes) == 20
    assert is_connected(net)
    for lk, link in net.links.items():
        assert 3 <= link.capacity <= 10
        assert link.p == 0.9
        assert lk.lo < lk.hi
    assert all(q == 0.9 for q in net.q.values())


def test_waxman_single_node():
    net = generate_waxman(1, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=1, p=1.0, q=1.0, seed=0)
    assert net.nodes == (0,)
    assert not net.links
    assert is_connected(net)


def test_waxman_deterministic():
    a = generate_waxman(12, alpha=0.8, beta=0.8, cap_lo=3, cap_hi=10, p=0.9, q=0.9, seed=7)
    b = generate_waxman(12, alpha=0.8, beta=0.8, cap_lo=3, cap_hi=10, p=0.9, q=0.9, seed=7)
    assert json.dumps(topology.to_json(a), sort_keys=True) == json.dumps(topology.to_json(b), sort_keys=True)


# sha256 of the sorted-key JSON of `to_json(sample_sd_pairs(draw, 3, seed + 1))`
# for the draw `generate_waxman(n, 0.8, 0.8, 3, 10, 0.9, 0.9, seed)`: a change
# to how the generator computes its distances, probabilities or pairs must
# draw the same networks and SD pairs
GOLDEN_WAXMAN = {
    (2, 0): "934143fccb1a77761bebe1c814d88ef81f6749e7916f5ede7d972495a0bd8a55",
    (6, 3): "cc8086a80103a68f567b079e5c34b0eced23394abf056ed80b16a4996458598e",
    (12, 7): "6c8dd92b765999d6fd50a116ed10a150604058da57f3edb9abefd0e31e0d598d",
    (16, 11): "3d981848a057d87234d0b152ab6681fc0d23d02311038ff74479a3d8b3dfeae5",
    (16, 42): "09a896ac7fd453d5aaf6873e797591082b5220159f3e26b85639b147819d32e9",
    (30, 5): "d493bad28fa722e588f60dea5abaa6b467b478157a56dd5eff9b31234f2d6e2f",
}


@pytest.mark.parametrize("n, seed", sorted(GOLDEN_WAXMAN))
def test_waxman_draws_are_pinned(n, seed):
    net = generate_waxman(n, alpha=0.8, beta=0.8, cap_lo=3, cap_hi=10, p=0.9, q=0.9, seed=seed)
    text = json.dumps(topology.to_json(sample_sd_pairs(net, 3, seed=seed + 1)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WAXMAN[n, seed]


def test_waxman_exhausts_budget(monkeypatch):
    monkeypatch.setattr(topology, "MAX_ATTEMPTS", 50)
    message = r"no connected draw in 50 attempts \(n=10, alpha=0.8, beta=1e-09\)"
    with pytest.raises(ValidationError, match=message):
        generate_waxman(10, alpha=0.8, beta=1e-9, cap_lo=1, cap_hi=1, p=1.0, q=1.0, seed=0)


def test_waxman_rejects_bad_params():
    with pytest.raises(ValidationError):
        generate_waxman(0, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=1, p=1.0, q=1.0, seed=0)
    with pytest.raises(ValidationError):
        generate_waxman(5, alpha=0.8, beta=0.8, cap_lo=4, cap_hi=2, p=1.0, q=1.0, seed=0)
    with pytest.raises(ValidationError):
        generate_waxman(5, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=2, p=1.5, q=1.0, seed=0)
    with pytest.raises(ValidationError):
        generate_waxman(5, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=2, p=1.0, q=1.0, seed=-1)
    with pytest.raises(ValidationError, match="alpha"):
        generate_waxman(5, alpha=float("nan"), beta=0.8, cap_lo=1, cap_hi=2, p=1.0, q=1.0, seed=0)


def test_sample_sd_pairs_picks_by_all_pairs_index_on_any_ids():
    net = build_manual([(v, 0.9) for v in (40, -7, 3, 1000, 12)], [])
    pairs = net.all_pairs()
    for seed in range(20):
        chosen = np.random.default_rng(seed).choice(len(pairs), size=4, replace=False)
        assert sample_sd_pairs(net, 4, seed).sd_pairs == frozenset(pairs[i] for i in chosen)


def test_sample_sd_pairs_distinct_and_capped():
    net = generate_waxman(8, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9, seed=3)
    sampled = sample_sd_pairs(net, 10, seed=5)
    assert len(sampled.sd_pairs) == 10
    again = sample_sd_pairs(net, 10, seed=5)
    assert sampled.sd_pairs == again.sd_pairs
    everything = sample_sd_pairs(net, 10_000, seed=5)
    assert len(everything.sd_pairs) == len(net.all_pairs())


def test_json_round_trip(star, tmp_path):
    path = tmp_path / "net.json"
    topology.write_network(star, str(path))
    back = topology.read_network(str(path))
    assert back == star

    with pytest.raises(ValidationError):
        topology.from_json({"nodes": "nope"})


@pytest.mark.parametrize("value", [1.5, True, "3"])
def test_from_json_refuses_ids_and_capacities_that_are_not_whole(star, value):
    for section, i, key in (("nodes", 1, "id"), ("links", 0, "u"), ("links", 0, "v"),
                            ("links", 0, "c"), ("sd_pairs", 0, 1)):
        obj = topology.to_json(star)
        obj[section][i][key] = value
        with pytest.raises(ValidationError, match="whole number"):
            topology.from_json(obj)


def test_capacities_are_bounded_by_the_maximum(star):
    obj = topology.to_json(star)
    obj["links"][0]["c"] = topology.MAX_CAPACITY
    assert topology.from_json(obj).links[topology.canonical_pair(0, 2)].capacity == 10**9
    obj["links"][0]["c"] = topology.MAX_CAPACITY + 1
    with pytest.raises(ValidationError, match="exceeds the maximum"):
        topology.from_json(obj)
    topology.check_waxman_params(4, 0.8, 0.8, 1, topology.MAX_CAPACITY, 0.9, 0.9)
    with pytest.raises(ValidationError, match="exceeds the maximum"):
        topology.check_waxman_params(4, 0.8, 0.8, 1, topology.MAX_CAPACITY + 1, 0.9, 0.9)
    # networks built in code are bounded too
    with pytest.raises(ValidationError, match=f"link capacity {10**19} exceeds the maximum"):
        topology.build_manual([(0, 0.9), (1, 0.9)], [(0, 1, 10**19, 0.9)])


def test_node_count_is_bounded_by_the_maximum():
    n = topology.MAX_NODES
    topology.check_waxman_params(n, 0.8, 0.8, 1, 2, 0.9, 0.9)
    with pytest.raises(ValidationError, match=f"node count {n + 1} exceeds the maximum {n}"):
        topology.check_waxman_params(n + 1, 0.8, 0.8, 1, 2, 0.9, 0.9)
    obj = {"nodes": [{"id": v, "q": 0.9} for v in range(n)], "links": [], "sd_pairs": []}
    assert len(topology.from_json(obj).nodes) == n
    obj["nodes"].append({"id": n, "q": 0.9})
    with pytest.raises(ValidationError, match=f"node count {n + 1} exceeds the maximum {n}"):
        topology.from_json(obj)
    # networks built in code are bounded too
    with pytest.raises(ValidationError, match=f"node count {n + 1} exceeds the maximum {n}"):
        build_manual([(v, 0.9) for v in range(n + 1)], [])
