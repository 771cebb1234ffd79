import json

import pytest

from entsched import topology
from entsched.topology import (
    DegeneratePair,
    GenerationFailed,
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
    with pytest.raises(DegeneratePair):
        canonical_pair(5, 5)


def test_build_manual_star(star):
    assert star.nodes == (0, 1, 2, 3)
    assert star.links[canonical_pair(2, 0)].capacity == 2
    assert star.sd_pairs == {NodePair(0, 1), NodePair(0, 3)}
    assert is_connected(star)


def test_build_manual_rejects_zero_p():
    with pytest.raises(ValidationError):
        build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 2, 0.0)])


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


def test_waxman_exhausts_budget():
    with pytest.raises(GenerationFailed):
        generate_waxman(10, alpha=0.8, beta=1e-9, cap_lo=1, cap_hi=1, p=1.0, q=1.0, seed=0,
                        max_attempts=50)


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
