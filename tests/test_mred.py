import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import star_net, three_hop_line, two_hop_line
from entsched import mred
from entsched.mred import (
    MredModel,
    RateSolution,
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    input_rate,
    output_rate,
    solution_from_json,
    solution_to_json,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
    swap_node,
    zero_solution,
)
from entsched.topology import (
    NodePair,
    ValidationError,
    build_manual,
    canonical_pair,
    generate_waxman,
    sample_sd_pairs,
)

P = canonical_pair


def _random_net(seed, n=8, sd_count=3):
    net = generate_waxman(n, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=0.9, seed=seed)
    return sample_sd_pairs(net, sd_count, seed=seed + 1000)


# -- rate bookkeeping ---------------------------------------------------------

def test_swap_node_identifies_merge_point():
    assert swap_node(P(0, 1), P(0, 2)) == 1
    assert swap_node(P(1, 2), P(0, 2)) == 1
    with pytest.raises(ValidationError):
        swap_node(P(0, 1), P(2, 3))


def test_input_rate_generation_only():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)], [(0, 1)])
    sol = RateSolution(f={}, g={P(0, 1): 1.0}, eta={})
    assert input_rate(net, P(0, 1), sol) == pytest.approx(1.0)


def test_input_rate_swap_term():
    net = two_hop_line(q=0.9)
    sol = RateSolution(
        f={(P(0, 1), P(0, 2)): 1.0, (P(1, 2), P(0, 2)): 1.0},
        g={P(0, 1): 1.0, P(1, 2): 1.0},
        eta={},
    )
    assert input_rate(net, P(0, 2), sol) == pytest.approx(0.9)


def test_input_rate_zero_for_untouched_pair(star):
    assert input_rate(star, P(1, 3), zero_solution()) == 0.0


def test_input_rate_unknown_pair_raises(star):
    with pytest.raises(KeyError):
        input_rate(star, NodePair(0, 99), zero_solution())


def test_output_rate_sums_consumption():
    sol = RateSolution(
        f={(P(0, 1), P(0, 2)): 0.3, (P(0, 1), P(1, 3)): 0.7},
        g={}, eta={},
    )
    assert output_rate(P(0, 1), sol) == pytest.approx(1.0)
    assert output_rate(P(2, 3), sol) == 0.0


def test_swap_triples_requires_both_lanes():
    sol = RateSolution(
        f={(P(0, 1), P(0, 2)): 1.0, (P(1, 2), P(0, 2)): 1.0, (P(0, 2), P(0, 3)): 0.5},
        g={}, eta={},
    )
    triples = sol.swap_triples
    assert len(triples) == 1
    produced, k, key_l, key_r = triples[0]
    assert produced == P(0, 2) and k == 1
    assert key_l == (P(0, 1), P(0, 2)) and key_r == (P(1, 2), P(0, 2))


# -- model construction -------------------------------------------------------

def test_model_counts_on_star(star):
    model = build_mred(star)
    # every (produced pair, swap node) combination yields two lanes
    assert model.n_f_vars == 4 * 3 * 2
    assert model.n_g_vars == 3
    assert model.n_pairing_rows == 6 * 2
    assert model.n_balance_rows == 6
    assert len(model.eta_col) == 6


def test_two_node_model_has_no_staged_flows():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 3, 0.8)], [(0, 1)])
    model = build_mred(net)
    assert model.n_f_vars == 0
    sol = solve_max_total(net, model)
    assert sol.eta[P(0, 1)] == pytest.approx(2.4, abs=1e-6)
    assert sol.g[P(0, 1)] == pytest.approx(1.0, abs=1e-6)


def test_zero_assignment_satisfies_balance(star):
    report = check_solution(star, zero_solution())
    assert report["ok"]


# -- whole-set solves ---------------------------------------------------------

@pytest.mark.parametrize("c1,p1,c2,p2,q,expect", [
    (1, 0.5, 1, 0.5, 1.0, 0.5),
    (2, 1.0, 2, 1.0, 0.9, 1.8),
    (4, 0.9, 4, 0.5, 0.5, 1.0),
])
def test_two_hop_closed_form(c1, p1, c2, p2, q, expect):
    net = two_hop_line(c1=c1, p1=p1, c2=c2, p2=p2, q=q)
    sol = solve_max_total(net)
    assert sol.eta.get(P(0, 2), 0.0) == pytest.approx(expect, abs=1e-6)


def test_max_total_star_fair_split(star):
    sol = solve_max_total(star)
    assert sol.objective_log[0][0] == "total"
    assert sol.objective_log[0][1] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta[P(0, 1)] == pytest.approx(1.0, abs=1e-6)
    assert sol.eta[P(0, 3)] == pytest.approx(1.0, abs=1e-6)


def test_max_total_without_sd_pairs():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)])
    sol = solve_max_total(net)
    assert sol.objective_log == (("total", 0.0),)
    assert not sol.eta and not sol.f


def test_single_pair_edr_star(star):
    assert solve_single_pair_edr(star, P(0, 1)) == pytest.approx(2.0, abs=1e-6)
    assert solve_single_pair_edr(star, P(0, 3)) == pytest.approx(2.0, abs=1e-6)


def test_single_pair_edr_disconnected_is_zero():
    net = build_manual(
        [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        [(0, 1, 2, 1.0), (2, 3, 2, 1.0)],
        [(0, 2)],
    )
    assert solve_single_pair_edr(net, P(0, 2)) == 0.0


def _independent_path_edr():
    """Hand-enumerated balance LP for the 4-node path, one variable per
    (produced pair, swap node)."""
    nodes = [0, 1, 2, 3]
    q = {v: 0.9 for v in nodes}
    links = {(0, 1): (1, 0.9), (1, 2): (1, 0.9), (2, 3): (1, 0.9)}
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    triples = [(pr, k) for pr in pairs for k in nodes if k not in pr]
    wcol = {t: i for i, t in enumerate(triples)}
    gcol = {lk: len(triples) + i for i, lk in enumerate(links)}
    eta_col = len(triples) + len(links)
    ncol = eta_col + 1

    def lane(a, b):
        return (a, b) if a < b else (b, a)

    A = np.zeros((len(pairs), ncol))
    for r, pr in enumerate(pairs):
        for k in nodes:
            if k not in pr:
                A[r, wcol[(pr, k)]] += q[k]
        for (pr2, k2) in triples:
            for ln in (lane(pr2[0], k2), lane(k2, pr2[1])):
                if ln == pr:
                    A[r, wcol[(pr2, k2)]] -= 1.0
        if pr in links:
            c, p = links[pr]
            A[r, gcol[pr]] = c * p
        if pr == (0, 3):
            A[r, eta_col] = -1.0
    cvec = np.zeros(ncol)
    cvec[eta_col] = -1.0
    bounds = [(0, None)] * len(triples) + [(0, 1)] * len(links) + [(0, None)]
    res = linprog(cvec, A_eq=A, b_eq=np.zeros(len(pairs)), bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


def test_three_hop_matches_independent_enumeration():
    oracle = _independent_path_edr()
    got = solve_single_pair_edr(three_hop_line(), P(0, 3))
    assert got == pytest.approx(oracle, abs=1e-7)
    # two sequential merges at 0.9 each over unit-rate links
    assert got == pytest.approx(0.729, abs=1e-6)


# -- lexicographic ------------------------------------------------------------

def test_lexicographic_star_priority(star):
    sol = solve_lexicographic(star, [P(0, 1)])
    labels = [label for label, _ in sol.objective_log]
    assert labels == ["eta[0:1]", "total"]
    assert sol.objective_log[0][1] == pytest.approx(2.0, abs=1e-6)
    # the hub link is exhausted by the prioritized pair
    assert sol.objective_log[1][1] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta[P(0, 1)] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta.get(P(0, 3), 0.0) == pytest.approx(0.0, abs=1e-6)


def test_lexicographic_empty_equals_max_total(star):
    a = solve_lexicographic(star, [])
    b = solve_max_total(star)
    assert a.objective_log == b.objective_log
    assert a.eta.keys() == b.eta.keys()
    for pr in a.eta:
        assert a.eta[pr] == pytest.approx(b.eta[pr], abs=1e-9)


def test_lexicographic_rejects_bad_priorities(star):
    with pytest.raises(ValidationError):
        solve_lexicographic(star, [P(0, 1), P(0, 1)])
    with pytest.raises(ValidationError):
        solve_lexicographic(star, [P(1, 3)])


def test_lexicographic_disjoint_order_invariance():
    net = build_manual(
        [(v, 1.0) for v in range(6)],
        [(0, 1, 2, 1.0), (1, 2, 2, 1.0), (3, 4, 1, 1.0), (4, 5, 1, 1.0)],
        [(0, 2), (3, 5)],
    )
    ab = solve_lexicographic(net, [P(0, 2), P(3, 5)])
    ba = solve_lexicographic(net, [P(3, 5), P(0, 2)])
    by_label_ab = dict(ab.objective_log)
    by_label_ba = dict(ba.objective_log)
    for label in ("eta[0:2]", "eta[3:5]"):
        assert by_label_ab[label] == pytest.approx(by_label_ba[label], abs=1e-6)


def test_lexicographic_stage_matches_independent_resolve(star):
    sol = solve_lexicographic(star, [P(0, 1), P(0, 3)])
    stage1 = sol.objective_log[0][1]
    model = build_mred(star)
    fresh = model.solve({model.eta_col[P(0, 1)]: 1.0})
    assert stage1 == pytest.approx(fresh.objective, abs=2e-7 * max(1.0, abs(stage1)))
    stage2 = sol.objective_log[1][1]
    pinned = model.solve(
        {model.eta_col[P(0, 3)]: 1.0},
        extra_ub=[({model.eta_col[P(0, 1)]: -1.0}, -(stage1 - 1e-7 * max(1.0, stage1)))],
    )
    assert stage2 == pytest.approx(pinned.objective, abs=2e-7 * max(1.0, abs(stage2)))


# -- deadline-constrained solves ----------------------------------------------

def test_dc_empty_equals_max_total(star):
    a = build_and_check_mred_dc(star, [])
    b = solve_max_total(star)
    assert a.objective_log == b.objective_log


def test_dc_star_single_commodity(star):
    sol = build_and_check_mred_dc(star, [(P(0, 1), 6, 4)])
    assert sol is not None
    assert sol.eta[P(0, 1)] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta.get(P(0, 3), 0.0) == pytest.approx(0.0, abs=1e-6)


def test_dc_star_joint_set_infeasible(star):
    # both pairs share the hub link: 6/4 + 6/6 = 2.5 exceeds its rate 2
    sol = build_and_check_mred_dc(star, [(P(0, 1), 6, 4), (P(0, 3), 6, 6)])
    assert sol is None


def test_dc_same_pair_prefix_constraints():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 2, 1.0)], [(0, 1)])
    sd = P(0, 1)
    sol = build_and_check_mred_dc(net, [(sd, 2, 4), (sd, 2, 2)])
    assert sol is not None
    assert sol.eta[sd] >= 1.0 - 1e-6

    tight = build_and_check_mred_dc(net, [(sd, 3, 4), (sd, 2, 2)])
    assert tight is not None  # needs eta >= 1.25, max is 2

    slim = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)], [(0, 1)])
    assert build_and_check_mred_dc(slim, [(sd, 3, 4), (sd, 2, 2)]) is None


def test_dc_validates_entries(star):
    with pytest.raises(ValidationError):
        build_and_check_mred_dc(star, [(P(0, 1), 3, 0.5)])
    with pytest.raises(ValidationError):
        build_and_check_mred_dc(star, [(P(1, 3), 3, 4)])


def test_dc_feasible_alone_infeasible_together(star):
    alone = build_and_check_mred_dc(star, [(P(0, 1), 6, 4)])
    assert alone is not None
    assert alone.eta[P(0, 1)] * 4 >= 6 - 1e-6
    assert build_and_check_mred_dc(star, [(P(0, 1), 6, 4), (P(0, 3), 6, 6)]) is None


def test_dc_subsets_of_feasible_stay_feasible(star):
    entries = [(P(0, 1), 4, 4), (P(0, 3), 3, 6)]
    assert build_and_check_mred_dc(star, entries) is not None
    for drop in range(len(entries)):
        subset = [e for i, e in enumerate(entries) if i != drop]
        assert build_and_check_mred_dc(star, subset) is not None


# -- validation and serialization ---------------------------------------------

def test_solver_outputs_validate_on_random_networks():
    for seed in range(6):
        net = _random_net(seed)
        sol = solve_max_total(net)
        report = check_solution(net, sol)
        assert report["ok"], (seed, report)
        assert all(v >= 0 for v in sol.f.values())
        assert all(0 <= v <= 1 for v in sol.g.values())
        assert all(v >= 0 for v in sol.eta.values())

        first_sd = net.sorted_sd[0]
        lex = solve_lexicographic(net, [first_sd])
        assert check_solution(net, lex)["ok"], seed


def test_constrained_totals_never_exceed_relaxation(star):
    base = dict(solve_max_total(star).objective_log)["total"]
    lex = dict(solve_lexicographic(star, [P(0, 1)]).objective_log)["total"]
    dc = dict(build_and_check_mred_dc(star, [(P(0, 1), 6, 4)]).objective_log)["total"]
    assert lex <= base + 1e-6
    assert dc <= base + 1e-6


def test_check_solution_flags_tampering(star):
    good = solve_max_total(star)
    assert check_solution(star, good)["ok"]

    lopsided = dict(good.f)
    key = next(iter(lopsided))
    lopsided[key] = lopsided[key] + 0.5
    report = check_solution(star, RateSolution(f=lopsided, g=good.g, eta=good.eta))
    assert not report["ok"]
    assert report["pair_symmetry"] > 1e-6 or report["balance"] > 1e-6

    hot_g = dict(good.g)
    lk = next(iter(hot_g))
    hot_g[lk] = 1.5
    report = check_solution(star, RateSolution(f=good.f, g=hot_g, eta=good.eta))
    assert report["g_out_of_range"] > 1e-6

    inflated = dict(good.eta)
    inflated[P(0, 1)] = inflated.get(P(0, 1), 0.0) + 1.0
    report = check_solution(star, RateSolution(f=good.f, g=good.g, eta=inflated))
    assert report["eta_gap"] > 1e-6


def test_solution_json_round_trip(star):
    sol = solve_max_total(star)
    back = solution_from_json(solution_to_json(sol))
    assert back.f == sol.f
    assert back.g == sol.g
    assert back.eta == sol.eta
    assert back.objective_log == sol.objective_log
    with pytest.raises(ValidationError):
        solution_from_json({"f": [[0, 1, 2]]})
