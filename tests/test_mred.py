import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import failing_backend, star_net, three_hop_line, two_hop_line
from entsched import mred
from entsched.lp import LpStatus, SolverError
from entsched.mred import (
    MredModel,
    RateSolution,
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    input_rate,
    output_rate,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
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

def test_input_rate_generation_only():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)], [(0, 1)])
    sol = RateSolution(swaps={}, g={P(0, 1): 1.0}, eta={})
    assert input_rate(net, P(0, 1), sol) == pytest.approx(1.0)


def test_input_rate_swap_term():
    net = two_hop_line(q=0.9)
    sol = RateSolution(swaps={(P(0, 2), 1): 1.0}, g={P(0, 1): 1.0, P(1, 2): 1.0}, eta={})
    assert input_rate(net, P(0, 2), sol) == pytest.approx(0.9)


def test_input_rate_zero_for_untouched_pair(star):
    assert input_rate(star, P(1, 3), zero_solution()) == 0.0


def test_input_rate_unknown_pair_raises(star):
    with pytest.raises(KeyError):
        input_rate(star, NodePair(0, 99), zero_solution())


def test_output_rate_sums_consumption():
    # 0:1 is the left lane of the swap at 1 toward 0:2 and of the swap at 0 toward 1:3
    sol = RateSolution(swaps={(P(0, 2), 1): 0.3, (P(1, 3), 0): 0.7}, g={}, eta={})
    assert output_rate(P(0, 1), sol) == pytest.approx(1.0)
    assert output_rate(P(2, 3), sol) == 0.0


# -- model construction -------------------------------------------------------

def test_model_counts_on_star(star):
    model = build_mred(star)
    # every (produced pair, swap node) combination yields one swap column
    assert model.n_f_vars == 6 * 2
    assert model.n_g_vars == 3
    assert model.n_balance_rows == 6
    # swap, link usage and surplus columns, then the fair-share floor
    assert model.A_eq.shape == (6, 12 + 3 + 6 + 1)
    assert len(model.eta_col) == 6


def test_two_node_model_has_no_staged_flows():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 3, 0.8)], [(0, 1)])
    model = build_mred(net)
    assert model.n_f_vars == 0
    sol = solve_max_total(net, model)
    assert sol.eta[P(0, 1)] == pytest.approx(2.4, abs=1e-6)
    assert sol.g[P(0, 1)] == pytest.approx(1.0, abs=1e-6)


def test_extract_clamps_solver_dust(star):
    model = build_mred(star)
    x = np.zeros(model.ncols)
    x[0] = -5e-8             # within the solver's feasibility tolerance
    x[1] = -1e-3             # a real violation, kept for check_solution to flag
    x[2] = 0.5
    lk = star.sorted_links[0]
    x[model.g_col[lk]] = 1.0 + 5e-8
    x[model.eta_col[P(0, 1)]] = -5e-8
    sol = model.extract(x, ())
    assert sol.swaps == {model.swap_ids[1]: -1e-3, model.swap_ids[2]: 0.5}
    assert sol.g == {lk: 1.0}
    assert sol.eta == {}


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
    assert not sol.eta and not sol.swaps


@pytest.mark.xfail(strict=True, reason="fair-share stage pays dust through its total slack")
def test_max_total_hands_out_no_dust_surplus():
    net = generate_waxman(6, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9, seed=0)
    net = sample_sd_pairs(net, 3, seed=100)
    sol = solve_max_total(net)
    assert dict(sol.objective_log)["total"] == pytest.approx(5.4, abs=1e-6)
    # 1e-4 ebits/slot delivers less than one ebit in 10 000 slots
    for sd in net.sorted_sd:
        eta = sol.eta.get(sd, 0.0)
        assert eta == 0.0 or eta > 1e-4, (sd, eta)


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


def _two_lane_optimum(net, objective_pairs, free_pairs):
    """Reference optimum of the two-lane formulation, built densely.

    Each (produced pair, swap node) gets a left and a right lane column
    holding the flow staged from each side, plus an equality row forcing
    the two lanes equal. Each lane adds q_k / 2 to the produced pair's
    balance row and takes its flow from its own pair's row.
    """
    pairs = net.all_pairs()
    row = {pr: i for i, pr in enumerate(pairs)}
    lanes = []
    for produced in pairs:
        for k in net.nodes:
            if k not in (produced.lo, produced.hi):
                lanes.append((P(produced.lo, k), produced, k))
                lanes.append((P(k, produced.hi), produced, k))
    links = net.sorted_links
    nl, ng, nsym = len(lanes), len(links), len(lanes) // 2
    A = np.zeros((nsym + len(pairs), nl + ng + len(pairs)))
    for s in range(nsym):
        A[s, 2 * s], A[s, 2 * s + 1] = 1.0, -1.0
    for j, (consumed, produced, k) in enumerate(lanes):
        A[nsym + row[produced], j] += 0.5 * net.q[k]
        A[nsym + row[consumed], j] -= 1.0
    for j, lk in enumerate(links):
        A[nsym + row[lk], nl + j] = net.links[lk].capacity * net.links[lk].p
    for i in range(len(pairs)):
        A[nsym + i, nl + ng + i] = -1.0
    c = np.zeros(A.shape[1])
    for pr in objective_pairs:
        c[nl + ng + row[pr]] = -1.0
    bounds = ([(0, None)] * nl + [(0, 1)] * ng
              + [(0, None if pr in free_pairs else 0) for pr in pairs])
    res = linprog(c, A_eq=A, b_eq=np.zeros(A.shape[0]), bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("seed", range(5))
def test_swap_columns_match_two_lane_reference(seed):
    net = _random_net(seed, n=6 + seed % 3)
    sd = net.sorted_sd

    def same(got, want):
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    fair = solve_max_total(net)
    same(dict(fair.objective_log)["total"], _two_lane_optimum(net, sd, sd))
    # the floor column is a maximin: it rises to the smallest SD surplus
    assert dict(fair.objective_log)["min_share"] == pytest.approx(
        min(fair.eta.get(pr, 0.0) for pr in sd), abs=1e-6)
    for pr in sd:
        same(solve_single_pair_edr(net, pr), _two_lane_optimum(net, [pr], [pr]))
    first = solve_lexicographic(net, [sd[-1]]).objective_log[0][1]
    same(first, _two_lane_optimum(net, [sd[-1]], sd))


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


def test_dc_needs_are_the_greatest_prefix_demand_over_window():
    a, b = P(0, 1), P(0, 3)
    # a's rows: 2/2, then (2 + 3)/4 and (5 + 1)/10; b's one row 1/5
    needs = mred.deadline_needs([(a, 3.0, 4.0), (b, 1.0, 5.0), (a, 2.0, 2.0), (a, 1.0, 10.0)])
    assert needs == {a: 1.25, b: 0.2}


def _covering_and_not(star, m):
    """A probe the model's max-total point covers, and a feasible one it does not."""
    eta = m.max_total_optimum()[1]
    rich, poor = max(star.sorted_sd, key=eta.get), min(star.sorted_sd, key=eta.get)
    # the max-total point splits 2 between the pairs; either pair alone gets 2
    return [(rich, 1.0, 4.0)], [(poor, 6.0, 4.0)]


def test_dc_probe_solve_counts(star):
    m = build_mred(star)
    covered, uncovered = _covering_and_not(star, m)
    assert m.solves == 1
    assert mred.deadline_covered(m, covered) and not mred.deadline_covered(m, uncovered)

    sol = build_and_check_mred_dc(star, covered, model=m)
    assert m.solves == 2
    # the covered first stage logs the cached optimum itself
    assert sol.objective_log[0] == ("total", m.max_total_optimum()[0])
    assert check_solution(star, sol)["ok"]

    assert build_and_check_mred_dc(star, uncovered, model=m) is not None
    assert m.solves == 4

    # a fresh model's first probe adds one solve for the max-total optimum
    fresh = build_mred(star)
    build_and_check_mred_dc(star, covered, model=fresh)
    assert fresh.solves == 2
    build_and_check_mred_dc(star, uncovered, model=fresh)
    assert fresh.solves == 4


def test_max_total_after_a_probe_reuses_the_total_stage():
    for seed in range(4):
        net = _random_net(seed)
        m = build_mred(net)
        build_and_check_mred_dc(net, [(net.sorted_sd[0], 1.0, 4.0)], model=m)
        before = m.solves
        plan = solve_max_total(net, model=m)
        assert m.solves - before == 1
        ref = solve_max_total(net, model=build_mred(net))
        assert plan == ref, seed


# -- the solve memo -----------------------------------------------------------

def test_repeated_probe_runs_no_lp(star):
    m = build_mred(star)
    for entries in _covering_and_not(star, m):
        first = build_and_check_mred_dc(star, entries, model=m)
        before = m.solves
        assert build_and_check_mred_dc(star, entries, model=m) == first
        assert m.solves == before


def test_memo_keys_free_pairs_as_a_set(star):
    m = build_mred(star)
    res = m.solve(m.total_objective())
    assert m.solves == 1 and not res.x.flags.writeable
    assert m.solve(m.total_objective(), eta_free=iter(reversed(star.sorted_sd))) is res
    assert m.solves == 1


def test_memo_solves_again_when_a_row_bound_differs(star):
    m = build_mred(star)
    row = {m.eta_col[P(0, 1)]: 1.0}
    loose = m.solve(m.total_objective(), extra_ub=[(row, 1.5)])
    assert m.solve(m.total_objective(), extra_ub=[(row, 1.5)]) is loose
    assert m.solves == 1
    tight = m.solve(m.total_objective(), extra_ub=[(row, 0.5)])
    assert m.solves == 2
    assert tight.x[m.eta_col[P(0, 1)]] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("status", [LpStatus.INFEASIBLE, LpStatus.UNBOUNDED])
def test_memo_keeps_only_optimal_results(star, status):
    m = build_mred(star)
    with failing_backend(status) as stub:
        assert m.solve(m.total_objective()).status == status
    assert stub.calls == 1
    res = m.solve(m.total_objective())
    assert res.status == LpStatus.OPTIMAL
    assert m.solves == 2


# -- solver failures ----------------------------------------------------------

def test_failed_stage_raises_with_its_label(star):
    with failing_backend(LpStatus.UNBOUNDED, after=1) as stub:
        with pytest.raises(SolverError, match=r"^min_share stage"):
            solve_max_total(star)
    assert stub.calls == 2


def test_dc_infeasible_first_stage_is_a_verdict_not_an_error(star):
    m = build_mred(star)
    eta = m.max_total_optimum()[1]
    # 1.5 exceeds what the cached max-total point gives this pair, so the
    # probe is uncovered and runs its first stage
    sd = min(star.sorted_sd, key=eta.get)
    entries = [(sd, 6, 4)]
    with failing_backend(LpStatus.INFEASIBLE) as stub:
        assert build_and_check_mred_dc(star, entries, model=m) is None
    assert stub.calls == 1
    # the prefix rows were feasible, so a later infeasible stage is a fault
    with failing_backend(LpStatus.INFEASIBLE, after=1):
        with pytest.raises(SolverError, match=r"^priority_total stage"):
            build_and_check_mred_dc(star, entries, model=m)
    # the cached max-total solve has no rows of its own: failing is a fault
    with failing_backend(LpStatus.INFEASIBLE) as stub:
        with pytest.raises(SolverError, match=r"^total stage"):
            build_and_check_mred_dc(star, entries)
    assert stub.calls == 1


# -- validation ---------------------------------------------------------------

def test_solver_outputs_validate_on_random_networks():
    for seed in range(6):
        net = _random_net(seed)
        sol = solve_max_total(net)
        report = check_solution(net, sol)
        assert report["ok"], (seed, report)
        assert all(v >= 0 for v in sol.swaps.values())
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

    bumped = dict(good.swaps)
    key = next(iter(bumped))
    bumped[key] = bumped[key] + 0.5
    report = check_solution(star, RateSolution(swaps=bumped, g=good.g, eta=good.eta))
    assert not report["ok"]
    assert report["balance"] > 1e-6

    hot_g = dict(good.g)
    lk = next(iter(hot_g))
    hot_g[lk] = 1.5
    report = check_solution(star, RateSolution(swaps=good.swaps, g=hot_g, eta=good.eta))
    assert report["g_out_of_range"] > 1e-6

    inflated = dict(good.eta)
    inflated[P(0, 1)] = inflated.get(P(0, 1), 0.0) + 1.0
    report = check_solution(star, RateSolution(swaps=good.swaps, g=good.g, eta=inflated))
    assert report["eta_gap"] > 1e-6

