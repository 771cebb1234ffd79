import re

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import failing_backend, recording_backend, star_net, three_hop_line, two_hop_line
from entsched import lp, mred, topology
from entsched.lp import LpStatus, SolverError
from entsched.mred import (
    MredModel,
    RateSolution,
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    deadline_verdict,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
)
from entsched.topology import (
    NodePair,
    ValidationError,
    build_manual,
    canonical_pair,
    generate_waxman,
    sample_sd_pairs,
)
from entsched.workload import MAX_COMMODITY_DEMAND

P = canonical_pair


def _random_net(seed, n=8, sd_count=3):
    net = generate_waxman(n, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=0.9, seed=seed)
    return sample_sd_pairs(net, sd_count, seed=seed + 1000)


# -- rate bookkeeping ---------------------------------------------------------

def test_input_rate_generation_only():
    # a used two-node link makes 1.0, which the SD surplus must claim
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)], [(0, 1)])
    sol = RateSolution(swaps={}, g={P(0, 1): 1.0}, eta={})
    assert check_solution(net, sol)["eta_gap"] == pytest.approx(1.0)
    assert check_solution(net, RateSolution(swaps={}, g=sol.g, eta={P(0, 1): 1.0}))["ok"]


def test_input_rate_swap_term():
    # one swap at 1 makes q = 0.9 of 0:2 and uses up both links' output
    net = two_hop_line(q=0.9)
    sol = RateSolution(swaps={(P(0, 2), 1): 1.0}, g={P(0, 1): 1.0, P(1, 2): 1.0}, eta={})
    report = check_solution(net, sol)
    assert report["balance"] == 0.0
    assert report["eta_gap"] == pytest.approx(0.9)


def test_input_rate_zero_for_untouched_pair(star):
    # a swap at the hub makes 0:1 from links 0:2 and 1:2, each run at half;
    # 1:3, 2:3 and 0:3 are untouched and leave no residual
    sol = RateSolution(swaps={(P(0, 1), 2): 1.0}, g={P(0, 2): 0.5, P(1, 2): 0.5},
                       eta={P(0, 1): 1.0})
    report = check_solution(star, sol)
    assert report.pop("ok")
    assert set(report.values()) == {0.0}


def test_output_rate_sums_consumption(star):
    # 0:1 is the left lane of the swap at 1 toward 0:2 and of the swap at 0
    # toward 1:3, so the SD pair 0:1 runs 0.3 + 0.7 short
    sol = RateSolution(swaps={(P(0, 2), 1): 0.3, (P(1, 3), 0): 0.7}, g={}, eta={})
    assert check_solution(star, sol)["sd_deficit"] == pytest.approx(1.0)


@pytest.mark.parametrize("sol", [
    RateSolution(swaps={(NodePair(0, 99), 2): 0.5}, g={}, eta={}),
    RateSolution(swaps={(P(0, 1), 99): 0.5}, g={}, eta={}),
    RateSolution(swaps={}, g={NodePair(0, 99): 0.5}, eta={}),
], ids=["produced-pair", "swap-node", "link"])
def test_check_solution_plan_outside_network_raises(star, sol):
    with pytest.raises(KeyError):
        check_solution(star, sol)


# -- model construction -------------------------------------------------------

def test_model_counts_on_star(star):
    model = build_mred(star)
    # every (produced pair, swap node) combination yields one swap column
    assert len(model.swap_pair) == 6 * 2
    assert len(model.g_col) == 3
    # one balance row per pair; swap, link usage and SD surplus columns,
    # then the fair-share floor
    assert model.A_eq.shape == (6, 12 + 3 + 2 + 1)
    assert len(model.eta_col) == 2


def test_two_node_model_has_no_staged_flows():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 3, 0.8)], [(0, 1)])
    model = build_mred(net)
    assert len(model.swap_pair) == 0
    sol = solve_max_total(net, model)
    assert sol.eta[P(0, 1)] == pytest.approx(2.4, abs=1e-6)
    assert sol.g[P(0, 1)] == pytest.approx(1.0, abs=1e-6)


def test_extract_clamps_solver_dust(star):
    # every value is clipped onto its column's bounds, however far out:
    # the backend has refused a point more than `lp.margin` outside them
    model = build_mred(star)
    x = np.zeros(model.ncols)
    x[0] = -5e-8             # within the solver's feasibility tolerance
    x[1] = -1e-3             # far out: clipped too
    x[2] = 0.5
    x[3] = mred.DROP_TOL     # kept, as link usage and surpluses always were
    x[4] = 5e-13             # below DROP_TOL
    x[5] = -1e-7
    x[6] = -2e-7
    lk, lk2, lk3 = star.sorted_links
    x[model.g_col[lk]] = 1.0 + 5e-8
    x[model.g_col[lk2]] = 3.0
    x[model.g_col[lk3]] = mred.DROP_TOL
    x[model.eta_col[P(0, 1)]] = -5e-8
    x[model.eta_col[P(0, 3)]] = -2e-7
    sol = model.extract(x, ())
    # columns 2 and 3: pair 0:2 swapped at nodes 1 and 3
    assert sol.swaps == {(P(0, 2), 1): 0.5, (P(0, 2), 3): mred.DROP_TOL}
    assert sol.g == {lk: 1.0, lk2: 1.0, lk3: mred.DROP_TOL}
    assert sol.eta == {}
    report = check_solution(star, sol)
    assert report["swap_negative"] == report["g_out_of_range"] == report["eta_negative"] == 0.0


def test_zero_assignment_satisfies_balance(star):
    # untouched pairs have no residual
    report = check_solution(star, RateSolution(swaps={}, g={}, eta={}))
    assert report.pop("ok")
    assert set(report.values()) == {0.0}


# -- whole-set solves ---------------------------------------------------------

@pytest.mark.parametrize("c1,p1,c2,p2,q,expect", [
    (1, 0.5, 1, 0.5, 1.0, 0.5),
    (2, 1.0, 2, 1.0, 0.9, 1.8),
    (4, 0.9, 4, 0.5, 0.5, 1.0),
])
def test_two_hop_closed_form(c1, p1, c2, p2, q, expect):
    net = two_hop_line(c1=c1, p1=p1, c2=c2, p2=p2, q=q)
    sol = solve_max_total(net, build_mred(net))
    assert sol.eta.get(P(0, 2), 0.0) == pytest.approx(expect, abs=1e-6)


def test_max_total_star_fair_split(star):
    sol = solve_max_total(star, build_mred(star))
    assert sol.objective_log[0][0] == "total"
    assert sol.objective_log[0][1] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta[P(0, 1)] == pytest.approx(1.0, abs=1e-6)
    assert sol.eta[P(0, 3)] == pytest.approx(1.0, abs=1e-6)


def test_max_total_without_sd_pairs():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)])
    sol = solve_max_total(net, build_mred(net))
    assert sol.objective_log == (("total", 0.0),)
    assert not sol.eta and not sol.swaps


@pytest.mark.xfail(strict=True, reason="fair-share stage pays dust through its total slack")
def test_max_total_hands_out_no_dust_surplus():
    net = generate_waxman(6, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9, seed=0)
    net = sample_sd_pairs(net, 3, seed=100)
    sol = solve_max_total(net, build_mred(net))
    assert dict(sol.objective_log)["total"] == pytest.approx(5.4, abs=1e-6)
    # 1e-4 ebits/slot delivers less than one ebit in 10 000 slots
    for sd in net.sorted_sd:
        eta = sol.eta.get(sd, 0.0)
        assert eta == 0.0 or eta > 1e-4, (sd, eta)


def test_single_pair_edr_star(star):
    assert solve_single_pair_edr(star, P(0, 1), build_mred(star)) == pytest.approx(2.0, abs=1e-6)
    assert solve_single_pair_edr(star, P(0, 3), build_mred(star)) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("plan", [
    lambda net, m: solve_single_pair_edr(net, (3, 1), m),
    lambda net, m: solve_lexicographic(net, [(3, 1)], m),
    lambda net, m: build_and_check_mred_dc(net, [((3, 1), 1.0, 4.0)], m),
    lambda net, m: deadline_verdict(m, [], ((3, 1), 1.0, 4.0)),
    lambda net, m: deadline_verdict(m, [((3, 1), 1.0, 4.0)], ((0, 1), 1.0, 4.0)),
    lambda net, m: deadline_verdict(m, [((3, 1), 1.0, 0.0)], ((0, 1), 1.0, 4.0)),
], ids=["solve_single_pair_edr", "solve_lexicographic", "build_and_check_mred_dc",
        "deadline_verdict", "deadline_verdict_admitted", "deadline_verdict_admitted_window_0"])
def test_single_pair_edr_refuses_a_non_sd_pair(star, plan):
    # every planner canonicalizes the pair it is given and refuses a non-SD
    # pair with one message, before any LP
    model = build_mred(star)
    with pytest.raises(ValidationError, match=r"^pair 1:3 is not an SD pair$"):
        plan(star, model)
    assert model.solves == 0


def test_a_planner_refuses_a_model_built_for_another_network(star):
    # an equal network is not the model's network: the run's memo and solve
    # count would miss the LP
    model = build_mred(star_net())
    with pytest.raises(ValidationError, match="^model was built for a different network"):
        solve_single_pair_edr(star, P(0, 1), model)
    assert model.solves == 0


def test_a_solo_rate_the_solver_does_not_solve_is_a_solver_error(star):
    with failing_backend(LpStatus.INFEASIBLE) as stub:
        with pytest.raises(SolverError, match="^single-pair rate for 0:1: solver returned "
                                              "infeasible$"):
            solve_single_pair_edr(star, P(0, 1), build_mred(star))
    assert stub.calls == 1


def test_single_pair_edr_disconnected_is_zero():
    net = build_manual(
        [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        [(0, 1, 2, 1.0), (2, 3, 2, 1.0)],
        [(0, 2)],
    )
    assert solve_single_pair_edr(net, P(0, 2), build_mred(net)) == 0.0


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
    net = three_hop_line()
    got = solve_single_pair_edr(net, P(0, 3), build_mred(net))
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


# the solo-rate reference frees only that pair, so this also checks free disposal
@pytest.mark.parametrize("seed", range(12))
def test_swap_columns_match_two_lane_reference(seed):
    net = _random_net(seed, n=6 + seed % 3)
    sd = net.sorted_sd

    def same(got, want):
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    fair = solve_max_total(net, build_mred(net))
    same(dict(fair.objective_log)["total"], _two_lane_optimum(net, sd, sd))
    # the floor column is a maximin: it rises to the smallest SD surplus
    assert dict(fair.objective_log)["min_share"] == pytest.approx(
        min(fair.eta.get(pr, 0.0) for pr in sd), abs=1e-6)
    for pr in sd:
        same(solve_single_pair_edr(net, pr, build_mred(net)), _two_lane_optimum(net, [pr], [pr]))
    first = solve_lexicographic(net, [sd[-1]], build_mred(net)).objective_log[0][1]
    same(first, _two_lane_optimum(net, [sd[-1]], sd))


# -- lexicographic ------------------------------------------------------------

def test_lexicographic_star_priority(star):
    sol = solve_lexicographic(star, [P(0, 1)], build_mred(star))
    labels = [label for label, _ in sol.objective_log]
    assert labels == ["eta[0:1]", "total"]
    assert sol.objective_log[0][1] == pytest.approx(2.0, abs=1e-6)
    # the hub link is exhausted by the prioritized pair
    assert sol.objective_log[1][1] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta[P(0, 1)] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta.get(P(0, 3), 0.0) == pytest.approx(0.0, abs=1e-6)


def test_lexicographic_empty_equals_max_total(star):
    a = solve_lexicographic(star, [], build_mred(star))
    b = solve_max_total(star, build_mred(star))
    assert a.objective_log == b.objective_log
    assert a.eta.keys() == b.eta.keys()
    for pr in a.eta:
        assert a.eta[pr] == pytest.approx(b.eta[pr], abs=1e-9)


def test_lexicographic_rejects_bad_priorities(star):
    with pytest.raises(ValidationError):
        solve_lexicographic(star, [P(0, 1), P(0, 1)], build_mred(star))
    with pytest.raises(ValidationError):
        solve_lexicographic(star, [P(1, 3)], build_mred(star))


def test_lexicographic_disjoint_order_invariance():
    net = build_manual(
        [(v, 1.0) for v in range(6)],
        [(0, 1, 2, 1.0), (1, 2, 2, 1.0), (3, 4, 1, 1.0), (4, 5, 1, 1.0)],
        [(0, 2), (3, 5)],
    )
    ab = solve_lexicographic(net, [P(0, 2), P(3, 5)], build_mred(net))
    ba = solve_lexicographic(net, [P(3, 5), P(0, 2)], build_mred(net))
    by_label_ab = dict(ab.objective_log)
    by_label_ba = dict(ba.objective_log)
    for label in ("eta[0:2]", "eta[3:5]"):
        assert by_label_ab[label] == pytest.approx(by_label_ba[label], abs=1e-6)


def test_lexicographic_stage_matches_independent_resolve(star):
    sol = solve_lexicographic(star, [P(0, 1), P(0, 3)], build_mred(star))
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
    a = build_and_check_mred_dc(star, [], build_mred(star))
    b = solve_max_total(star, build_mred(star))
    assert a.objective_log == b.objective_log


def test_dc_star_single_commodity(star):
    sol = build_and_check_mred_dc(star, [(P(0, 1), 6, 4)], build_mred(star))
    assert sol is not None
    assert sol.eta[P(0, 1)] == pytest.approx(2.0, abs=1e-6)
    assert sol.eta.get(P(0, 3), 0.0) == pytest.approx(0.0, abs=1e-6)


def test_dc_star_joint_set_infeasible(star):
    # both pairs share the hub link: 6/4 + 6/6 = 2.5 exceeds its rate 2
    sol = build_and_check_mred_dc(star, [(P(0, 1), 6, 4), (P(0, 3), 6, 6)], build_mred(star))
    assert sol is None


def test_dc_same_pair_prefix_constraints():
    net = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 2, 1.0)], [(0, 1)])
    sd = P(0, 1)
    sol = build_and_check_mred_dc(net, [(sd, 2, 4), (sd, 2, 2)], build_mred(net))
    assert sol is not None
    assert sol.eta[sd] >= 1.0 - 1e-6

    tight = build_and_check_mred_dc(net, [(sd, 3, 4), (sd, 2, 2)], build_mred(net))
    assert tight is not None  # needs eta >= 1.25, max is 2

    slim = build_manual([(0, 1.0), (1, 1.0)], [(0, 1, 1, 1.0)], [(0, 1)])
    assert build_and_check_mred_dc(slim, [(sd, 3, 4), (sd, 2, 2)], build_mred(slim)) is None


def test_dc_validates_entries(star):
    with pytest.raises(ValidationError):
        build_and_check_mred_dc(star, [(P(0, 1), 3, 0.5)], build_mred(star))
    with pytest.raises(ValidationError):
        build_and_check_mred_dc(star, [(P(1, 3), 3, 4)], build_mred(star))
    # a NaN window or demand compares false both ways, and was planned as covered
    nan = float("nan")
    for entry, field in (((P(0, 1), 3.0, nan), "slots"), ((P(0, 1), nan, 4.0), "demand")):
        message = f"^pair 0:1: remaining {field} must be a finite number, got nan$"
        with pytest.raises(ValidationError, match=message):
            build_and_check_mred_dc(star, [entry], build_mred(star))
        with pytest.raises(ValidationError, match=message):
            deadline_verdict(build_mred(star), [], entry)


def test_dc_feasible_alone_infeasible_together(star):
    alone = build_and_check_mred_dc(star, [(P(0, 1), 6, 4)], build_mred(star))
    assert alone is not None
    assert alone.eta[P(0, 1)] * 4 >= 6 - 1e-6
    assert build_and_check_mred_dc(star, [(P(0, 1), 6, 4), (P(0, 3), 6, 6)], build_mred(star)) is None


def test_dc_subsets_of_feasible_stay_feasible(star):
    entries = [(P(0, 1), 4, 4), (P(0, 3), 3, 6)]
    assert build_and_check_mred_dc(star, entries, build_mred(star)) is not None
    for drop in range(len(entries)):
        subset = [e for i, e in enumerate(entries) if i != drop]
        assert build_and_check_mred_dc(star, subset, build_mred(star)) is not None


def test_dc_needs_are_the_greatest_prefix_demand_over_window():
    a, b = P(0, 1), P(0, 3)
    # a's rows: 2/2, then (2 + 3)/4 and (5 + 1)/10; b's one row 1/5
    needs = mred.deadline_needs([(a, 3.0, 4.0), (b, 1.0, 5.0), (a, 2.0, 2.0), (a, 1.0, 10.0)])
    assert needs == {a: 1.25, b: 0.2}


def _covering_and_not(star):
    """Two probes the max-total face covers, and a feasible one it does not.

    Either pair alone gets the hub's whole rate 2, while the max-total
    point gives 0:1 all of it; the face point feeding both pairs is that
    same vertex, which misses the 1.2/0.8 split.
    """
    rich, poor = P(0, 1), P(0, 3)
    return [(rich, 1.0, 4.0)], [(poor, 6.0, 4.0)], [(rich, 4.8, 4.0), (poor, 3.2, 4.0)]


def test_dc_probe_solve_counts(star):
    m = build_mred(star)
    v = m.solve(m.total_objective()).objective
    covered, poor, uncovered = _covering_and_not(star)
    assert m.solves == 1

    sol = build_and_check_mred_dc(star, covered, model=m)
    assert m.solves == 2
    # the face plan logs the max-total optimum itself
    assert sol.objective_log[0] == ("total", v)
    assert check_solution(star, sol)["ok"]

    # the max-total point gives the poor pair nothing, but its face plan
    # feeds it the whole rate: one LP for the pair set
    assert build_and_check_mred_dc(star, poor, model=m).eta == {P(0, 3): 2.0}
    assert m.solves == 3
    assert mred.face_plan(m, mred.deadline_needs(uncovered)) is None
    assert m.solves == 4
    # a probe the face misses runs both stages after it
    assert build_and_check_mred_dc(star, uncovered, model=m) is not None
    assert m.solves == 6

    # a fresh model's first probe adds one solve for the max-total optimum
    fresh = build_mred(star)
    build_and_check_mred_dc(star, covered, model=fresh)
    assert fresh.solves == 2
    build_and_check_mred_dc(star, poor, model=fresh)
    assert fresh.solves == 3
    build_and_check_mred_dc(star, uncovered, model=fresh)
    assert fresh.solves == 6


def test_face_plan_answers_every_probe_on_its_pair_set(star):
    m = build_mred(star)
    plan = mred.face_plan(m, mred.deadline_needs([(P(0, 3), 6.0, 4.0)]))
    before = m.solves
    # the program depends only on the pairs, so other needs cost no LP
    assert mred.face_plan(m, mred.deadline_needs([(P(0, 3), 1.0, 2.0), (P(0, 3), 7.0, 9.0)])) == plan
    assert mred.face_plan(m, mred.deadline_needs([(P(0, 3), 9.0, 4.0)])) is None
    assert m.solves == before


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
    for entries in _covering_and_not(star):
        first = build_and_check_mred_dc(star, entries, model=m)
        before = m.solves
        assert build_and_check_mred_dc(star, entries, model=m) == first
        assert m.solves == before


def test_memo_returns_a_kept_optimum_read_only(star):
    m = build_mred(star)
    res = m.solve(m.total_objective())
    assert m.solves == 1 and not res.x.flags.writeable
    assert m.solve(m.total_objective()) is res
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


def test_memo_solves_again_when_a_surplus_lower_bound_differs(star):
    m = build_mred(star)
    loose = m.solve(m.total_objective(), eta_lower={P(0, 3): 0.5})
    assert m.solve(m.total_objective(), eta_lower={P(0, 3): 0.5}) is loose
    assert m.solves == 1
    tight = m.solve(m.total_objective(), eta_lower={P(0, 3): 1.5})
    assert m.solves == 2
    assert tight.x[m.eta_col[P(0, 3)]] >= 1.5
    assert m.solve(m.total_objective(), eta_lower={P(0, 3): 2.5}).status == LpStatus.INFEASIBLE


def test_a_later_stage_takes_fewer_iterations_warm_than_cold():
    # a start basis the solver ignored would cost a cold solve's iterations
    net = _random_net(3, n=10)
    with recording_backend() as backend:
        solve_max_total(net, build_mred(net))
    (_, first), (c, later) = backend.calls
    assert first["start"] is None and later["start"] is not None
    warm = backend.real.solve(c, **later)
    cold = backend.real.solve(c, **{**later, "start": None})
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
    assert 0 < warm.iterations < cold.iterations


def test_a_need_bounded_first_stage_starts_from_the_max_total_basis(star):
    # the face plan misses the 1.2/0.8 split, so the needs bound the surpluses
    m = build_mred(star)
    entries = _covering_and_not(star)[2]
    with recording_backend() as backend:
        assert deadline_verdict(m, entries[:1], entries[1]) == "solved"
    V = m.solve(m.total_objective())
    bounded = [kw for _, kw in backend.calls
               if len(kw["ub_rows"]) == 0 and (kw["bounds"][:, 0] > 0).any()]
    assert len(bounded) == 1 and bounded[0]["start"] is V.basis
    needs = mred.deadline_needs(entries)
    warm = m.solve(m.total_objective(), eta_lower=needs, start=V)
    cold = build_mred(star).solve(m.total_objective(), eta_lower=needs)
    assert warm.status == cold.status == LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.iterations < cold.iterations
    # the plan's first stage is the verdict's program: the memo answers it
    before = m.solves
    build_and_check_mred_dc(star, entries, model=m)
    assert m.solves == before + 1
    # a need past the hub's rate is infeasible from that start too
    beyond = (P(0, 3), 12.0, 4.0)
    with recording_backend() as backend:
        assert deadline_verdict(m, [], beyond) == "infeasible"
    assert backend.calls[-1][1]["start"] is V.basis
    assert m.bound_armed == {P(0, 3)}


def test_a_start_only_sets_where_the_solver_begins(star):
    # a bounded program's costs come from its shape, so with or without a
    # start it is one program: one memo entry, one solve, the same costs
    needs = {P(0, 3): 0.5}
    m = build_mred(star)
    V = m.solve(m.total_objective())
    with recording_backend() as backend:
        warm = m.solve(m.total_objective(), eta_lower=needs, start=V)
        assert m.solve(m.total_objective(), eta_lower=needs) is warm
        cold = build_mred(star).solve(m.total_objective(), eta_lower=needs)
    assert m.solves == 2
    (c_warm, kw_warm), (c_cold, kw_cold) = backend.calls
    assert kw_warm["start"] is V.basis and kw_cold["start"] is None
    assert np.array_equal(c_warm, c_cold)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def _dear_line(q):
    """Path 0-1-2-3 at swap probability `q`, its links at capacity 10**6,
    and a capacity-1 link 3-4 to a node at q = 1; SD pairs 0:3 and 3:4,
    each of solo rate 1.0 at q = 0.001. An ebit of 0:3 takes about
    2 / q**2 link ebits."""
    return build_manual(
        nodes=[(0, q), (1, q), (2, q), (3, q), (4, 1.0)],
        links=[(0, 1, 10**6, 1.0), (1, 2, 10**6, 1.0), (2, 3, 10**6, 1.0), (3, 4, 1, 1.0)],
        sd_pairs=[(0, 3), (3, 4)],
    )


def test_tie_keeps_a_pair_whose_ebits_cost_under_a_million_link_ebits():
    net = _dear_line(0.01)
    m = build_mred(net)
    assert solve_single_pair_edr(net, P(0, 3), m) == pytest.approx(100.0, rel=1e-9)
    sol = solve_lexicographic(net, [P(3, 4)], m)
    assert dict(sol.objective_log)["total"] == pytest.approx(101.0, rel=1e-6)
    assert sol.eta[P(0, 3)] == pytest.approx(100.0, rel=1e-6)


@pytest.mark.xfail(strict=True, reason="TIE outweighs an SD ebit that costs over 1/TIE link ebits")
def test_tie_keeps_a_pair_whose_ebits_cost_over_a_million_link_ebits():
    net = _dear_line(0.001)
    m = build_mred(net)
    assert solve_single_pair_edr(net, P(0, 3), m) == pytest.approx(1.0, rel=1e-9)
    assert solve_single_pair_edr(net, P(3, 4), m) == pytest.approx(1.0, rel=1e-9)
    sol = solve_lexicographic(net, [P(3, 4)], m)
    assert dict(sol.objective_log)["total"] == pytest.approx(2.0, rel=1e-6)


def _six_nodes(capacity):
    """A 6-node Waxman network at p = q = 0.9 with every link of `capacity`,
    and three SD pairs: the same links and pairs at any capacity."""
    net = generate_waxman(6, 0.8, 0.8, capacity, capacity, 0.9, 0.9, seed=5)
    return sample_sd_pairs(net, 3, seed=5)


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="HiGHS calls the min_share stage unbounded at capacity 1e8")
def test_max_total_scales_with_every_capacity():
    # the two programs differ only by the scale of the link columns, so the
    # plan's total scales with them
    unit, scaled = (dict(solve_max_total(net, build_mred(net)).objective_log)["total"]
                    for net in map(_six_nodes, (1, 10**8)))
    assert unit == pytest.approx(3.42, rel=1e-6)
    assert abs(scaled - 1e8 * unit) <= lp.margin(1e8 * unit)


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
            solve_max_total(star, build_mred(star))
    assert stub.calls == 2


def test_dc_infeasible_first_stage_is_a_verdict_not_an_error(star):
    m = build_mred(star)
    m.solve(m.total_objective())
    entries = _covering_and_not(star)[2]
    # the face program runs first; its one row holds the total, so failing
    # is a fault
    with failing_backend(LpStatus.INFEASIBLE) as stub:
        with pytest.raises(SolverError, match=r"^priority_total stage"):
            build_and_check_mred_dc(star, entries, model=m)
    assert stub.calls == 1
    # the face point misses a need, so the deadline rows' first stage runs
    with failing_backend(LpStatus.INFEASIBLE, after=1) as stub:
        assert build_and_check_mred_dc(star, entries, model=m) is None
    assert stub.calls == 2
    # the prefix rows were feasible, so a later infeasible stage is a fault
    with failing_backend(LpStatus.INFEASIBLE, after=1):
        with pytest.raises(SolverError, match=r"^priority_total stage"):
            build_and_check_mred_dc(star, entries, model=m)
    # the max-total solve has no rows of its own: failing is a fault
    with failing_backend(LpStatus.INFEASIBLE) as stub:
        with pytest.raises(SolverError, match=r"^total stage"):
            build_and_check_mred_dc(star, entries, build_mred(star))
    assert stub.calls == 1


@pytest.mark.parametrize("case", ["huge-capacity"])
def test_dc_model_the_solver_refuses_raises_instead_of_reading_infeasible(case, monkeypatch):
    # HiGHS refuses to load a matrix coefficient of 9e18 (capacity * p);
    # the program is not infeasible. Such a network passes only with the
    # capacity limit raised past it
    monkeypatch.setattr(topology, "MAX_CAPACITY", 10**20)
    net = build_manual(nodes=[(0, 0.9), (1, 0.9), (2, 0.9)],
                       links=[(0, 1, 10**19, 0.9), (1, 2, 2, 0.9)], sd_pairs=[(0, 2)])
    with pytest.raises(SolverError, match="kModelError"):
        build_and_check_mred_dc(net, [(P(0, 2), 6, 4)], build_mred(net))


def test_dc_huge_window_is_a_verdict(star):
    # a need is a column bound, not a row coefficient, so a window of 1e15
    # reaches the solver as the need 9.007, beyond the hub rate 2, and a
    # window of 1e19 as the need 9e-4, which the plan meets
    assert build_and_check_mred_dc(star, [(P(0, 1), MAX_COMMODITY_DEMAND, 10**15)],
                                   build_mred(star)) is None
    plan = build_and_check_mred_dc(star, [(P(0, 1), MAX_COMMODITY_DEMAND, 10**19)], build_mred(star))
    assert plan.eta[P(0, 1)] * 10**19 >= MAX_COMMODITY_DEMAND
    # the demand of 1e20 this case once used is past the limit
    with pytest.raises(ValidationError, match="exceeds the maximum"):
        build_and_check_mred_dc(star, [(P(0, 1), 10**20, 10**19)], build_mred(star))


@pytest.mark.parametrize("demand", [1e21, 1e30])
def test_dc_demand_past_the_limit_is_a_config_error(star, demand):
    # a need of 1e20 or more is HiGHS's infinite bound, and the model was
    # refused with kModelError; both entry points refuse the entry first
    message = re.escape(f"pair {P(0, 1)}: remaining demand {demand} exceeds the maximum "
                        f"{MAX_COMMODITY_DEMAND}")
    m = build_mred(star)
    with pytest.raises(ValidationError, match=message):
        build_and_check_mred_dc(star, [(P(0, 1), demand, 1.0)], m)
    with pytest.raises(ValidationError, match=message):
        deadline_verdict(m, [], (P(0, 1), demand, 1.0))
    assert m.solves == 0


def test_dc_demand_at_the_limit_keeps_its_verdict(star):
    entry = (P(0, 1), float(MAX_COMMODITY_DEMAND), 1.0)
    assert build_and_check_mred_dc(star, [entry], build_mred(star)) is None
    assert deadline_verdict(build_mred(star), [], entry) == "infeasible"


# -- validation ---------------------------------------------------------------

def test_solver_outputs_validate_on_random_networks():
    for seed in range(6):
        net = _random_net(seed)
        sol = solve_max_total(net, build_mred(net))
        report = check_solution(net, sol)
        assert report["ok"], (seed, report)
        assert all(v >= 0 for v in sol.swaps.values())
        assert all(0 <= v <= 1 for v in sol.g.values())
        assert all(v >= 0 for v in sol.eta.values())

        first_sd = net.sorted_sd[0]
        lex = solve_lexicographic(net, [first_sd], build_mred(net))
        assert check_solution(net, lex)["ok"], seed


def test_constrained_totals_never_exceed_relaxation(star):
    base = dict(solve_max_total(star, build_mred(star)).objective_log)["total"]
    lex = dict(solve_lexicographic(star, [P(0, 1)], build_mred(star)).objective_log)["total"]
    dc = dict(build_and_check_mred_dc(star, [(P(0, 1), 6, 4)], build_mred(star)).objective_log)["total"]
    assert lex <= base + 1e-6
    assert dc <= base + 1e-6


def test_check_solution_flags_tampering(star):
    good = solve_max_total(star, build_mred(star))
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

