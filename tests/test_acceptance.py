"""End-to-end acceptance gate.

Each test covers one headline behavior of the package at a pinned
tolerance and prints a single summary line. They are intentionally
heavier than the unit tests; the whole module stays well under the
ten-minute envelope of the trend study.
"""

import json
import time

import numpy as np
import pytest

from conftest import star_net, two_hop_line
from entsched.engine import run_simulation
from entsched.mred import (
    build_and_check_mred_dc,
    build_mred,
    check_solution,
    solve_lexicographic,
    solve_max_total,
)
from entsched.rng import child_int, child_seed
from entsched.scheduler import POLICY_BASELINE, POLICY_DEADLINE, POLICY_ORDERED
from entsched.topology import canonical_pair, generate_waxman, sample_sd_pairs
from entsched.workload import Commodity, DeadlineSpec, WorkloadConfig, generate_workload

P = canonical_pair
AB = P(0, 1)
AD = P(0, 3)

SEEDS = (1, 2, 3, 4, 5)


def _c(cid, sd, demand, arrival=1, deadline=None):
    return Commodity(id=cid, sd=sd, demand=demand, arrival=arrival, deadline=deadline)


def _deadline_case(seed, rate, demand):
    net = generate_waxman(
        12, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=0.9,
        seed=child_int(seed, "topology"),
    )
    net = sample_sd_pairs(net, 4, seed=child_int(seed, "sd"))
    cfg = WorkloadConfig(
        rate=rate, mean_demand=demand, min_demand=max(2, round(demand / 6)),
        horizon=round(60 / rate), deadline=DeadlineSpec(0.4, 0.1),
    )
    demands = generate_workload(cfg, net.sorted_sd, seed=child_int(seed, "workload"))
    return net, demands


def _open_case(seed, demand):
    net = generate_waxman(
        12, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=1, p=0.9, q=0.9,
        seed=child_int(seed, "topology"),
    )
    net = sample_sd_pairs(net, 6, seed=child_int(seed, "sd"))
    cfg = WorkloadConfig(rate=1.0, mean_demand=demand, min_demand=5, horizon=60)
    demands = generate_workload(cfg, net.sorted_sd, seed=child_int(seed, "workload"))
    return net, demands


def test_c1_exact_small_network_behavior():
    """Hub-contended four-node network: rates and full runs are exact."""
    started = time.perf_counter()
    star = star_net()

    fair = solve_max_total(star, build_mred(star))
    assert fair.eta[AB] == pytest.approx(1.0, abs=1e-6)
    assert fair.eta[AD] == pytest.approx(1.0, abs=1e-6)

    focused = solve_lexicographic(star, [AB], build_mred(star))
    assert focused.eta[AB] == pytest.approx(2.0, abs=1e-6)
    assert focused.eta.get(AD, 0.0) == pytest.approx(0.0, abs=1e-6)

    open_ended = [_c(0, AB, 6), _c(1, AD, 6)]
    base_open = run_simulation(star, open_ended, POLICY_BASELINE, seed=1)
    assert sorted(c.completed_slot for c in base_open.commodities) == [6, 6]
    assert base_open.metrics.avg_completion_time == 6.0

    ordered = run_simulation(star, open_ended, POLICY_ORDERED, seed=1)
    times = sorted(c.completed_slot for c in ordered.commodities)
    assert times == [3, 6]
    assert ordered.metrics.avg_completion_time == 4.5
    assert ordered.metrics.avg_completion_time == 0.75 * base_open.metrics.avg_completion_time

    with_deadlines = [_c(0, AB, 6, deadline=4), _c(1, AD, 6, deadline=6)]
    base = run_simulation(star, with_deadlines, POLICY_BASELINE, seed=1)
    assert base.metrics.success_ratio == 0.5
    by_id = {c.id: c for c in base.commodities}
    assert by_id[0].remaining == 2 and by_id[1].completed_slot == 6

    deadline = run_simulation(star, with_deadlines, POLICY_DEADLINE, seed=1)
    assert deadline.metrics.success_ratio == 1.0
    assert sorted(c.completed_slot for c in deadline.commodities) == [3, 6]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[1] PASS exact small-network behavior: fair split (1,1), focused (2,0), "
          f"runs 6.0 / 4.5 / 0.5 / 1.0 in {elapsed:.2f}s")


def test_c2_two_hop_rate_closed_form():
    """Max rate over one swap equals q * min of the two link rates."""
    started = time.perf_counter()
    worst = 0.0
    combos = 0
    for c1 in (1, 2, 4):
        for c2 in (1, 2, 4):
            for p in (0.5, 0.9, 1.0):
                for q in (0.5, 0.9, 1.0):
                    net = two_hop_line(c1=c1, p1=p, c2=c2, p2=p, q=q)
                    sol = solve_max_total(net, build_mred(net))
                    expect = q * min(c1 * p, c2 * p)
                    got = sol.eta.get(P(0, 2), 0.0)
                    worst = max(worst, abs(got - expect))
                    combos += 1
    elapsed = time.perf_counter() - started
    assert combos == 81
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"[2] PASS two-hop closed form: 81 combos, max |error| {worst:.2e} "
          f"in {elapsed:.2f}s")


def test_c3_two_link_line_long_run_throughput():
    """Realized delivery over 100k slots tracks the planned 1.62 per slot."""
    started = time.perf_counter()
    net = two_hop_line(c1=2, p1=0.9, c2=2, p2=0.9, q=0.9)
    slots = 100_000
    sink = _c(0, P(0, 2), 10 ** 9)
    result = run_simulation(net, [sink], POLICY_BASELINE, seed=7, horizon_cap=slots)
    delivered = 10 ** 9 - result.commodities[0].remaining
    rate = delivered / slots
    elapsed = time.perf_counter() - started
    assert result.metrics.slots == slots
    assert rate == pytest.approx(1.62, rel=0.05)
    assert elapsed < 30.0
    print(f"[3] PASS long-run throughput: {rate:.4f} per slot vs 1.62 planned "
          f"({abs(rate / 1.62 - 1) * 100:.2f}% off) in {elapsed:.1f}s")


def test_c4_solutions_satisfy_balance_residuals():
    """Solver outputs on random networks validate to 1e-6 residuals."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        net = generate_waxman(
            10, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=0.9, seed=seed
        )
        net = sample_sd_pairs(net, 3, seed=seed + 500)
        sol = solve_max_total(net, build_mred(net))
        report = check_solution(net, sol)
        assert report["ok"], (seed, report)
        worst = max(worst, max(v for k, v in report.items() if k != "ok"))
    elapsed = time.perf_counter() - started
    print(f"[4] PASS balance residuals: 50 networks, worst residual {worst:.2e} "
          f"in {elapsed:.1f}s")


def test_c5_staged_priorities_match_independent_resolves():
    """Each lexicographic stage value equals a manually chained solve."""
    started = time.perf_counter()
    worst_rel = 0.0
    for seed in range(20):
        net = generate_waxman(
            8, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=0.9, seed=seed + 40
        )
        net = sample_sd_pairs(net, 3, seed=seed + 900)
        prio = list(net.sorted_sd[:2])
        sol = solve_lexicographic(net, prio, build_mred(net))
        staged = dict(sol.objective_log)

        model = build_mred(net)
        fixed = []
        for pr in prio:
            res = model.solve({model.eta_col[pr]: 1.0}, extra_ub=fixed)
            label = f"eta[{pr}]"
            scale = max(1.0, abs(res.objective))
            err = abs(staged[label] - res.objective) / scale
            worst_rel = max(worst_rel, err)
            assert err <= 2e-7, (seed, label, staged[label], res.objective)
            fixed.append((
                {model.eta_col[pr]: -1.0},
                -(res.objective - 1e-7 * scale),
            ))
    elapsed = time.perf_counter() - started
    print(f"[5] PASS staged priorities: 20 networks x 2 stages, worst relative "
          f"gap {worst_rel:.2e} in {elapsed:.1f}s")


def test_c6_admission_feasibility_is_monotone_under_removal():
    """Dropping any commitment from a feasible deadline set stays feasible."""
    started = time.perf_counter()
    checked = 0
    for seed in range(20):
        net = generate_waxman(
            8, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=4, p=0.9, q=0.9, seed=seed + 80
        )
        net = sample_sd_pairs(net, 3, seed=seed + 300)
        witness = solve_max_total(net, build_mred(net))
        rng = np.random.default_rng(child_seed(seed, "dc-entries"))
        entries = []
        for sd in net.sorted_sd:
            rate = witness.eta.get(sd, 0.0)
            if rate < 0.05:
                continue
            delta = int(rng.integers(2, 9))
            theta = rate * delta * float(rng.uniform(0.3, 0.9))
            entries.append((sd, theta, float(delta)))
        if len(entries) < 2:
            continue
        assert build_and_check_mred_dc(net, entries, build_mred(net)) is not None, (seed, entries)
        for drop in range(len(entries)):
            subset = [e for i, e in enumerate(entries) if i != drop]
            assert build_and_check_mred_dc(net, subset, build_mred(net)) is not None, (seed, drop)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20
    print(f"[6] PASS admission monotonicity: {checked} single-removal subsets "
          f"all feasible in {elapsed:.1f}s")


@pytest.mark.slow
def test_c7_policy_trends_at_network_scale():
    """Success falls with load; deadline policy beats the baseline; ordering
    lowers mean completion time under contention."""
    started = time.perf_counter()
    policies = (POLICY_BASELINE, POLICY_ORDERED, POLICY_DEADLINE)
    cache = {}
    deadline_solves = []

    def success_mean(policy, rate, demand):
        key = (policy, rate, demand)
        if key not in cache:
            vals = []
            for seed in SEEDS:
                net, demands = _deadline_case(seed, rate, demand)
                result = run_simulation(
                    net, demands, policy,
                    seed=child_int(seed, "protocol"), horizon_cap=4000,
                )
                vals.append(result.metrics.success_ratio)
                if policy == POLICY_DEADLINE:
                    deadline_solves.append(result.metrics.solver_calls)
            cache[key] = sum(vals) / len(vals)
        return cache[key]

    slack = 0.02

    rate_curves = {
        pol: [success_mean(pol, r, 40.0) for r in (0.5, 1.0, 2.0)]
        for pol in policies
    }
    for pol, curve in rate_curves.items():
        for lighter, heavier in zip(curve, curve[1:]):
            assert heavier <= lighter + slack, (pol, curve)

    demand_curves = {
        pol: [success_mean(pol, 1.0, d) for d in (20.0, 40.0, 80.0)]
        for pol in policies
    }
    for pol, curve in demand_curves.items():
        for lighter, heavier in zip(curve, curve[1:]):
            assert heavier <= lighter + slack, (pol, curve)

    gaps = [
        e - b
        for e, b in zip(
            rate_curves[POLICY_DEADLINE] + demand_curves[POLICY_DEADLINE],
            rate_curves[POLICY_BASELINE] + demand_curves[POLICY_BASELINE],
        )
    ]
    assert all(g >= -slack for g in gaps), gaps
    assert max(gaps) > slack, gaps
    # the 25 ESDI-E runs answer most admission probes from one face solve
    # per admitted pair set (1063 solves; 2267 with a two-stage solve per
    # probe the fair max-total point misses)
    assert len(deadline_solves) == 25 and sum(deadline_solves) <= 1200, sum(deadline_solves)

    completion = {}
    for pol in (POLICY_BASELINE, POLICY_ORDERED):
        means = []
        for demand in (15.0, 30.0, 60.0):
            vals = []
            for seed in SEEDS:
                net, demands = _open_case(seed, demand)
                result = run_simulation(
                    net, demands, pol,
                    seed=child_int(seed, "protocol"), horizon_cap=6000,
                )
                if result.metrics.avg_completion_time is not None:
                    vals.append(result.metrics.avg_completion_time)
            means.append(sum(vals) / len(vals))
        completion[pol] = means
    for ordered_mean, base_mean in zip(
        completion[POLICY_ORDERED], completion[POLICY_BASELINE]
    ):
        assert ordered_mean <= base_mean, completion

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    fmt = lambda xs: "/".join(f"{x:.3f}" for x in xs)
    print(
        "[7] PASS policy trends: "
        f"rate sweep B {fmt(rate_curves[POLICY_BASELINE])} "
        f"O {fmt(rate_curves[POLICY_ORDERED])} "
        f"E {fmt(rate_curves[POLICY_DEADLINE])}; "
        f"demand sweep B {fmt(demand_curves[POLICY_BASELINE])} "
        f"E {fmt(demand_curves[POLICY_DEADLINE])}; "
        f"completion O {fmt(completion[POLICY_ORDERED])} vs "
        f"B {fmt(completion[POLICY_BASELINE])}; "
        f"E solves {sum(deadline_solves)} in {elapsed:.0f}s"
    )


def test_c8_no_conservation_violations_under_load():
    """Independent per-slot accounting over stochastic runs finds no leaks."""
    started = time.perf_counter()
    slots_checked = 0
    for seed in range(10):
        net = generate_waxman(
            8, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.85, q=0.85, seed=seed + 10
        )
        net = sample_sd_pairs(net, 3, seed=seed + 60)
        deadline = DeadlineSpec(0.4, 0.1) if seed % 2 else None
        cfg = WorkloadConfig(
            rate=0.8, mean_demand=8.0, min_demand=2, horizon=15, deadline=deadline
        )
        demands = generate_workload(cfg, net.sorted_sd, seed=seed + 400)
        for policy in (POLICY_BASELINE, POLICY_ORDERED, POLICY_DEADLINE):
            rows = []
            run_simulation(
                net, demands, policy, seed=seed, horizon_cap=3000, trace=rows.append
            )
            held = 0
            for row in rows:
                expect = (
                    (row["buffered"] - held) + row["dropped"]
                    + 2 * row["swap_attempts"] - row["swap_successes"]
                    + row["distributed"]
                )
                assert row["generated"] == expect, (seed, policy, row)
                held = row["buffered"]
                slots_checked += 1
    elapsed = time.perf_counter() - started
    print(f"[8] PASS conservation: {slots_checked} slots re-audited externally, "
          f"zero violations in {elapsed:.1f}s")


def test_c9_runs_are_bitwise_reproducible():
    """Identical inputs give byte-identical metrics, modulo wall time."""
    started = time.perf_counter()
    net = generate_waxman(
        8, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.85, q=0.85, seed=21
    )
    net = sample_sd_pairs(net, 3, seed=71)
    cfg = WorkloadConfig(
        rate=0.8, mean_demand=8.0, min_demand=2, horizon=15,
        deadline=DeadlineSpec(0.4, 0.1),
    )
    demands = generate_workload(cfg, net.sorted_sd, seed=77)
    for policy in (POLICY_BASELINE, POLICY_ORDERED, POLICY_DEADLINE):
        a = run_simulation(net, demands, policy, seed=5, horizon_cap=3000)
        b = run_simulation(net, demands, policy, seed=5, horizon_cap=3000)
        ja, jb = a.metrics.to_json(), b.metrics.to_json()
        ja.pop("wall_ms")
        jb.pop("wall_ms")
        assert json.dumps(ja).encode() == json.dumps(jb).encode(), policy
        assert [
            (c.status, c.remaining, c.completed_slot, c.expired_slot)
            for c in a.commodities
        ] == [
            (c.status, c.remaining, c.completed_slot, c.expired_slot)
            for c in b.commodities
        ], policy
        ea = [{k: v for k, v in e.items() if k != "wall_ms"} for e in a.events]
        eb = [{k: v for k, v in e.items() if k != "wall_ms"} for e in b.events]
        assert ea == eb, policy
    elapsed = time.perf_counter() - started
    print(f"[9] PASS determinism: three policies byte-identical across repeat "
          f"runs in {elapsed:.1f}s")
