"""entsched benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload deadline-replan --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's ``src/``. With ``--trace 0`` the simulations are timed from
outside the package and the end-to-end metrics are printed. With
``--trace 1`` a smaller set of the same instances runs once plain and
once under ``tracing.Tracer``, and the per-layer metrics are printed.
Every run checks the package's output (conservation, plan validity,
repeatability, parity with ``entsched sweep``) and exits 1 when a check
fails. The last line of standard output is the result; the line before
it records the machine, the seeds and the checks. perfbench/README.md
says what each metric means.
"""

from __future__ import annotations

import os

# runs are single-process batch work: one BLAS/OpenMP thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2

# the traced run takes this share of the timed run's commodity budget, since
# it runs each instance twice and adds the model-size table
TRACE_SHARE = 0.4
MODEL_SIZES = (10, 20, 30)
# a p90 is resolved when at least this many samples lie beyond it
MIN_TAIL = 10

_clock = time.perf_counter


class Incorrect(Exception):
    """The package's output failed one of the benchmark's checks."""


@dataclass
class Outcome:
    inst: object
    result: object
    wall_s: float
    rows: list


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _without_wall(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k != "wall_ms"}


def _warm_up(policy: str) -> None:
    """One tiny simulation, so lazy imports and solver start-up go untimed."""
    from entsched.engine import ConservationError, run_simulation
    from entsched.topology import generate_waxman, sample_sd_pairs
    from entsched.workload import WorkloadConfig, generate_workload

    net = sample_sd_pairs(generate_waxman(6, 0.8, 0.8, 1, 3, 0.9, 0.9, seed=0), 2, seed=0)
    cfg = WorkloadConfig(rate=1.0, mean_demand=5.0, min_demand=1, horizon=3)
    try:
        run_simulation(net, generate_workload(cfg, net.sorted_sd, seed=0), policy, seed=0,
                       horizon_cap=20)
    except ConservationError as exc:
        raise Incorrect(f"warm-up: {exc}") from exc


def run_pass(workloads, wl, instances, keep_rows=False):
    """Simulate every instance in turn.

    `instances` may be a generator that builds each instance when asked.
    Returns the instances, the outcomes and the errors raised.
    """
    from entsched.engine import ConservationError

    built, outcomes, errors = [], [], []
    for inst in instances:
        built.append(inst)
        rows: list[dict] = []
        t0 = _clock()
        try:
            res = workloads.simulate(wl, inst, trace=rows.append if keep_rows else None)
        except ConservationError as exc:
            raise Incorrect(f"instance {inst.sweep_seed}: {exc}") from exc
        except Exception as exc:  # a failed run counts against run_ok_ratio
            errors.append(f"instance {inst.sweep_seed}: {type(exc).__name__}: {exc}")
            continue
        outcomes.append(Outcome(inst, res, _clock() - t0, rows))
    if not outcomes:
        raise Incorrect(f"no instance completed: {errors}")
    return built, outcomes, errors


def check_parity(workloads, wl, outcomes) -> tuple[float, float]:
    """Repeat the cheapest instance through ``cli.run_sweep_case``.

    Its RunMetrics must equal the benchmark's run of that instance apart
    from wall time: a repeat reproduces the run, and the benchmark runs
    what ``entsched sweep`` runs. Returns the sweep case's host seconds
    and the part of them spent outside ``run_simulation``.
    """
    from entsched.cli import run_sweep_case

    o = min(outcomes, key=lambda o: (o.result.metrics.solver_calls, o.result.metrics.slots,
                                     o.inst.sweep_seed))
    t0 = _clock()
    record = run_sweep_case(workloads.sweep_spec(wl, o.inst.sweep_seed))
    total = _clock() - t0
    if record["status"] != "ok":
        raise Incorrect(f"sweep case {o.inst.sweep_seed} failed: {record['error']}")
    mine = o.result.metrics.to_json()
    if _without_wall(record["metrics"]) != _without_wall(mine):
        raise Incorrect(f"sweep case {o.inst.sweep_seed} disagrees: {record['metrics']} != {mine}")
    return total, total - record["metrics"]["wall_ms"] / 1000.0


def end_to_end(instances, outcomes, attempted: int) -> dict:
    from entsched.workload import ACTIVE, COMPLETED, PENDING

    commodities = [c for o in outcomes for c in o.result.commodities]
    replan_ms = [e["wall_ms"] for o in outcomes for e in o.result.events]
    with_deadline = [c for c in commodities if c.deadline is not None]
    done = [c for c in commodities if c.status == COMPLETED]
    if with_deadline:
        met = sum(1 for c in with_deadline if c.status == COMPLETED and c.completed_slot <= c.deadline)
        success = met / len(with_deadline)
    else:
        success = len(done) / len(commodities)
    unfinished = sum(1 for c in commodities if c.status in (PENDING, ACTIVE))
    return {
        "wall_s": (sum(o.wall_s for o in outcomes), "s"),
        "replan_ms.mean": (statistics.fmean(replan_ms), "ms"),
        "setup_s": (_median([sum(i.setup.values()) for i in instances]), "s"),
        "solver_calls": (sum(o.result.metrics.solver_calls for o in outcomes), "count"),
        "success_ratio": (success, "ratio"),
        "served_rate.p50": (_median([c.demand / (c.completed_slot - c.arrival + 1) for c in done]),
                            "ebits/slot"),
        "resolved_ratio": (1.0 - unfinished / len(commodities), "ratio"),
        "run_ok_ratio": (len(outcomes) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def model_sizes(sweep_seed: int) -> dict:
    """Build time and one cold single-pair solve at each node count.

    The networks use the ``--paper-scale`` shape; medians of three.
    """
    from entsched.cli import PRESET
    from entsched.mred import build_mred, solve_single_pair_edr
    from entsched.rng import child_int
    from entsched.topology import generate_waxman, sample_sd_pairs

    out = {}
    for n in MODEL_SIZES:
        net = generate_waxman(n, alpha=PRESET["alpha"], beta=PRESET["beta"],
                              cap_lo=PRESET["cap_lo"], cap_hi=PRESET["cap_hi"],
                              p=PRESET["p"], q=PRESET["q"],
                              seed=child_int(sweep_seed, "topology", n))
        net = sample_sd_pairs(net, PRESET["sd_count"], seed=child_int(sweep_seed, "sd-pairs"))
        builds, solves = [], []
        for _ in range(3):
            t0 = _clock()
            model = build_mred(net)
            t1 = _clock()
            solve_single_pair_edr(net, net.sorted_sd[0], model)
            builds.append(t1 - t0)
            solves.append(_clock() - t1)
        out[n] = (_median(builds), _median(solves))
    return out


def per_layer(wl, tracer, plain, traced, instances, sizes, cli_s) -> tuple[dict, dict]:
    from tracing import LAYERS, PLANNING

    slots = sum(o.result.metrics.slots for o in traced)
    events = [o.result.events for o in traced]
    replans = sum(len(ev) for ev in events)
    same_priority = sum(
        1 for ev in events for prev, cur in zip(ev, ev[1:]) if prev["priority"] == cur["priority"]
    )
    rows = [r for o in traced for r in o.rows]
    # decision latency as the package logs it, from the untraced pass
    replan_ms = [e["wall_ms"] for o in plain for e in o.result.events]
    inc, calls, self_s = tracer.incl_s, tracer.calls, tracer.self_s
    total = sum(self_s.values())
    lp_ms = [t * 1000.0 for t in tracer.lp_s]
    solves = len(lp_ms)
    probes = calls["mred.probe"]
    infeasible = tracer.lp_status["infeasible"]
    per_replan = lambda s: s * 1000.0 / replans if replans else 0.0
    per_slot = lambda s: s * 1e6 / slots
    generated = sum(r["generated"] for r in rows)
    attempts = sum(r["swap_attempts"] for r in rows)
    plain_s = sum(o.wall_s for o in plain)
    traced_s = sum(o.wall_s for o in traced) - tracer.check_s
    planning = sum(self_s[k] for k in PLANNING) / total
    lo, hi = wl.planning_share
    ncols, nrows, nnz = instances[0].model_shape
    cli_total, cli_overhead = cli_s

    m = {
        "lp.solves": (solves, "count"),
        "lp.solve_ms.p50": (_median(lp_ms), "ms"),
        "lp.solve_ms.p90": (_p90(lp_ms), "ms"),
        "lp.share_of_wall": (self_s["lp"] / total, "ratio"),
        "lp.infeasible": (infeasible, "count"),
        "lp.infeasible_ratio": (infeasible / solves if solves else 0.0, "ratio"),
        "mred.build_ms": (_median([i.setup["mred"] for i in instances]) * 1000.0, "ms"),
        "mred.probe_ms": (per_replan(inc["mred.probe"]), "ms/replan"),
        "mred.refine_ms": (per_replan(inc["mred.refine"]), "ms/replan"),
        "mred.max_total_ms": (per_replan(inc["mred.max_total"]), "ms/replan"),
        "mred.lexicographic_ms": (per_replan(inc["mred.lexicographic"]), "ms/replan"),
        "mred.single_pair_ms": (per_replan(inc["mred.single_pair"]), "ms/replan"),
        "mred.overhead_ms": (per_replan(self_s["mred"] - inc["mred.build"]), "ms/replan"),
        "mred.ncols": (ncols, "count"),
        "mred.nrows": (nrows, "count"),
        "mred.nnz": (nnz, "count"),
    }
    for n, (build_s, solve_s) in sizes.items():
        m[f"mred.build_ms.n{n}"] = (build_s * 1000.0, "ms")
        m[f"mred.cold_solve_ms.n{n}"] = (solve_s * 1000.0, "ms")
    m.update({
        "scheduler.replans": (replans, "count"),
        "scheduler.replan_ms.p50": (_median(replan_ms), "ms"),
        "scheduler.replan_ms.p90": (_p90(replan_ms), "ms"),
        "scheduler.solves_per_replan": (solves / replans if replans else 0.0, "solves/replan"),
        "scheduler.probes": (probes, "count"),
        "scheduler.probe_reject_ratio": (tracer.probe_rejects / probes if probes else 0.0, "ratio"),
        "scheduler.redundant_refine_solves": (tracer.redundant_refines, "count"),
        "scheduler.same_priority_replans": (same_priority, "count"),
        "scheduler.edr_cache_misses": (calls["mred.single_pair"], "count"),
        "protocol.us_per_slot": (per_slot(self_s["protocol"]), "us/slot"),
    })
    for phase in ("expire", "reconcile", "generate", "swap", "distribute"):
        m[f"protocol.{phase}_us_per_slot"] = (per_slot(inc[f"protocol.{phase}"]), "us/slot")
    m.update({
        "protocol.switch_batch_calls_per_slot": (calls["protocol.switch_batch"] / slots, "calls/slot"),
        "protocol.switch_probabilities_calls_per_slot": (
            calls["protocol.switch_probabilities"] / slots, "calls/slot"),
        "rng.us_per_slot": (per_slot(self_s["rng"]), "us/slot"),
        "workload.active_set_us_per_slot": (per_slot(inc["workload.active_set"]), "us/slot"),
        "engine.self_us_per_slot": (per_slot(self_s["engine"]), "us/slot"),
        "protocol.swap_success_ratio": (
            sum(r["swap_successes"] for r in rows) / attempts if attempts else 0.0, "ratio"),
        "protocol.delivered_ratio": (
            sum(r["distributed"] for r in rows) / generated if generated else 0.0, "ratio"),
        "protocol.buffered_peak": (max(r["buffered"] for r in rows), "ebits"),
        "protocol.buffered_final": (
            statistics.fmean(o.rows[-1]["buffered"] for o in traced), "ebits"),
        "topology.generate_ms": (_median([i.setup["topology"] for i in instances]) * 1000.0, "ms"),
        "workload.generate_ms": (_median([i.setup["workload"] for i in instances]) * 1000.0, "ms"),
        "cli.sweep_case_overhead_ms": (cli_overhead * 1000.0, "ms"),
        "cli.share_of_wall": (cli_overhead / cli_total, "ratio"),
        "engine.slots": (slots, "slots"),
        "engine.trace_overhead_pct": ((traced_s - plain_s) / plain_s * 100.0, "%"),
    })
    for layer in LAYERS:
        if layer != "lp":
            m[f"{layer}.share_of_wall"] = (self_s[layer] / total, "ratio")
    m["planning.share_of_wall"] = (planning, "ratio")
    met = lo <= planning <= hi
    m["planning.share_expected"] = (int(met), "count")
    return m, {"planning_share": planning, "planning_share_expected": [lo, hi],
               "planning_share_met": met, "replan_samples": len(replan_ms),
               "replan_p90_resolved": len(replan_ms) // 10 >= MIN_TAIL}


def timed_run(workloads, wl, seed: int, seconds: int):
    instances, outcomes, errors = run_pass(workloads, wl,
                                           workloads.iter_instances(wl, seed, seconds))
    seeds = [i.sweep_seed for i in instances]
    check_parity(workloads, wl, outcomes)
    return end_to_end(instances, outcomes, len(instances)), seeds, len(instances), errors, {}


def traced_run(workloads, wl, seed: int, seconds: int):
    from entsched import lp
    from tracing import Tracer

    instances, plain, errors = run_pass(
        workloads, wl, workloads.iter_instances(wl, seed, seconds * TRACE_SHARE))
    seeds = [i.sweep_seed for i in instances]
    sizes = model_sizes(seeds[0])

    backend = lp.get_backend()
    tracer = Tracer()
    tracer.install()
    try:
        _, traced, traced_errors = run_pass(
            workloads, wl, [workloads.build_instance(wl, s) for s in seeds], keep_rows=True)
    finally:
        tracer.uninstall()
    if lp.get_backend() is not backend or not tracer.restored():
        raise Incorrect("the traced run left a rebound attribute or LP backend behind")
    if tracer.bad_plans:
        raise Incorrect(f"plans failed check_solution: {tracer.bad_plans[:3]}")
    if errors != traced_errors or [
        _without_wall(o.result.metrics.to_json()) for o in plain
    ] != [_without_wall(o.result.metrics.to_json()) for o in traced]:
        raise Incorrect("traced RunMetrics differ from the plain run's")
    cli_s = check_parity(workloads, wl, plain)
    metrics, notes = per_layer(wl, tracer, plain, traced, instances, sizes, cli_s)
    if not notes["planning_share_met"]:
        print(f"layer-share check missed: planning is {notes['planning_share']:.3f} of traced "
              f"wall time on {wl.name}, expected {notes['planning_share_expected']}",
              file=sys.stderr)
    return metrics, seeds, len(instances), errors, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "entsched" / "__init__.py").is_file():
        print(f"error: no entsched package under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import entsched
    import workloads

    if not Path(entsched.__file__).resolve().is_relative_to(SRC):
        print(f"error: entsched imported from {entsched.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    record = {
        "workload": wl.name, "policy": wl.policy, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "loadavg_1m_start": os.getloadavg()[0],
    }
    run = traced_run if args.trace else timed_run
    try:
        _warm_up(wl.policy)
        metrics, seeds, attempted, errors, notes = run(workloads, wl, args.seed, args.seconds)
        correct = True
    except Incorrect as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        metrics, seeds, attempted, errors, notes = {}, [], 1, [str(exc)], {"incorrect": str(exc)}
        correct = False
    record.update(notes, sweep_seeds=seeds, errors=errors, loadavg_1m_end=os.getloadavg()[0])

    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
