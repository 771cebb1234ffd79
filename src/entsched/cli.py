"""Command line front end.

Subcommands cover the full workflow: generate a topology, generate a
workload, run one simulation, and sweep a parameter across policies and
seeds. Exit codes: 0 on success, 1 for configuration problems (bad
arguments, unreadable or invalid files), 2 when the LP solver fails, 3
when a run breaks the per-slot conservation identity or its buffer
ledger.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from .engine import HORIZON_CAP, run_simulation
from .lp import SolverError
from .protocol import ConservationError, ProtocolConfig
from .rng import child_int
from .scheduler import POLICIES
from .topology import (
    ValidationError,
    _whole,
    check_waxman_params,
    generate_waxman,
    read_network,
    sample_sd_pairs,
    write_network,
)
from .workload import (
    DeadlineSpec,
    WorkloadConfig,
    generate_workload,
    read_workload,
    write_workload,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_INVARIANT = 3

# sweep axis -> the scenario parameter it sets
SWEEP_AXES = {
    "arrival-rate": "rate",
    "mean-demand": "mean_demand",
    "graph-size": "nodes",
    "deadline-factor": "deadline_factor",
    "kappa": "kappa",
}

# every scenario parameter, in the order results.json records the sweep's
# base: name -> (flag group, type, default, --paper-scale value). The
# preset replaces the sweep's defaults, so every flag given explicitly
# still wins; a parameter whose preset value is None keeps its default
SCENARIO = {
    "nodes": ("topology", int, 8, 20),
    "alpha": ("topology", float, 0.8, 0.8),
    "beta": ("topology", float, 0.8, 0.8),
    "cap_lo": ("topology", int, 1, 3),
    "cap_hi": ("topology", int, 4, 10),
    "p": ("topology", float, 0.9, 0.9),
    "q": ("topology", float, 0.9, 0.9),
    "sd_count": ("topology", int, 3, 3),
    "rate": ("workload", float, 1.0, 1.0),
    "mean_demand": ("workload", float, 12.0, 600.0),
    "min_demand": ("workload", int, 2, 100),
    "horizon": ("workload", int, 20, 60),
    "deadline_mu": ("workload", float, None, 0.4),
    "deadline_halfwidth": ("workload", float, 0.1, 0.1),
    "deadline_factor": ("workload", float, 1.0, 1.0),
    "kappa": ("protocol", int, 1, 1),
    "cascade_depth": ("protocol", int, 1, None),
    "max_buffer_age": ("protocol", int, None, None),
    "horizon_cap": ("protocol", int, HORIZON_CAP, None),
}

# network and workload scale behind the --paper-scale flag
PRESET = {**{name: paper for name, (_, _, _, paper) in SCENARIO.items() if paper is not None},
          "seeds": "1,2,3,4,5"}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _scenario_args(sub: argparse.ArgumentParser, *groups: str) -> None:
    for name, (group, kind, default, _) in SCENARIO.items():
        if group in groups:
            sub.add_argument("--" + name.replace("_", "-"), type=kind, default=default)


def build_parser() -> _Parser:
    parser = _Parser(prog="entsched")
    subs = parser.add_subparsers(dest="command", required=True)

    topo = subs.add_parser("gen-topology", parents=[], help="generate a random network")
    _scenario_args(topo, "topology")
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--out", required=True)

    load = subs.add_parser("gen-workload", help="generate a commodity workload")
    load.add_argument("--net", required=True)
    _scenario_args(load, "workload")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--out", required=True)

    sim = subs.add_parser("simulate", help="run one simulation")
    sim.add_argument("--net", required=True)
    sim.add_argument("--workload", required=True)
    sim.add_argument("--policy", choices=POLICIES, required=True)
    _scenario_args(sim, "protocol")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trace", default=None, help="write per-slot JSONL here")
    sim.add_argument("--out", default=None, help="write metrics JSON here instead of stdout")

    sweep = subs.add_parser("sweep", help="vary one parameter across policies and seeds")
    sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sweep.add_argument("--values", required=True, help="comma separated axis values")
    sweep.add_argument("--policies", default=",".join(POLICIES))
    sweep.add_argument("--seeds", default="0,1,2")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--paper-scale", action="store_true",
                       help="use the 20-node, long-demand preset as the base")
    _scenario_args(sweep, "topology", "workload", "protocol")
    sweep.add_argument("--out-dir", required=True)
    # main() installs the --paper-scale preset as this parser's defaults
    parser.sweep_parser = sweep

    return parser


def _network(params: dict, seed: int, sd_seed: int):
    net = generate_waxman(
        params["nodes"], alpha=params["alpha"], beta=params["beta"],
        cap_lo=params["cap_lo"], cap_hi=params["cap_hi"],
        p=params["p"], q=params["q"], seed=seed,
    )
    return sample_sd_pairs(net, params["sd_count"], seed=sd_seed)


def _workload_config(params: dict) -> WorkloadConfig:
    deadline = None
    if params["deadline_mu"] is not None:
        deadline = DeadlineSpec(params["deadline_mu"], params["deadline_halfwidth"],
                                params["deadline_factor"])
    return WorkloadConfig(
        rate=params["rate"], mean_demand=params["mean_demand"],
        min_demand=params["min_demand"], horizon=params["horizon"],
        deadline=deadline,
    )


def _protocol_config(params: dict) -> ProtocolConfig:
    return ProtocolConfig(cascade_depth=params["cascade_depth"],
                          max_buffer_age=params["max_buffer_age"])


def _distinct_files(args, *flags: str) -> None:
    """Refuse two of `flags` that name one file, compared by resolved path
    before any file is read or opened: a run must not write over its own
    input or its other output."""
    seen: dict[str, str] = {}
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValidationError(f"{seen[real]} and {flag} name the same file {path}")
        seen[real] = flag


def cmd_gen_topology(args) -> int:
    net = _network(vars(args), args.seed, child_int(args.seed, "sd-pairs"))
    write_network(net, args.out)
    print(f"wrote {args.out}: {len(net.nodes)} nodes, "
          f"{len(net.links)} links, {len(net.sd_pairs)} sd pairs")
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    _distinct_files(args, "--net", "--out")
    net = read_network(args.net)
    if not net.sd_pairs:
        raise ValidationError(f"network {args.net} declares no SD pairs")
    commodities = generate_workload(_workload_config(vars(args)), net.sorted_sd, seed=args.seed)
    write_workload(commodities, args.out)
    print(f"wrote {args.out}: {len(commodities)} commodities over {args.horizon} slots")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _distinct_files(args, "--net", "--workload", "--out", "--trace")
    net = read_network(args.net)
    commodities = read_workload(args.workload)

    # both files are opened before the run, so a bad path fails fast
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out_fh:
        with open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext() as trace_fh:
            trace = None if trace_fh is None else lambda row: print(json.dumps(row), file=trace_fh)
            result = run_simulation(
                net, commodities, args.policy,
                kappa=args.kappa, seed=args.seed,
                horizon_cap=args.horizon_cap, config=_protocol_config(vars(args)), trace=trace,
            )
        print(json.dumps(result.metrics.to_json(), indent=2), file=out_fh)
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

def _parse_list(flag: str, raw: str, kind) -> list:
    """The comma-separated `raw` of `flag`, each stripped token read as
    `kind`; blank tokens are skipped, and a bad, empty or repeating list
    refused, a repeat being two tokens that read as equal values."""
    try:
        items = [kind(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad {flag}: {exc}") from exc
    if not items:
        raise ValidationError(f"{flag} is empty")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValidationError(f"{flag} repeats {item!r}")
    return items


def _apply_axis(base: dict, axis: str, value) -> dict:
    return {**base, SWEEP_AXES[axis]: value}


def run_sweep_case(spec: dict) -> dict:
    """One (axis value, policy, seed) run; returns a JSON-ready record."""
    params = spec["params"]
    record = {
        "sweep_value": spec["value"],
        "policy": spec["policy"],
        "seed": spec["seed"],
    }
    try:
        net = _network(params, child_int(spec["seed"], "topology", params["nodes"]),
                       child_int(spec["seed"], "sd-pairs"))
        commodities = generate_workload(
            _workload_config(params), net.sorted_sd, seed=child_int(spec["seed"], "workload")
        )
        result = run_simulation(
            net, commodities, spec["policy"],
            kappa=params["kappa"],
            seed=child_int(spec["seed"], "protocol"),
            horizon_cap=params["horizon_cap"],
            config=_protocol_config(params),
        )
    except Exception as exc:  # recorded, not fatal to the sweep
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["status"] = "ok"
    record["metrics"] = result.metrics.to_json()
    return record


def _aggregate(records: list[dict], values: list, policies: list[str], metric: str):
    rows = []
    for value in values:
        for policy in policies:
            samples = [
                r["metrics"][metric]
                for r in records
                if r["status"] == "ok"
                and r["sweep_value"] == value and r["policy"] == policy
                and r["metrics"][metric] is not None
            ]
            rows.append({
                "sweep_value": value,
                "policy": policy,
                "metric": metric,
                "mean": statistics.mean(samples) if samples else None,
                "stddev": statistics.pstdev(samples) if samples else None,
                "n_runs": len(samples),
            })
    return rows


def cmd_sweep(args) -> int:
    values = _parse_list("--values", args.values, SCENARIO[SWEEP_AXES[args.axis]][1])
    seeds = _parse_list("--seeds", args.seeds, int)
    policies = _parse_list("--policies", args.policies, str)
    for policy in policies:
        if policy not in POLICIES:
            raise ValidationError(f"unknown policy {policy!r} in --policies")
    workers = _whole(args.workers, "--workers", 1)
    base = {name: getattr(args, name) for name in SCENARIO}
    if args.axis == "deadline-factor" and base["deadline_mu"] is None:
        raise ValidationError("deadline-factor sweep needs --deadline-mu")
    base["horizon_cap"] = _whole(base["horizon_cap"], "horizon_cap", 0)
    base["kappa"] = _whole(base["kappa"], "kappa", 1)

    # validate the base configuration before any file is written
    for value in values:
        params = _apply_axis(base, args.axis, value)
        check_waxman_params(params["nodes"], params["alpha"], params["beta"],
                            params["cap_lo"], params["cap_hi"], params["p"], params["q"])
        if params["nodes"] < 2 or params["sd_count"] < 1:
            raise ValidationError(f"{params['nodes']} nodes and --sd-count "
                                  f"{params['sd_count']} leave no SD pair")
        _workload_config(params)
        _protocol_config(params)
        _whole(params["kappa"], "kappa", 1)

    # a bad --out-dir fails before any run is computed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    specs = [
        {"value": value, "policy": policy, "seed": seed,
         "params": _apply_axis(base, args.axis, value)}
        for value in values
        for policy in policies
        for seed in seeds
    ]

    # the pool starts all its workers at once, so start no more than there are runs
    workers = min(workers, len(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_sweep_case, specs))
    else:
        records = [run_sweep_case(spec) for spec in specs]

    metric = "success_ratio" if base["deadline_mu"] is not None else "avg_completion_time"
    aggregates = _aggregate(records, values, policies, metric)

    payload = {
        "axis": args.axis,
        "values": values,
        "policies": policies,
        "seeds": seeds,
        "metric": metric,
        "base": base,
        "runs": records,
        "aggregates": aggregates,
    }
    (out_dir / "results.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["sweep_value", "policy", "metric", "mean", "stddev", "n_runs"]
        )
        writer.writeheader()
        writer.writerows(aggregates)

    failures = sum(1 for r in records if r["status"] != "ok")
    print(f"wrote {out_dir / 'results.json'} and {out_dir / 'results.csv'} "
          f"({len(records)} runs, {failures} failed)")
    return EXIT_OK


_COMMANDS = {
    "gen-topology": cmd_gen_topology,
    "gen-workload": cmd_gen_workload,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.paper_scale:
        parser.sweep_parser.set_defaults(**PRESET)
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConservationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
