"""Command line front end.

Subcommands cover the full workflow: generate a topology, generate a
workload, run one simulation, and sweep a parameter across policies and
seeds. Exit codes: 0 on success, 1 for configuration problems (bad
arguments, unreadable or invalid files), 2 when the LP solver fails, 3
when a run breaks the per-slot conservation identity.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from .engine import HORIZON_CAP, ConservationError, run_simulation
from .lp import SolverError
from .protocol import ProtocolConfig
from .rng import child_int
from .scheduler import POLICIES
from .topology import (
    GenerationFailed,
    ValidationError,
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

# network and workload scale behind the --paper-scale flag; it replaces
# the sweep's defaults, so every flag given explicitly still wins
PRESET = {
    "nodes": 20,
    "alpha": 0.8,
    "beta": 0.8,
    "cap_lo": 3,
    "cap_hi": 10,
    "p": 0.9,
    "q": 0.9,
    "sd_count": 3,
    "rate": 1.0,
    "mean_demand": 600.0,
    "min_demand": 100,
    "horizon": 60,
    "deadline_mu": 0.4,
    "deadline_halfwidth": 0.1,
    "deadline_factor": 1.0,
    "kappa": 1,
    "seeds": "1,2,3,4,5",
}

# the sweep's base configuration, in the order results.json records it
BASE_KEYS = ("nodes", "alpha", "beta", "cap_lo", "cap_hi", "p", "q", "sd_count", "rate",
             "mean_demand", "min_demand", "horizon", "deadline_mu", "deadline_halfwidth",
             "deadline_factor", "kappa", "cascade_depth", "max_buffer_age", "horizon_cap")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _topology_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nodes", type=int, default=8)
    sub.add_argument("--alpha", type=float, default=0.8)
    sub.add_argument("--beta", type=float, default=0.8)
    sub.add_argument("--cap-lo", type=int, default=1)
    sub.add_argument("--cap-hi", type=int, default=4)
    sub.add_argument("--p", type=float, default=0.9)
    sub.add_argument("--q", type=float, default=0.9)
    sub.add_argument("--sd-count", type=int, default=3)


def _workload_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rate", type=float, default=1.0)
    sub.add_argument("--mean-demand", type=float, default=12.0)
    sub.add_argument("--min-demand", type=int, default=2)
    sub.add_argument("--horizon", type=int, default=20)
    sub.add_argument("--deadline-mu", type=float, default=None)
    sub.add_argument("--deadline-halfwidth", type=float, default=0.1)
    sub.add_argument("--deadline-factor", type=float, default=1.0)


def _protocol_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa", type=int, default=1)
    sub.add_argument("--cascade-depth", type=int, default=1)
    sub.add_argument("--max-buffer-age", type=int, default=None)
    sub.add_argument("--horizon-cap", type=int, default=HORIZON_CAP)


def build_parser() -> _Parser:
    parser = _Parser(prog="entsched")
    subs = parser.add_subparsers(dest="command", required=True)

    topo = subs.add_parser("gen-topology", parents=[], help="generate a random network")
    _topology_args(topo)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--out", required=True)

    load = subs.add_parser("gen-workload", help="generate a commodity workload")
    load.add_argument("--net", required=True)
    _workload_args(load)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--out", required=True)

    sim = subs.add_parser("simulate", help="run one simulation")
    sim.add_argument("--net", required=True)
    sim.add_argument("--workload", required=True)
    sim.add_argument("--policy", choices=POLICIES, required=True)
    _protocol_args(sim)
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
    _topology_args(sweep)
    _workload_args(sweep)
    _protocol_args(sweep)
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


def _load_net(path: str):
    try:
        return read_network(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read network {path}: {exc}") from exc


def cmd_gen_topology(args) -> int:
    net = _network(vars(args), args.seed, child_int(args.seed, "sd-pairs"))
    write_network(net, args.out)
    print(f"wrote {args.out}: {len(net.nodes)} nodes, "
          f"{len(net.links)} links, {len(net.sd_pairs)} sd pairs")
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    net = _load_net(args.net)
    if not net.sd_pairs:
        raise ValidationError(f"network {args.net} declares no SD pairs")
    commodities = generate_workload(_workload_config(vars(args)), net.sorted_sd, seed=args.seed)
    write_workload(commodities, args.out)
    print(f"wrote {args.out}: {len(commodities)} commodities over {args.horizon} slots")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = _load_net(args.net)
    try:
        commodities = read_workload(args.workload)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read workload {args.workload}: {exc}") from exc

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


def _base_params(args) -> dict:
    return {key: getattr(args, key) for key in BASE_KEYS}


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
    values = _parse_list("--values", args.values,
                         int if SWEEP_AXES[args.axis] in ("nodes", "kappa") else float)
    seeds = _parse_list("--seeds", args.seeds, int)
    policies = _parse_list("--policies", args.policies, str)
    for policy in policies:
        if policy not in POLICIES:
            raise ValidationError(f"unknown policy {policy!r} in --policies")
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    base = _base_params(args)
    if args.axis == "deadline-factor" and base["deadline_mu"] is None:
        raise ValidationError("deadline-factor sweep needs --deadline-mu")
    if base["horizon_cap"] < 0:
        raise ValidationError(f"horizon_cap must be >= 0, got {base['horizon_cap']}")

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
        if params["kappa"] < 1:
            raise ValidationError(f"kappa must be >= 1, got {params['kappa']}")

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
    workers = min(args.workers, len(specs))
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
    except (ValidationError, GenerationFailed, OSError) as exc:
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
