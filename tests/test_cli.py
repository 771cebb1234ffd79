import csv
import json
import shlex
import time
import warnings
from pathlib import Path

import pytest

from conftest import failing_backend
from entsched import cli
from entsched.engine import ConservationError
from entsched.lp import LpStatus, SolverError
from entsched.topology import MAX_CAPACITY, MAX_NODES, read_network
from entsched.workload import (
    MAX_ARRIVALS,
    MAX_COMMODITY_DEMAND,
    MAX_DEADLINE_SCALE,
    MAX_DEMAND,
    MAX_HORIZON,
    read_workload,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _gen_net(tmp_path, name="net.json", nodes=6, sd=2, seed=3):
    path = tmp_path / name
    rc = cli.main([
        "gen-topology", "--nodes", str(nodes), "--cap-lo", "1", "--cap-hi", "2",
        "--p", "0.9", "--q", "0.9", "--sd-count", str(sd),
        "--seed", str(seed), "--out", str(path),
    ])
    assert rc == 0
    return path


def _gen_load(tmp_path, net_path, name="load.jsonl", deadline=False, seed=5):
    path = tmp_path / name
    argv = [
        "gen-workload", "--net", str(net_path), "--rate", "0.6",
        "--mean-demand", "3", "--min-demand", "1", "--horizon", "5",
        "--seed", str(seed), "--out", str(path),
    ]
    if deadline:
        argv += ["--deadline-mu", "0.4", "--deadline-halfwidth", "0.1"]
    assert cli.main(argv) == 0
    return path


def test_gen_topology_writes_deterministic_network(tmp_path):
    a = _gen_net(tmp_path, "a.json")
    b = _gen_net(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    net = read_network(str(a))
    assert len(net.nodes) == 6
    assert len(net.sd_pairs) == 2


def test_gen_workload_round_trip(tmp_path):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path, deadline=True)
    commodities = read_workload(str(load_path))
    net = read_network(str(net_path))
    assert all(c.sd in net.sd_pairs for c in commodities)
    assert all(c.deadline is not None for c in commodities)


def test_gen_workload_requires_sd_pairs(tmp_path, capsys):
    net_path = _gen_net(tmp_path, sd=0)
    rc = cli.main([
        "gen-workload", "--net", str(net_path),
        "--out", str(tmp_path / "w.jsonl"),
    ])
    assert rc == 1
    assert "no SD pairs" in capsys.readouterr().err


def test_simulate_prints_metrics(tmp_path, capsys):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path)
    capsys.readouterr()
    rc = cli.main([
        "simulate", "--net", str(net_path), "--workload", str(load_path),
        "--policy", "ESDI-O", "--seed", "1", "--horizon-cap", "3000",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "policy", "seed", "success_ratio", "avg_completion_time", "unfinished",
        "n_commodities", "solver_calls", "slots", "wall_ms",
    ]
    assert payload["policy"] == "ESDI-O"


def _quick_start() -> tuple[list[list[str]], dict]:
    """README's quick-start commands, each as `cli.main`'s arguments, and
    the metrics object it shows `simulate` printing."""
    blocks = README.read_text().split("## Quick start", 1)[1].split("```")
    commands = [shlex.split(line) for line in blocks[1].replace("\\\n", " ").splitlines()
                if line.strip()]
    assert all(argv[0] == "entsched" for argv in commands)
    return [argv[1:] for argv in commands], json.loads(blocks[3].removeprefix("json"))


def test_readme_quick_start_prints_the_metrics_it_shows(tmp_path, monkeypatch, capsys):
    commands, shown = _quick_start()
    assert [argv[0] for argv in commands] == ["gen-topology", "gen-workload", "simulate"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == list(shown)
    # every field but the run's wall time
    del printed["wall_ms"], shown["wall_ms"]
    assert printed == shown


def test_simulate_solver_failure_exits_with_solver_code(tmp_path, capsys):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path)
    capsys.readouterr()
    with failing_backend(LpStatus.UNBOUNDED):
        rc = cli.main([
            "simulate", "--net", str(net_path), "--workload", str(load_path),
            "--policy", "ESDI-B", "--seed", "1",
        ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: "), lines


def test_simulate_out_and_trace_files(tmp_path):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path, deadline=True)
    out = tmp_path / "metrics.json"
    trace = tmp_path / "trace.jsonl"
    rc = cli.main([
        "simulate", "--net", str(net_path), "--workload", str(load_path),
        "--policy", "ESDI-E", "--seed", "2", "--horizon-cap", "3000",
        "--out", str(out), "--trace", str(trace),
    ])
    assert rc == 0
    metrics = json.loads(out.read_text())
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(rows) == metrics["slots"]
    assert rows and rows[0]["slot"] == 1


def test_simulate_out_in_missing_directory_fails_before_the_run(tmp_path, monkeypatch, capsys):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path)
    capsys.readouterr()
    runs = []
    monkeypatch.setattr(cli, "run_simulation", lambda *args, **kwargs: runs.append(args))
    rc = cli.main(["simulate", "--net", str(net_path), "--workload", str(load_path),
                   "--policy", "ESDI-B", "--out", str(tmp_path / "absent" / "metrics.json")])
    _assert_config_error(rc, capsys)
    assert runs == []


# --out once overwrote the start of a --trace naming the same file, and
# either one overwrote a --net or --workload input after reading it
@pytest.mark.parametrize("command, writer, other", [
    ("simulate", "--out", "--trace"),
    ("simulate", "--out", "--workload"),
    ("simulate", "--out", "--net"),
    ("simulate", "--trace", "--workload"),
    ("simulate", "--trace", "--net"),
    ("gen-workload", "--out", "--net"),
])
@pytest.mark.parametrize("spelling", ["same", "symlink"])
def test_flags_naming_one_file_are_refused_before_any_read(tmp_path, monkeypatch, capsys, command,
                                                          writer, other, spelling):
    net_path = _gen_net(tmp_path)
    files = {"--net": net_path, "--workload": _gen_load(tmp_path, net_path),
             "--trace": tmp_path / "r.json"}
    target = files[other]
    before = target.read_bytes() if target.exists() else None
    alias = target
    if spelling == "symlink":
        alias = tmp_path / "link"
        alias.symlink_to(target)
    argv = [command, "--net", str(net_path), writer, str(alias)]
    if command == "simulate":
        argv += ["--workload", str(files["--workload"]), "--policy", "ESDI-B"]
    if other == "--trace":
        argv += ["--trace", str(target)]
    monkeypatch.setattr(cli, "read_network", lambda path: pytest.fail("read --net"))
    capsys.readouterr()
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert f" {writer} " in lines[0] and f" {other} " in lines[0], lines
    if before is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == before


def test_simulate_missing_file_is_config_error(tmp_path, capsys):
    net_path = _gen_net(tmp_path)
    rc = cli.main([
        "simulate", "--net", str(net_path),
        "--workload", str(tmp_path / "absent.jsonl"), "--policy", "ESDI-B",
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_policy_exits_with_config_code(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--net", "x", "--workload", "y", "--policy", "FIFO"])
    assert err.value.code == 1


def _sweep(tmp_path, sub, extra=()):
    out_dir = tmp_path / sub
    rc = cli.main([
        "sweep", "--axis", "arrival-rate", "--values", "0.4,0.8",
        "--policies", "ESDI-B,ESDI-E", "--seeds", "0,1",
        "--nodes", "5", "--cap-lo", "1", "--cap-hi", "2", "--sd-count", "2",
        "--mean-demand", "3", "--min-demand", "1", "--horizon", "4",
        "--deadline-mu", "0.4", "--horizon-cap", "3000",
        "--out-dir", str(out_dir), *extra,
    ])
    assert rc == 0
    return out_dir


def _strip_wall(payload):
    for run in payload["runs"]:
        if run["status"] == "ok":
            run["metrics"].pop("wall_ms")
    return payload


def test_sweep_writes_results_and_aggregates(tmp_path):
    out_dir = _sweep(tmp_path, "s1")
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["metric"] == "success_ratio"
    assert len(payload["runs"]) == 2 * 2 * 2
    assert all(r["status"] == "ok" for r in payload["runs"])

    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"sweep_value", "policy", "metric", "mean", "stddev", "n_runs"}
    assert len(rows) == 4
    assert {r["metric"] for r in rows} == {"success_ratio"}
    assert all(int(r["n_runs"]) == 2 for r in rows)


def test_sweep_is_reproducible_and_parallel_safe(tmp_path):
    first = json.loads((_sweep(tmp_path, "s1") / "results.json").read_text())
    second = json.loads((_sweep(tmp_path, "s2") / "results.json").read_text())
    parallel = json.loads(
        (_sweep(tmp_path, "s3", ("--workers", "2")) / "results.json").read_text()
    )
    assert _strip_wall(first)["runs"] == _strip_wall(second)["runs"]
    assert first["runs"] == _strip_wall(parallel)["runs"]
    assert first["aggregates"] == parallel["aggregates"]


def test_sweep_output_does_not_depend_on_worker_count(tmp_path):
    # with deadlines every run ends by its last deadline, so the sweep stays short
    argv = ["sweep", "--axis", "arrival-rate", "--values", "0.8", "--policies", "ESDI-E",
            "--seeds", "0,1", "--nodes", "5", "--cap-lo", "1", "--cap-hi", "2",
            "--sd-count", "2", "--mean-demand", "3", "--min-demand", "1", "--horizon", "4",
            "--deadline-mu", "0.4"]
    out = {}
    for workers in ("1", "2"):
        out[workers] = tmp_path / f"w{workers}"
        assert cli.main([*argv, "--workers", workers, "--out-dir", str(out[workers])]) == 0
    serial, parallel = (_strip_wall(json.loads((out[w] / "results.json").read_text()))
                        for w in ("1", "2"))
    assert [r["status"] for r in serial["runs"]] == ["ok", "ok"]
    assert serial == parallel
    assert (out["1"] / "results.csv").read_bytes() == (out["2"] / "results.csv").read_bytes()


def test_sweep_completion_metric_without_deadlines(tmp_path):
    out_dir = tmp_path / "nodl"
    rc = cli.main([
        "sweep", "--axis", "mean-demand", "--values", "2,4",
        "--policies", "ESDI-O", "--seeds", "0",
        "--nodes", "5", "--cap-lo", "1", "--cap-hi", "2", "--sd-count", "2",
        "--min-demand", "1", "--horizon", "4", "--horizon-cap", "3000",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["metric"] == "avg_completion_time"


def test_sweep_validation_errors(tmp_path, capsys):
    base = [
        "sweep", "--values", "1", "--out-dir", str(tmp_path / "x"),
        "--nodes", "5", "--horizon", "3",
    ]
    assert cli.main(base + ["--axis", "deadline-factor"]) == 1
    assert "deadline-mu" in capsys.readouterr().err
    assert cli.main(["sweep", "--axis", "kappa", "--values", "a,b",
                     "--out-dir", str(tmp_path / "y")]) == 1
    assert cli.main(["sweep", "--axis", "kappa", "--values", "1",
                     "--policies", "NOPE", "--out-dir", str(tmp_path / "z")]) == 1
    assert not (tmp_path / "x").exists()
    for axis, extra in (("arrival-rate", []), ("mean-demand", []),
                        ("deadline-factor", ["--deadline-mu", "0.4"])):
        for value in ("nan", "inf"):
            out_dir = tmp_path / f"{axis}-{value}"
            assert cli.main(["sweep", "--axis", axis, "--values", value, *extra,
                             "--nodes", "4", "--horizon", "3", "--out-dir", str(out_dir)]) == 1
            assert not out_dir.exists()
    capsys.readouterr()
    # topology flags go through generate_waxman's own check; no SD pair is an error too
    for i, flags in enumerate((["--cap-lo", "0"], ["--alpha", "-1"], ["--alpha", "nan"],
                               ["--p", "2"], ["--beta", "nan"], ["--sd-count", "-1"],
                               ["--sd-count", "0"], ["--nodes", "1"])):
        out_dir = tmp_path / f"topo-{i}"
        rc = cli.main(["sweep", "--axis", "kappa", "--values", "1", "--nodes", "4",
                       "--horizon", "3", *flags, "--out-dir", str(out_dir)])
        _assert_config_error(rc, capsys)
        assert not out_dir.exists(), flags
    out_dir = tmp_path / "horizon-cap"
    rc = cli.main(["sweep", "--axis", "kappa", "--values", "1", "--nodes", "4", "--horizon", "2",
                   "--mean-demand", "3", "--seeds", "1", "--policies", "ESDI-B",
                   "--horizon-cap", "-1", "--out-dir", str(out_dir)])
    _assert_config_error(rc, capsys)
    assert not out_dir.exists()
    # a bad kappa is named as such, whether it is the base flag or the axis
    for axis, flags in (("arrival-rate", ["--values", "1", "--kappa", "0"]),
                        ("kappa", ["--values", "0"])):
        out_dir = tmp_path / f"kappa-{axis}"
        rc = cli.main(["sweep", "--axis", axis, *flags, "--nodes", "4", "--horizon", "2",
                       "--mean-demand", "3", "--seeds", "1", "--policies", "ESDI-B",
                       "--out-dir", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: kappa must be >= 1, got 0\n", err
        assert not out_dir.exists()


def test_sweep_out_dir_that_is_a_file_fails_before_any_run(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run_sweep_case", runs.append)
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = cli.main(["sweep", "--axis", "kappa", "--values", "1", "--nodes", "4",
                   "--horizon", "2", "--mean-demand", "3", "--seeds", "1",
                   "--policies", "ESDI-B", "--out-dir", str(taken)])
    _assert_config_error(rc, capsys)
    assert runs == []


@pytest.mark.slow
def test_sweep_starts_no_more_workers_than_runs(tmp_path, monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    argv = ["sweep", "--axis", "kappa", "--values", "1", "--nodes", "4", "--horizon", "2",
            "--mean-demand", "3", "--policies", "ESDI-B"]
    assert cli.main([*argv, "--seeds", "1,2", "--workers", "5000",
                     "--out-dir", str(tmp_path / "two")]) == 0
    assert started == [2]
    # one run needs no pool at all
    assert cli.main([*argv, "--seeds", "1", "--workers", "5000",
                     "--out-dir", str(tmp_path / "one")]) == 0
    assert started == [2]
    payload = json.loads((tmp_path / "two" / "results.json").read_text())
    assert [r["status"] for r in payload["runs"]] == ["ok", "ok"]


def _paper_sweep(tmp_path, sub, *extra):
    out_dir = tmp_path / sub
    assert cli.main([
        "sweep", "--axis", "kappa", "--values", "1", "--paper-scale",
        "--policies", "ESDI-B", "--nodes", "4", "--horizon", "1", *extra,
        "--out-dir", str(out_dir),
    ]) == 0
    return json.loads((out_dir / "results.json").read_text())


def test_paper_scale_fills_unset_knobs(tmp_path):
    spellings = (["--mean-demand", "40"], ["--mean-demand=40"], ["--mean-dem", "40"])
    for i, spelling in enumerate(spellings):
        payload = _paper_sweep(tmp_path, f"s{i}", *spelling)
        base = payload["base"]
        assert base["mean_demand"] == 40.0, spelling    # explicit flags win
        assert base["nodes"] == 4
        assert base["cap_hi"] == 10                     # preset fills the rest
        assert base["deadline_mu"] == 0.4
        assert base["rate"] == 1.0
        assert payload["seeds"] == [1, 2, 3, 4, 5]
    assert _paper_sweep(tmp_path, "seeded", "--seeds", "7")["seeds"] == [7]


def _assert_config_error(rc, capsys):
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_gen_topology_negative_seed_is_config_error(tmp_path, capsys):
    rc = cli.main(["gen-topology", "--seed", "-1", "--out", str(tmp_path / "net.json")])
    _assert_config_error(rc, capsys)


def test_gen_topology_tiny_alpha_is_one_config_line(tmp_path, capsys):
    # every link probability underflows to zero, so no draw connects; the
    # overflow on the way there must not reach stderr as a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["gen-topology", "--nodes", "5", "--alpha", "1e-320",
                       "--out", str(tmp_path / "net.json")])
    assert [str(w.message) for w in caught] == []
    assert rc == 1
    assert capsys.readouterr().err == ("error: no connected draw in 1000 attempts "
                                       "(n=5, alpha=1e-320, beta=0.8)\n")


def test_gen_topology_nan_alpha_is_config_error(tmp_path, capsys):
    rc = cli.main(["gen-topology", "--nodes", "5", "--alpha", "nan",
                   "--out", str(tmp_path / "net.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: alpha must be a finite number, got nan\n"


def test_gen_workload_negative_seed_is_config_error(tmp_path, capsys):
    net_path = _gen_net(tmp_path)
    capsys.readouterr()
    rc = cli.main([
        "gen-workload", "--net", str(net_path), "--seed", "-1",
        "--out", str(tmp_path / "load.jsonl"),
    ])
    _assert_config_error(rc, capsys)


def test_simulate_negative_seed_is_config_error(tmp_path, capsys):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path)
    capsys.readouterr()
    rc = cli.main([
        "simulate", "--net", str(net_path), "--workload", str(load_path),
        "--policy", "ESDI-B", "--seed", "-1",
    ])
    _assert_config_error(rc, capsys)


def test_simulate_non_integer_demand_is_config_error(tmp_path, capsys):
    net_path = _gen_net(tmp_path)
    load_path = tmp_path / "bad.jsonl"
    load_path.write_text('{"id": 0, "s": 0, "t": 1, "d": "x", "a": 1, "deadline": null}\n')
    capsys.readouterr()
    rc = cli.main([
        "simulate", "--net", str(net_path), "--workload", str(load_path), "--policy", "ESDI-B",
    ])
    _assert_config_error(rc, capsys)


@pytest.mark.parametrize("field, value", [("d", 2.5), ("a", 1.5), ("d", True)])
def test_simulate_fractional_or_bool_field_is_config_error(tmp_path, capsys, field, value):
    net_path = _gen_net(tmp_path)
    sd = read_network(str(net_path)).sorted_sd[0]
    line = {"id": 0, "s": sd.lo, "t": sd.hi, "d": 3, "a": 1, "deadline": 20, field: value}
    load_path = tmp_path / "bad.jsonl"
    load_path.write_text(json.dumps(line) + "\n")
    capsys.readouterr()
    rc = cli.main([
        "simulate", "--net", str(net_path), "--workload", str(load_path), "--policy", "ESDI-E",
    ])
    _assert_config_error(rc, capsys)


def test_non_integer_node_id_is_config_error(tmp_path, capsys):
    net_path = tmp_path / "bad.json"
    net_path.write_text(json.dumps({
        "nodes": [{"id": "a", "q": 0.9}, {"id": 1, "q": 0.9}],
        "links": [], "sd_pairs": [],
    }))
    rc = cli.main(["gen-workload", "--net", str(net_path), "--out", str(tmp_path / "w.jsonl")])
    _assert_config_error(rc, capsys)


def test_fractional_node_id_is_config_error(tmp_path, capsys):
    net_path = tmp_path / "bad.json"
    net_path.write_text(json.dumps({
        "nodes": [{"id": 0, "q": 0.9}, {"id": 1.5, "q": 0.9}],
        "links": [{"u": 0, "v": 1.5, "c": 1, "p": 0.9}], "sd_pairs": [[0, 1.5]],
    }))
    rc = cli.main(["gen-workload", "--net", str(net_path), "--out", str(tmp_path / "w.jsonl")])
    _assert_config_error(rc, capsys)


def test_capacity_the_solver_cannot_hold_is_a_config_error(tmp_path, capsys):
    # capacity * p = 9e18 would exceed HiGHS's largest matrix value, 1e15
    net_path = tmp_path / "huge.json"
    net_path.write_text(json.dumps({
        "nodes": [{"id": 0, "q": 0.9}, {"id": 1, "q": 0.9}, {"id": 2, "q": 0.9}],
        "links": [{"u": 0, "v": 1, "c": 10**19, "p": 0.9}, {"u": 1, "v": 2, "c": 2, "p": 0.9}],
        "sd_pairs": [[0, 2]],
    }))
    rc = cli.main(["gen-workload", "--net", str(net_path), "--out", str(tmp_path / "w.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read network {net_path}: link capacity "
                                       f"{10**19} exceeds the maximum {MAX_CAPACITY}\n")
    rc = cli.main(["gen-topology", "--nodes", "4", "--cap-hi", str(10**10),
                   "--out", str(tmp_path / "net.json")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cap_hi {10**10} exceeds the maximum {MAX_CAPACITY}\n")
    assert not (tmp_path / "net.json").exists()


def test_pair_with_equal_endpoints_is_a_one_line_config_error(tmp_path, capsys):
    net_path = tmp_path / "loop.json"
    net_path.write_text(json.dumps({
        "nodes": [{"id": 0, "q": 0.9}, {"id": 1, "q": 0.9}],
        "links": [{"u": 0, "v": 0, "c": 1, "p": 0.9}, {"u": 0, "v": 1, "c": 1, "p": 0.9}],
        "sd_pairs": [[0, 1]],
    }))
    rc = cli.main(["gen-workload", "--net", str(net_path), "--out", str(tmp_path / "w.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read network {net_path}: "
                                       "pair endpoints must differ, got 0 and 0\n")
    assert not (tmp_path / "w.jsonl").exists()

    net_path = _gen_net(tmp_path)
    load_path = tmp_path / "same.jsonl"
    load_path.write_text(json.dumps({"id": 0, "s": 1, "t": 1, "d": 3, "a": 1}) + "\n")
    capsys.readouterr()
    rc = cli.main([
        "simulate", "--net", str(net_path), "--workload", str(load_path), "--policy", "ESDI-B",
    ])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read workload {load_path} line 1: "
                                       "pair endpoints must differ, got 1 and 1\n")


# each of these once overflowed a workload draw: numpy refused the Poisson
# mean, or a demand or lifetime came out infinite, or the draws ran for minutes
OVERFLOWING_DRAWS = [
    (["--rate", "1e19"], "arrival-rate", "1e19", [],
     f"error: arrival rate 1e+19 over 20 slots expects more than {MAX_ARRIVALS} arrivals\n"),
    (["--rate", "9e18"], "arrival-rate", "9e18", [],
     f"error: arrival rate 9e+18 over 20 slots expects more than {MAX_ARRIVALS} arrivals\n"),
    (["--mean-demand", "1e308"], "mean-demand", "1e308", [],
     f"error: mean demand 1e+308 exceeds the maximum {MAX_DEMAND}\n"),
    (["--deadline-mu", "0.4", "--deadline-factor", "1e306", "--mean-demand", "1e6"],
     "deadline-factor", "1e306", ["--deadline-mu", "0.4", "--mean-demand", "1e6"],
     "error: deadline factor times window top 5e+305 exceeds the maximum "
     f"{MAX_DEADLINE_SCALE}\n"),
]


@pytest.mark.parametrize("flags, axis, value, base, message", OVERFLOWING_DRAWS)
def test_workload_draws_that_overflow_are_config_errors(tmp_path, capsys, flags, axis, value, base,
                                                       message):
    net_path = _gen_net(tmp_path)
    out = tmp_path / "w.jsonl"
    rc = cli.main(["gen-workload", "--net", str(net_path), *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    # the sweep refuses the same value before any run, rather than recording failed runs
    out_dir = tmp_path / "sweep"
    rc = cli.main(["sweep", "--axis", axis, "--values", value, *base, "--nodes", "4",
                   "--horizon", "20", "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out_dir.exists()


def test_horizon_past_the_limit_is_refused_before_any_draw(tmp_path, capsys):
    # the draw walks every slot, about 1 us each, so 10^12 empty slots would run for days
    net_path = _gen_net(tmp_path)
    message = f"error: horizon {10**12} exceeds the maximum {MAX_HORIZON}\n"
    out = tmp_path / "w.jsonl"
    started = time.perf_counter()
    rc = cli.main(["gen-workload", "--net", str(net_path), "--rate", "0",
                   "--horizon", str(10**12), "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    out_dir = tmp_path / "sweep"
    rc = cli.main(["sweep", "--axis", "arrival-rate", "--values", "0", "--nodes", "4",
                   "--horizon", str(10**12), "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out_dir.exists()


def test_demand_the_deadline_lp_cannot_hold_is_a_config_error(tmp_path, capsys):
    # a demand of 1e30 due in two slots once reached HiGHS as a surplus
    # bound past its infinite bound, 1e20, and the run exited 2
    net_path = _gen_net(tmp_path)
    s, t = read_network(str(net_path)).sorted_sd[0]
    load_path = tmp_path / "huge.jsonl"
    argv = ["simulate", "--net", str(net_path), "--workload", str(load_path), "--policy", "ESDI-E"]
    capsys.readouterr()
    for demand, rc in ((10**30, 1), (MAX_COMMODITY_DEMAND, 0)):
        load_path.write_text(json.dumps({"id": 0, "s": s, "t": t, "d": demand, "a": 1,
                                         "deadline": 3}) + "\n")
        assert cli.main(argv) == rc
        captured = capsys.readouterr()
        if rc:
            assert captured.out == ""
            assert captured.err == (f"error: cannot read workload {load_path} line 1: commodity 0: "
                                    f"demand {demand} exceeds the maximum {MAX_COMMODITY_DEMAND}\n")
        else:
            # at the limit the deadline program holds the need and rejects it
            assert json.loads(captured.out)["success_ratio"] == 0.0
            assert captured.err == ""


def _bad_file(kind: str, flag: str) -> bytes:
    """The content of a bad file of `kind` given as `flag`."""
    if kind == "huge-int":
        if flag == "--net":
            return json.dumps({"nodes": [{"id": 0, "q": 0.9}, {"id": 1, "q": 0.9}],
                               "links": [{"u": 0, "v": 1, "c": 10**400, "p": 0.9}],
                               "sd_pairs": [[0, 1]]}).encode()
        return json.dumps({"id": 10**400, "s": 0, "t": 1, "d": 3, "a": 1}).encode()
    return {"not-utf8": b"\xff\xfe\x00garbage", "too-deep": b"[" * 200_000,
            "malformed": b'{"nodes": [{"id": 0, "q"'}[kind]


# each but the absent and the malformed file once ended in a traceback:
# UnicodeDecodeError, RecursionError or OverflowError
@pytest.mark.parametrize("kind", ["not-utf8", "too-deep", "huge-int", "malformed", "absent"])
@pytest.mark.parametrize("command, flag", [("gen-workload", "--net"), ("simulate", "--net"),
                                           ("simulate", "--workload")])
def test_bad_file_is_a_one_line_config_error(tmp_path, capsys, kind, command, flag):
    net_path = _gen_net(tmp_path)
    files = {"--net": net_path, "--workload": _gen_load(tmp_path, net_path)}
    bad = files[flag] = tmp_path / "bad"
    if kind != "absent":
        bad.write_bytes(_bad_file(kind, flag))
    out = tmp_path / "out"
    argv = [command, "--net", str(files["--net"]), "--out", str(out)]
    if command == "simulate":
        argv += ["--workload", str(files["--workload"]), "--policy", "ESDI-B"]
    capsys.readouterr()
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert str(bad) in captured.err, captured.err
    assert not out.exists()


# each once printed its refusal without naming the file it came from
@pytest.mark.parametrize("command, flag, content, message", [
    ("gen-workload", "--net",
     {"nodes": [{"id": 0, "q": 0.9}, {"id": 0, "q": 0.9}], "links": [], "sd_pairs": []},
     "cannot read network {path}: duplicate node id 0"),
    ("simulate", "--net", {"nodes": 5},
     "cannot read network {path}: malformed network object: 'int' object is not iterable"),
    ("simulate", "--workload", {"id": 0, "s": 0, "t": 1, "d": 1.5, "a": 1},
     "cannot read workload {path} line 1: commodity 0: demand must be a whole number, got 1.5"),
], ids=["duplicate-node", "nodes-not-a-list", "fractional-demand"])
def test_a_refused_file_content_names_the_file(tmp_path, capsys, command, flag, content, message):
    net_path = _gen_net(tmp_path)
    files = {"--net": net_path, "--workload": _gen_load(tmp_path, net_path)}
    bad = files[flag] = tmp_path / "bad.json"
    bad.write_text(json.dumps(content) + "\n")
    argv = [command, "--net", str(files["--net"]), "--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--workload", str(files["--workload"]), "--policy", "ESDI-B"]
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=bad)}\n"


def test_sweep_bad_or_empty_lists_are_config_errors(tmp_path, capsys):
    argv = ["sweep", "--axis", "kappa", "--nodes", "4", "--horizon", "2"]
    for i, (flags, prefix) in enumerate((
        (["--values", "1", "--seeds", "1,x"], "error: bad --seeds: "),
        (["--values", ","], "error: --values is empty\n"),
        (["--values", "1", "--seeds", ","], "error: --seeds is empty\n"),
        (["--values", "1", "--policies", ","], "error: --policies is empty\n"),
        (["--values", "1", "--workers", "0"], "error: --workers must be >= 1, got 0\n"),
        (["--values", "1,2,1"], "error: --values repeats 1\n"),
        # the later --axis wins: on a float axis 1 and 1.0 are one value
        (["--axis", "arrival-rate", "--values", "1,1.0"], "error: --values repeats 1.0\n"),
        (["--values", "1", "--seeds", "0,0"], "error: --seeds repeats 0\n"),
        (["--values", "1", "--policies", "ESDI-B,ESDI-B"], "error: --policies repeats 'ESDI-B'\n"),
    )):
        out_dir = tmp_path / f"s{i}"
        rc = cli.main([*argv, *flags, "--out-dir", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, (flags, err)
        assert not out_dir.exists(), flags


def test_simulate_unreadable_network_is_config_error(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    rc = cli.main(["simulate", "--net", str(absent), "--workload", str(tmp_path / "w.jsonl"),
                   "--policy", "ESDI-B"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{absent}'\n", err


def test_simulate_invariant_failure_exits_with_invariant_code(tmp_path, monkeypatch, capsys):
    net_path = _gen_net(tmp_path)
    load_path = _gen_load(tmp_path, net_path)
    capsys.readouterr()

    def broken_run(*args, **kwargs):
        raise ConservationError("slot 4: generated 7 != accounted 6")

    monkeypatch.setattr(cli, "run_simulation", broken_run)
    rc = cli.main(["simulate", "--net", str(net_path), "--workload", str(load_path),
                   "--policy", "ESDI-B"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violated: slot 4: generated 7 != accounted 6\n"


def test_sweep_records_a_failed_run_and_finishes(tmp_path, monkeypatch, capsys):
    run = cli.run_simulation

    def failing_for_ordered(net, commodities, policy, **kwargs):
        if policy == "ESDI-O":
            raise SolverError("total stage: solver returned unbounded")
        return run(net, commodities, policy, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", failing_for_ordered)
    out_dir = tmp_path / "sweep"
    rc = cli.main(["sweep", "--axis", "kappa", "--values", "1", "--nodes", "4",
                   "--horizon", "2", "--mean-demand", "3", "--seeds", "1",
                   "--policies", "ESDI-B,ESDI-O", "--horizon-cap", "3000",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    assert capsys.readouterr().out.endswith("(2 runs, 1 failed)\n")
    payload = json.loads((out_dir / "results.json").read_text())
    ok, failed = payload["runs"]
    assert ok["status"] == "ok"
    assert failed == {"sweep_value": 1, "policy": "ESDI-O", "seed": 1, "status": "error",
                      "error": "SolverError: total stage: solver returned unbounded"}
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["policy"], r["n_runs"]) for r in rows] == [("ESDI-B", "1"), ("ESDI-O", "0")]


def test_network_too_large_to_plan_is_config_error(tmp_path, capsys):
    out = tmp_path / "net.json"
    rc = cli.main(["gen-topology", "--nodes", str(MAX_NODES + 1), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: node count {MAX_NODES + 1} exceeds the maximum {MAX_NODES}\n")
    assert not out.exists()
    out.write_text(json.dumps({
        "nodes": [{"id": v, "q": 0.9} for v in range(MAX_NODES + 1)],
        "links": [{"u": v, "v": v + 1, "c": 1, "p": 0.9} for v in range(MAX_NODES)],
        "sd_pairs": [[0, MAX_NODES]],
    }))
    rc = cli.main(["gen-workload", "--net", str(out), "--out", str(tmp_path / "w.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read network {out}: node count "
                                       f"{MAX_NODES + 1} exceeds the maximum {MAX_NODES}\n")
    assert not (tmp_path / "w.jsonl").exists()


@pytest.mark.parametrize("section,key,value,line", [
    ("nodes", "q", True, "error: node 0: swap probability must be a finite number, got True\n"),
    ("nodes", "q", "0.9",
     "error: node 0: swap probability must be a finite number, got '0.9'\n"),
    ("links", "p", "0.9",
     "error: link 0:1: success probability must be a finite number, got '0.9'\n"),
    ("links", "p", None,
     "error: link 0:1: success probability must be a finite number, got None\n"),
    ("nodes", "q", 1, None),
])
def test_network_file_probabilities_must_be_numbers(tmp_path, capsys, section, key, value, line):
    obj = {"nodes": [{"id": v, "q": 0.9} for v in range(3)],
           "links": [{"u": 0, "v": 1, "c": 2, "p": 0.9}, {"u": 1, "v": 2, "c": 2, "p": 0.9}],
           "sd_pairs": [[0, 2]]}
    obj[section][0][key] = value
    net, load = tmp_path / "net.json", tmp_path / "w.jsonl"
    net.write_text(json.dumps(obj))
    rc = cli.main(["gen-workload", "--net", str(net), "--horizon", "3", "--out", str(load)])
    if line is None:  # an integer probability is a number
        assert rc == 0
        assert read_network(str(net)).q[0] == 1.0
    else:
        assert rc == 1
        assert capsys.readouterr().err == line.replace("error: ",
                                                       f"error: cannot read network {net}: ", 1)
        assert not load.exists()


# the sweep's base keys and --paper-scale preset as they stood before one
# table, `cli.SCENARIO`, stated every scenario parameter
BASE_KEYS = ["nodes", "alpha", "beta", "cap_lo", "cap_hi", "p", "q", "sd_count", "rate",
             "mean_demand", "min_demand", "horizon", "deadline_mu", "deadline_halfwidth",
             "deadline_factor", "kappa", "cascade_depth", "max_buffer_age", "horizon_cap"]
PRESET = {"nodes": 20, "alpha": 0.8, "beta": 0.8, "cap_lo": 3, "cap_hi": 10, "p": 0.9,
          "q": 0.9, "sd_count": 3, "rate": 1.0, "mean_demand": 600.0, "min_demand": 100,
          "horizon": 60, "deadline_mu": 0.4, "deadline_halfwidth": 0.1,
          "deadline_factor": 1.0, "kappa": 1, "seeds": "1,2,3,4,5"}


def test_the_paper_scale_preset_is_unchanged():
    assert [(k, type(v), v) for k, v in cli.PRESET.items()] == [
        (k, type(v), v) for k, v in PRESET.items()]


@pytest.mark.parametrize("axis, value, recorded", [("graph-size", "4", 4),
                                                   ("mean-demand", "3", 3.0)])
def test_a_sweep_records_its_base_and_axis_values_as_before(tmp_path, axis, value, recorded):
    out_dir = tmp_path / "sweep"
    assert cli.main(["sweep", "--axis", axis, "--values", value, "--policies", "ESDI-B",
                     "--seeds", "1", "--nodes", "4", "--horizon", "2", "--mean-demand", "3",
                     "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "results.json").read_text())
    assert list(payload["base"]) == BASE_KEYS
    assert [(type(v), v) for v in payload["values"]] == [(type(recorded), recorded)]


USAGE = {
    "gen-topology": """\
usage: entsched gen-topology [-h] [--nodes NODES] [--alpha ALPHA]
                             [--beta BETA] [--cap-lo CAP_LO] [--cap-hi CAP_HI]
                             [--p P] [--q Q] [--sd-count SD_COUNT]
                             [--seed SEED] --out OUT
""",
    "gen-workload": """\
usage: entsched gen-workload [-h] --net NET [--rate RATE]
                             [--mean-demand MEAN_DEMAND]
                             [--min-demand MIN_DEMAND] [--horizon HORIZON]
                             [--deadline-mu DEADLINE_MU]
                             [--deadline-halfwidth DEADLINE_HALFWIDTH]
                             [--deadline-factor DEADLINE_FACTOR] [--seed SEED]
                             --out OUT
""",
    "simulate": """\
usage: entsched simulate [-h] --net NET --workload WORKLOAD --policy
                         {ESDI-B,ESDI-O,ESDI-E} [--kappa KAPPA]
                         [--cascade-depth CASCADE_DEPTH]
                         [--max-buffer-age MAX_BUFFER_AGE]
                         [--horizon-cap HORIZON_CAP] [--seed SEED]
                         [--trace TRACE] [--out OUT]
""",
    "sweep": """\
usage: entsched sweep [-h] --axis
                      {arrival-rate,mean-demand,graph-size,deadline-factor,kappa}
                      --values VALUES [--policies POLICIES] [--seeds SEEDS]
                      [--workers WORKERS] [--paper-scale] [--nodes NODES]
                      [--alpha ALPHA] [--beta BETA] [--cap-lo CAP_LO]
                      [--cap-hi CAP_HI] [--p P] [--q Q] [--sd-count SD_COUNT]
                      [--rate RATE] [--mean-demand MEAN_DEMAND]
                      [--min-demand MIN_DEMAND] [--horizon HORIZON]
                      [--deadline-mu DEADLINE_MU]
                      [--deadline-halfwidth DEADLINE_HALFWIDTH]
                      [--deadline-factor DEADLINE_FACTOR] [--kappa KAPPA]
                      [--cascade-depth CASCADE_DEPTH]
                      [--max-buffer-age MAX_BUFFER_AGE]
                      [--horizon-cap HORIZON_CAP] --out-dir OUT_DIR
""",
}


@pytest.mark.parametrize("command", USAGE)
def test_each_subcommand_keeps_its_usage_line(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.split("\n\n")[0] + "\n" == USAGE[command]
