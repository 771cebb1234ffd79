"""Alternating parent/change pairs of the benchmark, and each end-to-end metric's tally.

    python3 tools/pairs.py REV --workload W --seeds A-B [--seconds 30] [--json FILE]

Run it from the root of a checkout. It extracts ``git archive REV`` (the
parent) into a temporary directory and, for each seed S from A to B, runs
the command ``BENCHMARK.json`` declares with ``--workload W --seed S
--seconds N --trace 0`` once in that archive and once in the working tree
(the change). Pair i, counted from 0, runs the parent first when i is even.
It keeps each run's result line, the last line the benchmark prints.

For every end-to-end metric in ``BENCHMARK.json`` it then prints each
side's median and inclusive quartiles, and how many pairs the change won,
tied and lost by the metric's ``better``; a pair where either side printed
no value for the metric counts in none of them. With ``--json`` it writes
the settings, the summary and the result lines to FILE under the workload's
name, keeping what FILE already holds for other workloads run against the
same parent. It only reads ``perfbench/`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WHAT = ("Alternating parent/change pairs of the benchmark command with `--trace 0`, one "
        "pair per seed, the parent run from an archive of its commit and the change from "
        "the working tree; pair i runs the parent first when i is even. Each entry of "
        "`runs` keeps the result line as printed. Quartiles are inclusive.")


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"seeds must read A-B with 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _run(command: list[str], cwd: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The record and result lines of one benchmark run; a run that printed
    no result line gives its exit code and the tail of its standard error."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-2])["record"], json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        return {}, {"correct": False, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}


def _value(result: dict, name: str) -> float | None:
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def _fmt(x: float) -> float:
    return float(f"{x:.5g}")


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles over the pairs
    where both sides printed it, and the pairs the change won and lost."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(a, b) for a, b in ((_value(p, name), _value(c, name))
                                    for p, c in zip(parent, change))
                if a is not None and b is not None]
        if not both:
            continue
        old, new = [a for a, _ in both], [b for _, b in both]
        summary[name] = {
            "parent_median": _fmt(statistics.median(old)),
            "parent_quartiles": [_fmt(x) for x in _quartiles(old)],
            "change_median": _fmt(statistics.median(new)),
            "change_quartiles": [_fmt(x) for x in _quartiles(new)],
            "change_better_pairs": sum(b < a if lower else b > a for a, b in both),
            "change_worse_pairs": sum(b > a if lower else b < a for a, b in both),
            "pairs": len(both),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--json", type=Path, help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    parent_rev = _git("rev-parse", "--short", args.rev)
    head = _git("rev-parse", "--short", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    change_rev = f"working tree on {head}" + (" with uncommitted changes" if dirty else "")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    record: dict = {}
    with tempfile.TemporaryDirectory() as archive:
        _extract(args.rev, archive)
        sides = {"parent": archive, "change": str(ROOT)}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                rec, result = _run(bench["command"], sides[side], args.workload, seed,
                                   args.seconds)
                record = record or rec
                runs[side].append(result)
            first = bench["end_to_end"][0]["name"]
            print(f"pair {i} seed {seed}: {first} parent {_value(runs['parent'][-1], first)} "
                  f"change {_value(runs['change'][-1], first)}", flush=True)

    summary = summarize(bench["end_to_end"], runs["parent"], runs["change"])
    print(f"{args.workload}: parent {parent_rev}, change {change_rev}, "
          f"seeds {args.seeds.start}-{args.seeds.stop - 1}")
    for metric in bench["end_to_end"]:
        s = summary.get(metric["name"])
        if s is None:
            print(f"  {metric['name']}: no pair printed it")
            continue
        ties = s["pairs"] - s["change_better_pairs"] - s["change_worse_pairs"]
        print(f"  {metric['name']} ({metric['unit']}, {metric['better']} is better): "
              f"parent {s['parent_median']:g} [{s['parent_quartiles'][0]:g}, "
              f"{s['parent_quartiles'][1]:g}], change {s['change_median']:g} "
              f"[{s['change_quartiles'][0]:g}, {s['change_quartiles'][1]:g}]; change won "
              f"{s['change_better_pairs']}, tied {ties}, lost {s['change_worse_pairs']} "
              f"of {s['pairs']}")
    failed = sum(not r.get("correct") for side in runs.values() for r in side)
    if failed:
        print(f"  {failed} runs printed no correct result")

    if args.json is not None:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        if doc.get("parent", parent_rev) != parent_rev:
            print(f"error: {args.json} holds runs against {doc['parent']}, not {parent_rev}",
                  file=sys.stderr)
            return 2
        host = (f"{record.get('cores')}-core host; Python {record.get('python')}, "
                f"numpy {record.get('numpy')}, scipy {record.get('scipy')}")
        doc.update(what=WHAT, parent=parent_rev, change=change_rev, host=host)
        doc.setdefault("settings", {})[args.workload] = {
            "seeds": f"{args.seeds.start}-{args.seeds.stop - 1}", "seconds": args.seconds}
        doc.setdefault("summary", {})[args.workload] = summary
        doc.setdefault("runs", {})[args.workload] = runs
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
