"""Alternating parent/change pairs of the benchmark, summarized per metric.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload hill9-bernoulli --pairs 10 --seed-base 2901 \
        --out BENCH_29.json

Pair i runs ``python3 bench/bench.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, with S = seed base + i for both and T
the change's BENCHMARK.json ``run_seconds``. The parent runs first in
even-numbered pairs and the change in odd-numbered ones, so each side
goes first in half the pairs. Every run's JSON result line is kept. Per
workload and end-to-end metric the output holds each side's quartiles,
the pairs the change won, the median gain (the medians' relative change,
signed so that better is positive), the parent's quartile spread (q3 -
q1 over the median) and whether a claimed gain on that metric would be
met (CLAIM_RULE). Which way is better comes from the change's
BENCHMARK.json. ``--workload`` may be given more than once; workloads
run one after another.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles


def run_bench(checkout, workload, seed, seconds):
    """bench/bench.py's JSON result line in checkout, with its exit code."""
    cmd = [sys.executable, "bench/bench.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    return proc.returncode, result


def quartiles(values):
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(runs, better):
    """Per metric of better ({name: "higher" | "lower"}): both sides'
    quartiles, the change's wins among the pairs where both sides report
    the metric, its median gain, the parent's spread and the claim rule's
    verdict."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    out = {}
    for name, way in better.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs.values()
                if name in p.get("parent", {}) and name in p.get("change", {})]
        if len(both) < 2:
            continue
        sign = 1.0 if way == "higher" else -1.0
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        row = {
            "parent": parent,
            "change": change,
            "gain": sign * (change["median"] / parent["median"] - 1.0),
            "parent_spread": (parent["q3"] - parent["q1"]) / parent["median"],
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in both),
            "pairs": len(both),
        }
        out[name] = {**row, "claim_met": claim_met(row)}
    return out


CLAIM_RULE = ("the change wins at least 9 in 10 of the pairs, and its median gain exceeds the "
              "parent's quartile spread")


def claim_met(row):
    """Whether a summary row meets CLAIM_RULE."""
    return row["change_better_pairs"] >= 0.9 * row["pairs"] and row["gain"] > row["parent_spread"]


def git_head(checkout):
    """checkout's commit, noting uncommitted changes; outside git, its
    directory's name, as its full path need not mean anything elsewhere."""
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=checkout, capture_output=True, text=True).stdout
    rev = git("rev-parse", "HEAD").strip()
    if not rev:
        return f"{checkout.resolve().name}, not a git checkout"
    return rev + (" with uncommitted changes" if git("status", "--porcelain").strip() else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed-base", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                rc, result = run_bench(sides[side], workload, seed, seconds)
                # bench.py reports each metric as {"value": ..., "unit": ...}
                metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                runs.append({"workload": workload, "pair": pair, "side": side, "seed": seed,
                             "first": side == order[0], "rc": rc, "result": result,
                             "metrics": metrics})
                print(workload, pair, side, rc, json.dumps(metrics), flush=True)

    summary = {}
    for workload in args.workload:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            "pairs": args.pairs,
            "failed_runs": sum(r["rc"] != 0 or not r["result"].get("correct") for r in mine),
            **summarize(mine, better),
        }
    report = {
        "what": (f"bench/bench.py --trace 0, parent vs change, {args.pairs} alternating pairs per "
                 f"workload (parent first in even-numbered pairs), seeds {args.seed_base}.."
                 f"{args.seed_base + args.pairs - 1}, one seed per pair"),
        "command": (f"python3 bench/bench.py --workload <w> --seed <s> "
                    f"--seconds {seconds:g} --trace 0"),
        "machine": (f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}"),
        "parent": git_head(args.parent),
        "change": git_head(args.change),
        "claim_rule": CLAIM_RULE,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
