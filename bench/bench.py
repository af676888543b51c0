"""Benchmark of the unimodal-bandits Monte Carlo study.

Run from the root of a checkout:

    python3 bench/bench.py --workload hill9-bernoulli --seed 1 --seconds 15 --trace 0

Each measurement runs in a fresh interpreter (bench/child.py) through the
public CLI entry point with ``--seed`` and ``--out`` pointing into
``.bench_build/``, never into the source tree. With ``--trace 0`` the
script prints the end-to-end metrics; with ``--trace 1`` it runs the
outside-in tracer (bench/tracer.py) and prints the per-layer metrics.
Either way it checks the outputs, prints one ``name value unit`` line per
metric and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. It exits 1 when a correctness
check fails and 2 when the checkout lacks the program. See
bench/README.md for the workloads, the metrics and how they relate.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import function_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 150

# overrides of each workload's runs per repetition and horizon; "tiny" is
# for bench/selftest.py only
SIZES = {"full": {}, "tiny": {"runs": 1, "horizon": 1000}}
PROBE = {"full": {"runs": 1, "horizon": 10000}, "tiny": {"runs": 1, "horizon": 500}}

# the reason for each workload is in BENCHMARK.json and bench/README.md
WORKLOADS = {
    "hill9-bernoulli": {
        "config": "configs/hill9_bernoulli.json",
        "runs": 1,
    },
    "grid36-exponential": {
        "config": "bench/configs/grid36_exponential.json",
        "runs": 1,
    },
    "traced-gaussian": {
        "config": "bench/configs/hill9_gaussian.json",
        "runs": 2,
        "traces": True,
    },
    "hill9-pool2": {
        "config": "configs/hill9_bernoulli.json",
        "runs": 2,
        "workers": 2,
        "serial_twin": "hill9-bernoulli",
    },
}

END_TO_END = {
    "steps_per_s": "1/s",
    "check_records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace_bytes_per_step": "B/step",
}


class Checks:
    """Correctness checks attempted and failed, with the failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def git_commit():
    """Commit of the checkout from .git files, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Study:
    """One workload at one size: spawns children, keeps their outputs apart."""

    def __init__(self, name, size, seed):
        self.name = name
        self.spec = WORKLOADS[name]
        self.size = size
        self.seed = seed
        self.config = ROOT / self.spec["config"]
        raw = json.loads(self.config.read_text())
        self.default_seed = raw["seed"]
        self.config_horizon = raw["horizon"]
        self.runs = SIZES[size].get("runs", self.spec["runs"])
        self.horizon = SIZES[size].get("horizon", raw["horizon"])
        self.grid_len = None
        self.numpy = None
        self.policies = len(raw["policies"])
        self.arms = len(raw["means"])
        self.steps = self.policies * self.runs * self.horizon
        self.work = WORK / "work" / f"{name}-{os.getpid()}"
        self._count = 0

    def run_args(self, runs=None, horizon=None, workers=None):
        args = ["--runs", str(runs or self.runs)]
        horizon = horizon or self.horizon
        if horizon != self.config_horizon:
            args += ["--horizon", str(horizon)]
        args += ["--workers", str(workers or self.spec.get("workers", 1))]
        if self.spec.get("traces"):
            args += ["--traces", "--check-invariants"]
        return args

    def child(self, mode, seed=None, run_args=None, check=None, **extra):
        """Run bench/child.py once; returns (result or None, its out dir).

        check: None, True to check the child's own traced output, or the
        path of another traced output directory to time ``check`` on.
        """
        self._count += 1
        tag = f"{mode}{self._count}"
        out = self.work / tag
        req = {
            "mode": mode,
            "config": str(self.config),
            "seed": self.seed if seed is None else seed,
            "out": str(out),
            "run_args": self.run_args() if run_args is None else run_args,
            "check": str(out) if check is True else check,
            **extra,
        }
        self.work.mkdir(parents=True, exist_ok=True)
        req_path = self.work / f"{tag}.request.json"
        res_path = self.work / f"{tag}.result.json"
        req_path.write_text(json.dumps(req))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        # own session, so a timeout also ends the pool workers of the child
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(req_path), str(res_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{tag}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None, out
        if proc.returncode != 0 or not res_path.exists():
            sys.stderr.write(output)
            return None, out
        res = json.loads(res_path.read_text())
        self.numpy = res["numpy"]
        return res, out


def regret_ok(checks, out, study, label):
    """regret.csv exists, has the header and one row per (policy, grid time)."""
    path = Path(out) / "regret.csv"
    if not checks.expect(path.exists(), f"{label}: regret.csv written"):
        return None
    lines = path.read_text().splitlines()
    checks.expect(lines[:1] == ["policy,t,mean,std,q10,q90"], f"{label}: regret.csv header")
    rows = lines[1:]
    policies = {r.split(",")[0] for r in rows}
    checks.expect(
        len(policies) == study.policies and len(rows) % study.policies == 0,
        f"{label}: one curve per policy in regret.csv",
    )
    study.grid_len = len(rows) // study.policies
    return path.read_bytes()


def digest_check(checks, study, out):
    want = json.loads(DIGESTS.read_text()).get(study.size, {}).get(study.name, {})
    for fname in ("regret.csv", "theory.json"):
        got = sha256(Path(out) / fname) if (Path(out) / fname).exists() else "missing"
        checks.expect(
            got == want.get(fname),
            f"{study.name}: {fname} at seed {study.default_seed} has sha256 {got}, "
            f"reference {want.get(fname)}",
        )


def trace_dir_size(out):
    return sum(p.stat().st_size for p in (Path(out) / "traces").glob("*.jsonl"))


def make_probe(study, checks):
    """Traced output of this workload's policies on a small study.

    Untraced workloads still report the check and trace metrics: every
    repetition times one ``check`` of this output. Returns (dir, records
    check must verify, trace bytes per step) or None.
    """
    p = PROBE[study.size]
    args = study.run_args(runs=p["runs"], horizon=p["horizon"]) + ["--traces", "--check-invariants"]
    res, out = study.child("measure", run_args=args)
    ok = checks.expect(res is not None and res["run_rc"] == 0, f"{study.name}: probe run exits 0")
    if not ok:
        return None
    checks.expect(
        "invariant checks: all steps clean" in res["run_stdout"],
        f"{study.name}: probe imed-ub reports zero invariant violations",
    )
    steps = study.policies * p["runs"] * p["horizon"]
    return out, p["runs"] * (p["horizon"] - study.arms), trace_dir_size(out) / steps


def measure_end_to_end(study, seconds, checks):
    traced = bool(study.spec.get("traces"))
    if traced:
        records = study.runs * (study.horizon - study.arms)
    else:
        probe = make_probe(study, checks)
        if probe is None:
            return None
        probe_dir, records, probe_bytes = probe

    reps = []
    regrets = []
    start = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - start < seconds:
        label = f"{study.name} rep {len(reps)}"
        res, out = study.child("measure", check=True if traced else str(probe_dir))
        if not checks.expect(res is not None and res["run_rc"] == 0, f"{label}: run exits 0"):
            break
        regrets.append(regret_ok(checks, out, study, label))
        if traced:
            checks.expect(
                "invariant checks: all steps clean" in res["run_stdout"],
                f"{label}: imed-ub reports zero invariant violations",
            )
            res["trace_bytes"] = trace_dir_size(out)
        checks.expect(
            res["check_rc"] == 0 and f"OK: {records} records checked" in res["check_stdout"],
            f"{label}: check exits 0 after verifying {records} records",
        )
        reps.append(res)
        shutil.rmtree(out, ignore_errors=True)
    if not traced:
        shutil.rmtree(probe_dir, ignore_errors=True)
    if not reps:
        return None
    checks.expect(
        all(r == regrets[0] for r in regrets),
        f"{study.name}: regret.csv identical across repetitions at seed {study.seed}",
    )

    # reference output at the config's own seed against recorded digests
    res, out = study.child("measure", seed=study.default_seed)
    if checks.expect(res is not None and res["run_rc"] == 0, f"{study.name}: reference run"):
        digest_check(checks, study, out)
    shutil.rmtree(out, ignore_errors=True)

    twin = study.spec.get("serial_twin")
    if twin:
        res, out = study.child("measure", run_args=study.run_args(workers=1))
        same = res is not None and (Path(out) / "regret.csv").exists() and (
            (Path(out) / "regret.csv").read_bytes() == regrets[0]
        )
        checks.expect(same, f"{study.name}: regret.csv byte-identical to {twin} (1 worker)")
        shutil.rmtree(out, ignore_errors=True)

    return {
        "steps_per_s": median([study.steps / r["run_s"] for r in reps]),
        "check_records_per_s": median([records / r["check_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([(r["rss_self_kb"] + r["rss_children_kb"]) / 1024 for r in reps]),
        "trace_bytes_per_step": (
            median([r["trace_bytes"] / study.steps for r in reps]) if traced else probe_bytes
        ),
    }


def measure_per_layer(study, seconds, checks, meta):
    res, out = study.child("traced", check=bool(study.spec.get("traces")), seconds=seconds)
    if not checks.expect(res is not None, f"{study.name}: traced child completes"):
        return None
    pairs = res["pairs"]
    for i, pair in enumerate(pairs):
        u, t = pair["untraced"], pair["traced"]
        checks.expect(u["rc"] == 0 and t["rc"] == 0, f"{study.name} pair {i}: runs exit 0")
        if study.spec.get("traces"):
            checks.expect(
                u.get("check_rc") == 0 and t.get("check_rc") == 0,
                f"{study.name} pair {i}: check exits 0",
            )
        ru = regret_ok(checks, u["out"], study, f"{study.name} pair {i} untraced")
        rt = regret_ok(checks, t["out"], study, f"{study.name} pair {i} traced")
        checks.expect(
            ru is not None and ru == rt,
            f"{study.name} pair {i}: tracing leaves regret.csv unchanged",
        )
    traced = [p["traced"] for p in pairs]
    calls = [{k: v[0] for k, v in t["totals"].items()} for t in traced]
    checks.expect(
        all(c == calls[0] for c in calls),
        f"{study.name}: call counts repeat exactly across {len(calls)} traced runs",
    )
    shutil.rmtree(out, ignore_errors=True)
    if traced[0]["missing"]:
        print(f"note: call sites not found: {traced[0]['missing']}", file=sys.stderr)

    steps = study.steps
    m = {}
    for name, (n, _) in traced[0]["totals"].items():
        m[f"{name}.calls_per_step"] = n / steps
        m[f"{name}.self_us_per_step"] = median(
            [t["totals"][name][1] * 1e6 / steps for t in traced]
        )
    t0 = traced[0]
    m["policies.osub.index_round_share"] = (
        t0["osub_index_rounds"] / t0["osub_steps"] if t0["osub_steps"] else 0.0
    )
    pulls = t0["totals"]["env.BanditEnv.pull"][0]
    m["env.reward_draw_use_share"] = pulls / t0["rewards_drawn"] if t0["rewards_drawn"] else 0.0
    m["trace_overhead_share"] = median(
        [p["traced"]["s"] / p["untraced"]["s"] - 1.0 for p in pairs]
    )

    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{study.name}-seed{study.seed}.json"
    spans_path.write_text(json.dumps({"meta": meta, **t0["report"]}))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return m


def per_layer_units():
    """Per-layer metric names in BENCHMARK.json order, with their units."""
    out = {}
    for name in function_names():
        out[f"{name}.calls_per_step"] = "calls/step"
        out[f"{name}.self_us_per_step"] = "us/step"
    out["policies.osub.index_round_share"] = "share"
    out["env.reward_draw_use_share"] = "share"
    out["trace_overhead_share"] = "share"
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in ("src/unimodal_bandits/cli.py", WORKLOADS[args.workload]["config"])
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: checkout lacks {missing}; run from a full checkout", file=sys.stderr)
        return 2

    study = Study(args.workload, args.size, args.seed)
    checks = Checks()
    meta = {
        "workload": study.name,
        "seed": study.seed,
        "size": study.size,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "input": {
            "steps": study.steps,
            "policies": study.policies,
            "runs": study.runs,
            "horizon": study.horizon,
            "arms": study.arms,
            "workers": study.spec.get("workers", 1),
        },
    }
    try:
        if args.trace:
            metrics = measure_per_layer(study, args.seconds, checks, meta)
            units = per_layer_units()
        else:
            metrics = measure_end_to_end(study, args.seconds, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(study.work, ignore_errors=True)

    meta["numpy"] = study.numpy
    meta["input"]["grid_len"] = study.grid_len
    print("meta " + json.dumps(meta, sort_keys=True))

    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    out = {}
    for name, unit in units.items():
        value = (metrics or {}).get(name)
        if value is None:
            failed += 1
            print(f"FAILED: metric {name} not measured", file=sys.stderr)
            continue
        out[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} share ({failed}/{attempted} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
