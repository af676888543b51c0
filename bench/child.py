"""One fresh-interpreter measurement for bench.py.

Usage: python3 bench/child.py REQUEST.json RESULT.json

bench.py starts this script with ``src`` on PYTHONPATH, so the package is
imported from the checkout. Every call into the package goes through the
public CLI entry point ``unimodal_bandits.cli.main``. Modes:

measure  set-up (import + load_config + lower_bound_constant), one timed
         ``run``, peak RSS, then an optional timed ``check`` of a traced
         output directory.
traced   alternating untraced and traced runs (tracer.py) until the time
         budget is spent; every wrapper is restored after each traced run.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

perf = time.perf_counter


def cli_call(cli, argv):
    """(exit code, wall seconds, captured stdout) of cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = perf()
        rc = cli.main(argv)
        dt = perf() - t0
    return rc, dt, out.getvalue()


def run_argv(req, out_dir, extra=()):
    return ["run", req["config"], "--seed", str(req["seed"]), "--out", str(out_dir),
            *req["run_args"], *extra]


def measure(req):
    t0 = perf()
    from unimodal_bandits import cli

    cfg = cli.load_config(req["config"])
    cli.lower_bound_constant(cfg.bandit_config())
    setup_s = perf() - t0

    res = {"setup_s": setup_s}
    res["run_rc"], res["run_s"], res["run_stdout"] = cli_call(cli, run_argv(req, req["out"]))
    # peak memory of set-up and run, taken before check reads traces back
    res["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if req["check"]:
        res["check_rc"], res["check_s"], res["check_stdout"] = cli_call(
            cli, ["check", req["check"]]
        )
    return res


def traced(req):
    from unimodal_bandits import cli

    from tracer import Tracer

    base = Path(req["out"])

    def one(out_dir):
        rc, dt, stdout = cli_call(cli, run_argv(req, out_dir))
        item = {"rc": rc, "s": dt, "stdout": stdout, "out": str(out_dir)}
        if req["check"]:
            crc, cdt, cout = cli_call(cli, ["check", str(out_dir)])
            item.update(check_rc=crc, check_stdout=cout)
            item["s"] += cdt
        return item

    pairs = []
    start = perf()
    while len(pairs) < 2 or perf() - start < req["seconds"]:
        i = len(pairs)
        pair = {}
        # alternate which side goes first so warm-up favours neither
        for side in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            out_dir = base / f"pair{i}-{side}"
            if side == "untraced":
                pair[side] = one(out_dir)
                continue
            tracer = Tracer()
            tracer.install()
            try:
                item = one(out_dir)
            finally:
                tracer.restore()
            item["totals"] = tracer.totals()
            item["rewards_drawn"] = tracer.rewards_drawn
            item["osub_steps"] = tracer.osub_steps
            item["osub_index_rounds"] = tracer.osub_index_rounds
            item["missing"] = tracer.missing
            if i == 0:
                item["report"] = tracer.report()
            pair[side] = item
        pairs.append(pair)
    return {"pairs": pairs}


def main(argv):
    request_path, result_path = argv
    req = json.loads(Path(request_path).read_text())
    mode = {"measure": measure, "traced": traced}[req["mode"]]
    result = mode(req)
    import numpy

    result["numpy"] = numpy.__version__
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
