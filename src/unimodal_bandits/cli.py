"""Command line interface: run experiments, print instance constants,
check recorded traces.

Exit codes: 0 success, 1 configuration or input error, 2 invariant
violations found.
"""

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, ParameterError
from .runner import (
    check_trace_dir,
    emit_outputs,
    load_config,
    run_experiment,
    write_config,
)
from .theory import lower_bound_constant


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unimodal-bandits",
        description="Unimodal bandit policies and a Monte Carlo regret harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment a config file describes")
    run.add_argument("config", help="path to the JSON experiment config")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--runs", type=int, default=None, help="override the run count")
    run.add_argument("--horizon", type=int, default=None, help="override the horizon")
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument("--traces", action="store_true", help="capture per-run trace files")
    run.add_argument(
        "--check-invariants",
        action="store_true",
        help="check the per-step decision inequalities while running",
    )
    run.add_argument("--workers", type=int, default=None, help="worker process count")

    theory = sub.add_parser("theory", help="print the instance constants as JSON")
    theory.add_argument("config", help="path to the JSON experiment config")

    check = sub.add_parser("check", help="check recorded traces for violations")
    check.add_argument("trace_dir", help="output directory holding config.json and traces")

    return parser


def _cmd_run(args):
    overrides = {
        key: value
        for key, value in (
            ("seed", args.seed),
            ("runs", args.runs),
            ("horizon", args.horizon),
            ("out", args.out),
            ("workers", args.workers),
        )
        if value is not None
    }
    if args.traces:
        overrides["traces"] = True
    cfg = load_config(args.config, overrides)
    # an out that cannot be a directory fails here, not after the study
    out = Path(cfg.out_dir)
    try:
        (out / "traces" if cfg.traces else out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc

    report = lower_bound_constant(cfg.bandit_config())
    curves = run_experiment(cfg, check_invariants=args.check_invariants)
    paths = emit_outputs(curves, report, cfg.out_dir)
    write_config(cfg, cfg.out_dir)

    last = cfg.grid[-1]
    for label in curves.policies:
        print(
            f"{label}: mean regret at t={last} over {cfg.runs} runs = "
            f"{curves.mean[label][-1]:.3f}"
        )
    print(f"wrote {paths['regret']}")

    if args.check_invariants:
        if curves.violations.count:
            _print_violations(curves.violations)
            return 2
        print("invariant checks: all steps clean")
    return 0


def _print_violations(tally):
    """The first violation reports on stdout; their total and the count
    per check id on stderr."""
    for v in tally.first:
        print(v.line())
    per_check = ", ".join(f"{check}={n}" for check, n in sorted(tally.per_check.items()))
    print(
        f"{tally.count} invariant violations, the first {len(tally.first)} printed; "
        f"per check: {per_check}",
        file=sys.stderr,
    )


def _cmd_theory(args):
    cfg = load_config(args.config)
    report = lower_bound_constant(cfg.bandit_config())
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_check(args):
    violations, checked = check_trace_dir(args.trace_dir)
    if violations.count:
        _print_violations(violations)
        return 2
    print(f"OK: {checked} records checked, no violations")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "theory":
            return _cmd_theory(args)
        return _cmd_check(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
