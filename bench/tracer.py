"""Outside-in per-layer tracer for unimodal_bandits.

The tracer replaces public functions of the package, at the names their
callers resolve (a module global such as ``runner.check_step`` or a class
attribute such as ``Bernoulli.kl_upper_inverse``), with timing wrappers,
and puts every original back on ``restore()``. Nothing under ``src/`` is
edited.

Step-level functions (pulls, divergences, selections, ...) are aggregated
in memory per (cell, function), where a cell is one (policy, run) pair of
the study. Functions at cell level and above (``run_experiment``,
``simulate_policy_run``, trace I/O, config loading, ...) additionally keep
one full span each: name, start, end, cell and parent span. Spans are
handed out by ``report()`` once the traced run has ended.

Self time is a call's duration minus the time spent in wrapped callees.
Worker processes forked by the process pool restore every original right
after the fork, so with ``--workers > 1`` only parent-side work is traced.
"""

import importlib
import os
import time

FAMILIES = ("Bernoulli", "Gaussian", "Exponential")
POLICIES = ("ImedUB", "Imed", "Osub", "Uts")

# (report name, module, owner within the module or "", attribute) for every
# wrapped call site. One report name may have several sites when callers in
# different modules resolve the same function under their own global name.
TARGETS = (
    ("env.BanditEnv.pull", "env", "BanditEnv", "pull"),
    ("env.PullStats.record", "env", "PullStats", "record"),
    ("env.leader", "policies", "", "leader"),
    *(
        (f"expfam.{fam}.{fn}", "expfam", fam, fn)
        for fam in FAMILIES
        for fn in ("kl", "kl_upper_inverse", "sample_many", "posterior_mean_sample")
    ),
    *(
        (f"policies.{pol}.{fn}", "policies", pol, fn)
        for pol in POLICIES
        for fn in ("select", "decide")
    ),
    ("invariants.check_step", "runner", "", "check_step"),
    ("runner.run_experiment", "cli", "", "run_experiment"),
    ("runner.simulate_policy_run", "runner", "", "simulate_policy_run"),
    ("runner.emit_outputs", "cli", "", "emit_outputs"),
    ("runner.write_trace", "runner", "", "write_trace"),
    ("runner.read_trace", "runner", "", "read_trace"),
    ("runner.check_trace_dir", "cli", "", "check_trace_dir"),
    ("runner.load_config", "cli", "", "load_config"),
    ("runner.load_config", "runner", "", "load_config"),
    ("theory.lower_bound_constant", "cli", "", "lower_bound_constant"),
    ("graph.validate_unimodal", "env", "", "validate_unimodal"),
)

# functions that keep a full span each; everything else is aggregated only
SPAN_LEVEL = (
    "runner.load_config",
    "theory.lower_bound_constant",
    "runner.run_experiment",
    "runner.simulate_policy_run",
    "runner.emit_outputs",
    "runner.write_trace",
    "runner.check_trace_dir",
    "runner.read_trace",
)


def function_names():
    """Report names in target order, each once."""
    return list(dict.fromkeys(t[0] for t in TARGETS))


def _cell_of(name, args, kwargs):
    """Cell identifier a span-level call belongs to, or None to inherit."""
    if name == "runner.simulate_policy_run":
        return kwargs.get("run_id") or "direct"
    if name == "runner.write_trace":
        meta = args[1] if len(args) > 1 else kwargs["meta"]
        return f"{meta['policy']}/run{meta['run']}"
    if name == "runner.read_trace":
        # trace files are named <policy>__run<index>.jsonl by the runner
        stem = os.path.basename(str(args[0] if args else kwargs["path"]))
        label, _, run = stem.removesuffix(".jsonl").rpartition("__run")
        return f"{label}/run{int(run)}" if run.isdigit() else stem
    return None


class Tracer:
    """Install, collect, restore. One instance per traced process."""

    def __init__(self):
        self._saved = []          # (owner, attr, original, was_own_attr)
        self._stack = []          # child-time accumulators of open calls
        self._span_stack = []     # ids of open span-level calls
        self.cell = "main"
        self.cells = {}           # cell -> {name: [calls, self_s]}
        self.spans = []
        self.rewards_drawn = 0    # rewards returned by sample_many
        self.inverse_calls = 0    # kl_upper_inverse calls, all families
        self.osub_steps = 0
        self.osub_index_rounds = 0
        self.missing = []
        self._pid = None
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._pid = os.getpid()
        for name, module, owner_name, attr in TARGETS:
            owner = importlib.import_module(f"unimodal_bandits.{module}")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if not hasattr(owner, attr):
                self.missing.append(".".join(p for p in (module, owner_name, attr) if p))
                continue
            # a subclass may inherit the method; restore then deletes the
            # wrapper instead of pinning the base version on the subclass
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def _after_fork(self):
        if self._saved and os.getpid() != self._pid:
            self.restore()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        perf = time.perf_counter
        stack = self._stack
        tracer = self

        def account(dt):
            child = stack.pop()
            acc = tracer.cells.setdefault(tracer.cell, {}).setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += dt - child
            if stack:
                stack[-1] += dt

        if name in SPAN_LEVEL:
            def wrapper(*args, **kwargs):
                outer_cell = tracer.cell
                cell = _cell_of(name, args, kwargs)
                if cell is not None:
                    tracer.cell = cell
                span = {
                    "id": len(tracer.spans),
                    "name": name,
                    "cell": tracer.cell,
                    "parent": tracer._span_stack[-1] if tracer._span_stack else None,
                }
                tracer.spans.append(span)
                tracer._span_stack.append(span["id"])
                stack.append(0.0)
                t0 = perf()
                span["start"] = t0
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    span["end"] = t1
                    account(t1 - t0)
                    tracer._span_stack.pop()
                    tracer.cell = outer_cell
        elif name.endswith("sample_many"):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    account(perf() - t0)
                tracer.rewards_drawn += len(out)
                return out
        elif name.endswith("kl_upper_inverse"):
            def wrapper(*args, **kwargs):
                tracer.inverse_calls += 1
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    account(perf() - t0)
        elif name.startswith("policies.Osub."):
            def wrapper(*args, **kwargs):
                before = tracer.inverse_calls
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    account(perf() - t0)
                    tracer.osub_steps += 1
                    if tracer.inverse_calls != before:
                        tracer.osub_index_rounds += 1
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    account(perf() - t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self):
        """{name: (calls, self_s)} summed over cells, every function listed."""
        out = {name: [0, 0.0] for name in function_names()}
        for per_fn in self.cells.values():
            for name, (calls, self_s) in per_fn.items():
                out[name][0] += calls
                out[name][1] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def report(self):
        """Everything collected, JSON-ready: aggregates per cell and spans."""
        return {
            "cells": {
                cell: {name: {"calls": c, "self_s": s} for name, (c, s) in fns.items()}
                for cell, fns in self.cells.items()
            },
            "spans": self.spans,
            "missing": self.missing,
        }

