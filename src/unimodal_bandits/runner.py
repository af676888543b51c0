"""Seeded Monte Carlo harness: policy x run grids, regret aggregation,
CSV/trace outputs.

Each (policy, run) pair owns an independent random stream derived from the
master seed with splittable-generator mixing, so results are a pure
function of (config, master seed) regardless of how many workers execute
the grid or in which order.
"""

import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from hashlib import sha256
from itertools import repeat
from pathlib import Path

import numpy as np

from .env import BanditConfig, PullStats
from .errors import ConfigError, ParameterError
from .expfam import PULLS_MAX, make_family
from .graph import UnimodalGraph, line_graph
from .invariants import AUDITED_RULE, ViolationTally, audit
from .policies import PolicySpec, make_policy, require_c

DEFAULT_GRID_POINTS = 200
# rewards a run draws from an arm's generator at once
_REWARD_BLOCK = 512
# the first leader run a simulation tries, and its longest
_LEADER_RUN_START = 4
_LEADER_RUN_CAP = 4096
# characters of trace body read_trace parses at once
_READ_CHUNK = 1 << 16
# a trace body as write_trace writes it: [arm,reward] rows in JSON's number
# grammar, one a line; read_trace reads the bare reward -0 line by line,
# since JSON reads it as the integer 0 and numpy as -0.0. An optional part
# is an alternation with an empty branch, which re matches faster than ?
_ROW = r"\[(?:0|[1-9][0-9]*),-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)\]"
_ROWS = re.compile(rf"{_ROW}(?:\n{_ROW})*")
# such a body as comma-separated numbers
_ROWS_TO_CSV = str.maketrans("\n", ",", "[]")
# labels name CSV rows and trace files, so they carry no separators
_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; picklable primitives only."""

    kind: str
    variance: float | None
    means: tuple
    graph_kind: str                      # "line" or "edges"
    graph_edges: tuple | None
    policies: tuple
    horizon: int
    runs: int
    seed: int
    grid: tuple
    traces: bool = False
    out_dir: str = "out"
    workers: int = 1

    def bandit_config(self):
        n = len(self.means)
        graph = line_graph(n) if self.graph_kind == "line" else UnimodalGraph(n, self.graph_edges)
        return BanditConfig(make_family(self.kind, self.variance), self.means, graph)

    def labels(self):
        return tuple(spec.display() for spec in self.policies)

    def digest(self):
        """Hex digest of everything that determines the results: as_dict
        without the output fields, with the family and the graph in the
        layout the digest has always hashed."""
        payload = self.as_dict()
        for key in ("traces", "out", "workers"):
            del payload[key]
        family = payload.pop("family")
        graph = payload["graph"]
        payload.update(
            family=family["kind"],
            variance=family["variance"],
            graph={"kind": graph["type"], "edges": graph.get("edges")},
        )
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()

    def as_dict(self):
        return {
            "family": {"kind": self.kind, "variance": self.variance},
            "means": list(self.means),
            "graph": (
                {"type": "line"}
                if self.graph_kind == "line"
                else {"type": "edges", "edges": [list(e) for e in sorted(self.graph_edges)]}
            ),
            "policies": [
                {"name": s.name, "gamma": s.gamma, "c": s.c, "label": s.display()}
                for s in self.policies
            ],
            "horizon": self.horizon,
            "runs": self.runs,
            "seed": self.seed,
            "grid": list(self.grid),
            "traces": self.traces,
            "out": self.out_dir,
            "workers": self.workers,
        }


def log_grid(horizon, points=DEFAULT_GRID_POINTS):
    """Logarithmically spaced integer sampling times in [1, horizon]."""
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    pts = np.unique(
        np.rint(np.logspace(0.0, math.log10(horizon), int(points))).astype(np.int64)
    )
    pts = pts[(pts >= 1) & (pts <= horizon)]
    out = [int(p) for p in pts]
    if out[-1] != horizon:
        out.append(horizon)
    return tuple(out)


def _is(val, types):
    """isinstance(val, types), except that a boolean is only a bool: JSON's
    true is no number, though Python counts it as the int 1."""
    return isinstance(val, types) and (types is bool or not isinstance(val, bool))


def _want(data, key, types, path, default=None, required=False):
    val = data.get(key)
    if val is None:
        if required:
            raise ConfigError(f"{path}{key}: missing required field")
        return default
    if not _is(val, types):
        raise ConfigError(f"{path}{key}: expected {types}, got {type(val).__name__}")
    return val


def _at(path, build, *args):
    """build(*args), reporting a ParameterError as a ConfigError at path."""
    try:
        return build(*args)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_policy(entry, path):
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected policy name or object")
    name = _want(entry, "name", str, path + ".", required=True)
    known = {"imed-ub", "imed", "osub", "uts"}
    if name.lower() not in known:
        raise ConfigError(f"{path}.name: unknown policy {name!r} (choose from {sorted(known)})")
    gamma = entry.get("gamma")
    if gamma is not None and (not _is(gamma, int) or gamma < 0):
        raise ConfigError(f"{path}.gamma: must be a nonnegative integer")
    c = entry.get("c", 0.0)
    if not _is(c, (int, float)):
        raise ConfigError(f"{path}.c: must be a number")
    _at(f"{path}.c", require_c, c)
    label = entry.get("label", "")
    if not isinstance(label, str) or (label and not _LABEL.fullmatch(label)):
        raise ConfigError(f"{path}.label: must be a string matching {_LABEL.pattern}")
    return PolicySpec(name=name.lower(), gamma=gamma, c=float(c), label=label)


def parse_config(data):
    """Validate a raw config mapping into an ExperimentConfig.

    Errors report the offending field path. The family, the graph and
    the resolved bandit instance (the declared domain of expfam,
    unimodality) are built once here, so their errors name their fields
    too.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")

    fam = _want(data, "family", (dict, str), "", required=True)
    if isinstance(fam, str):
        fam = {"kind": fam}
    kind = _want(fam, "kind", str, "family.", required=True)
    variance = _want(fam, "variance", (int, float), "family.")
    family = _at("family.kind", make_family, kind)
    if variance is not None:
        variance = float(variance)
        family = _at("family.variance", make_family, kind, variance)

    means = _want(data, "means", list, "", required=True)
    if len(means) < 2:
        raise ConfigError("means: need at least 2 arms")
    for i, m in enumerate(means):
        if not _is(m, (int, float)):
            raise ConfigError(f"means[{i}]: must be a number")
    means = tuple(float(m) for m in means)

    raw_graph = _want(data, "graph", (dict, str), "", default="line")
    if isinstance(raw_graph, str):
        raw_graph = {"type": raw_graph}
    gtype = _want(raw_graph, "type", str, "graph.", default="line")
    if gtype == "line":
        graph_kind, graph_edges = "line", None
        graph = line_graph(len(means))
    elif gtype == "edges":
        raw = _want(raw_graph, "edges", list, "graph.", required=True)
        edges = []
        for i, e in enumerate(raw):
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ConfigError(f"graph.edges[{i}]: expected a pair of arm indices")
            a, b = e
            if not _is(a, int) or not _is(b, int):
                raise ConfigError(f"graph.edges[{i}]: arm indices must be integers")
            edges.append((min(a, b), max(a, b)))
        graph_kind, graph_edges = "edges", tuple(sorted(set(edges)))
        graph = _at("graph.edges", UnimodalGraph, len(means), graph_edges)
    else:
        raise ConfigError(f"graph.type: expected 'line' or 'edges', got {gtype!r}")

    raw_policies = _want(data, "policies", list, "", required=True)
    if not raw_policies:
        raise ConfigError("policies: need at least one policy")
    policies = [_parse_policy(p, f"policies[{i}]") for i, p in enumerate(raw_policies)]
    seen = {}
    labeled = {}
    for i, spec in enumerate(policies):
        label = spec.display()
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}-{seen[label]}"
        if label in labeled:
            first = list(labeled).index(label)
            raise ConfigError(f"policies[{i}].label: {label!r} is the label of policies[{first}]")
        labeled[label] = replace(spec, label=label)
    policies = tuple(labeled.values())

    horizon = _want(data, "horizon", int, "", required=True)
    if not len(means) <= horizon < PULLS_MAX:
        raise ConfigError(
            f"horizon: must be an integer >= arm count {len(means)} and below {PULLS_MAX}"
        )
    runs = _want(data, "runs", int, "", default=1)
    if runs < 1:
        raise ConfigError("runs: must be an integer >= 1")
    seed = _want(data, "seed", int, "", default=0)
    if seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")

    grid_raw = _want(data, "grid", (list, dict), "")
    if grid_raw is None:
        grid = log_grid(horizon)
    elif isinstance(grid_raw, dict):
        points = _want(grid_raw, "points", int, "grid.", default=DEFAULT_GRID_POINTS)
        if points < 1:
            raise ConfigError("grid.points: must be an integer >= 1")
        grid = log_grid(horizon, points)
    else:
        grid = []
        prev = 0
        for i, p in enumerate(grid_raw):
            if not _is(p, int) or not (1 <= p <= horizon):
                raise ConfigError(f"grid[{i}]: must be an integer in [1, horizon]")
            if p <= prev:
                raise ConfigError(f"grid[{i}]: grid must be strictly increasing")
            prev = p
            grid.append(p)
        grid = tuple(grid)
    if not grid:
        raise ConfigError("grid: must contain at least one sampling time")

    traces = _want(data, "traces", bool, "", default=False)
    out_dir = _want(data, "out", str, "", default="out")
    workers = _want(data, "workers", int, "", default=1)
    if workers < 1:
        raise ConfigError("workers: must be an integer >= 1")

    BanditConfig(family, means, graph)
    return ExperimentConfig(
        kind=kind.lower(),
        variance=variance,
        means=means,
        graph_kind=graph_kind,
        graph_edges=graph_edges,
        policies=policies,
        horizon=horizon,
        runs=runs,
        seed=seed,
        grid=tuple(grid),
        traces=traces,
        out_dir=out_dir,
        workers=workers,
    )


def load_config(path, overrides=None):
    """Read a JSON config file and validate it with parse_config.

    overrides replace top-level fields of the file before validation, so
    command-line values pass the same checks. A grid given as
    {"points": N} or left out follows an overridden horizon; a grid given
    as a list must end at it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError: not JSON, or not UTF-8; RecursionError: nested too deeply
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if overrides and isinstance(data, dict):
        horizon = overrides.get("horizon", data.get("horizon"))
        grid = data.get("grid")
        moved = horizon != data.get("horizon")
        if moved and isinstance(grid, list) and grid and grid[-1] != horizon:
            raise ConfigError(
                f"grid: the listed grid ends at {grid[-1]!r}, not at the overriding "
                f'horizon {horizon!r}; list times up to it or use {{"points": N}}'
            )
        data = {**data, **overrides}
    return parse_config(data)


# ---------------------------------------------------------------------------
# seeding

def seed_sequence(master_seed, run_index, policy_id):
    """Independent SeedSequence for one (policy, run) cell of the grid."""
    if master_seed < 0 or run_index < 0 or policy_id < 0:
        raise ParameterError("seed components must be nonnegative")
    return np.random.SeedSequence(master_seed, spawn_key=(policy_id, run_index))


# ---------------------------------------------------------------------------
# single-run simulation

def simulate_policy_run(bandit, spec, seed_seq, horizon):
    """One full run of spec on the BanditConfig bandit: the forced
    initialization 0, 1, ..., K-1, then one select per step up to horizon.

    Every arm gets its own child stream of seed_seq (the policy gets one
    more for its own randomness) and serves its rewards in order from
    blocks of _REWARD_BLOCK draws of it, so the rewards an arm yields do
    not depend on the interleaving the policy produces. A pull serves the
    arm's next reward and records it in the run's PullStats. The children
    are the ones seed_seq.spawn would give on a fresh sequence, but
    seed_seq is left as it is, so one object passed twice gives the same
    log.

    A rule with a certify (IMED-UB, IMED and OSUB) decides most steps by
    pulling the leader, so after each of its select calls the loop tries a
    run of leader pulls; UTS has none and takes one select per step. A run
    needs an arm L whose empirical mean is a strict maximum, and reads L's
    next rewards without serving them, adding them to L's sum one at a
    time, as record does. Decision i of the run sees L's mean m_i after i
    more pulls; the run stops before the first m_i that is not above every
    other mean. The rule's certify(stats, L, k, m_min), with m_min the
    least of m_0, ..., m_(k-1), must then vouch that select picks L on all
    k decisions, leaving the rule's state as those k calls would (OSUB's
    leader rounds), and only then are the k pulls applied at once, leaving
    L's count, sum and mean as k record calls would. A run pulled in full
    doubles the next try; a shorter, refused or empty one starts again at
    _LEADER_RUN_START. The log is the one select gives step by step.

    Returns the run's pull log (actions, rewards), two arrays of horizon
    entries, the arms of dtype np.intp and the rewards float64;
    regret, counts, traces and checks are derived from it.
    """
    n = bandit.arm_count
    if horizon < n:
        raise ParameterError(f"horizon {horizon} below arm count {n}")
    children = [
        np.random.SeedSequence(
            seed_seq.entropy, spawn_key=seed_seq.spawn_key + (i,), pool_size=seed_seq.pool_size
        )
        for i in range(n + 1)
    ]
    family = bandit.family
    rngs = [np.random.default_rng(c) for c in children[:n]]

    def draw(arm):
        return family.sample_many(bandit.means[arm], rngs[arm], _REWARD_BLOCK).tolist()

    # each arm's drawn rewards, and the position of the next one to serve
    blocks = [draw(arm) for arm in range(n)]
    served = [1] * n
    stats = PullStats(n)
    for arm, block in enumerate(blocks):
        stats.record(arm, block[0])
    actions = list(range(n))
    rewards = [block[0] for block in blocks]
    policy = make_policy(spec, family, bandit.graph, rng=np.random.default_rng(children[n]))
    select = policy.select
    record = stats.record
    counts, sums, means = stats.counts, stats.sums, stats.means
    certify = getattr(policy, "certify", None)
    run = _LEADER_RUN_START
    t = n
    while t < horizon:
        arm = select(stats)
        block = blocks[arm]
        i = served[arm]
        if i == len(block):
            block = blocks[arm] = draw(arm)
            i = 0
        served[arm] = i + 1
        x = block[i]
        record(arm, x)
        actions.append(arm)
        rewards.append(x)
        t += 1
        if certify is None or t == horizon:
            continue
        # a leader run: k pulls of the strict leader, 0 if none is applied
        k = 0
        best = max(means)
        lead = means.index(best)
        rival = max(means[:lead] + means[lead + 1:], default=-math.inf)
        if rival < best:
            j = min(run, horizon - t)
            block = blocks[lead]
            i = served[lead]
            if i + j > len(block):
                block = blocks[lead] = block[i:]
                i = served[lead] = 0
                while len(block) < j:
                    block += draw(lead)
            c = counts[lead]
            s = sums[lead]
            m = m_min = best
            for x in block[i:i + j]:
                if not rival < m:
                    break
                if m < m_min:
                    m_min = m
                s += x
                k += 1
                m = s / (c + k)
            if k and certify(stats, lead, k, m_min):
                served[lead] = i + k
                counts[lead] = c + k
                sums[lead] = s
                means[lead] = m
                stats.t += k
                actions += [lead] * k
                rewards += block[i:i + k]
                t += k
            else:
                k = 0
        run = min(2 * run, _LEADER_RUN_CAP) if k == run else _LEADER_RUN_START
    return np.array(actions, dtype=np.intp), np.array(rewards, dtype=np.float64)


def grid_regret(bandit, actions, grid):
    """Pseudo-regret sum_a gap_a N_a(t) of the pull log's arms at each grid
    time t, and the log's final pull counts.

    Evaluated from the counts of the first t pulls, summed in arm order,
    so the pull-count identity holds exactly at every grid time.
    """
    gaps = np.array(bandit.gaps)
    k = len(gaps)
    counts = np.zeros((len(grid) + 1, k), dtype=np.int64)
    done = 0
    for i, t in enumerate(grid):
        counts[i] = np.bincount(actions[done:t], minlength=k)
        done = t
    counts[-1] = np.bincount(actions[done:], minlength=k)
    np.cumsum(counts, axis=0, out=counts)
    # accumulate adds left to right, as sum() over the arms does
    regret = np.add.accumulate(gaps * counts[:-1], axis=1)[:, -1]
    return regret, tuple(counts[-1].tolist())


# ---------------------------------------------------------------------------
# experiment grid

def _trace_cell(spec, run_idx):
    """(file name, header, run id) of the trace of policy spec's run
    run_idx: run writes and audits it under these, check finds and
    audits it under them."""
    label = spec.display()
    return (
        f"{label}__run{run_idx:05d}.jsonl",
        {"policy": label, "rule": spec.name, "run": run_idx},
        f"{label}/run{run_idx}",
    )


def _map_cells(cfg, fn, *args):
    """[fn(cfg, *args, policy_idx, run_idx) for every (policy, run) cell
    of cfg], in (policy, run) order, computed on cfg.workers processes.

    The results come back in cell order whatever the worker count, and
    an exception raised for a cell is raised here, the first in cell
    order, so every caller's output is the serial one.
    """
    ps = [p for p in range(len(cfg.policies)) for _ in range(cfg.runs)]
    rs = [r for _ in range(len(cfg.policies)) for r in range(cfg.runs)]
    cells = (fn, repeat(cfg), *map(repeat, args), ps, rs)
    # no more processes than cells: a config.json check reads is outside
    # input, and its cells are trace files that must exist
    workers = min(cfg.workers, len(ps))
    if workers == 1:
        return list(map(*cells))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(*cells, chunksize=max(1, len(ps) // (8 * workers))))


def _run_pair(cfg, bandit, check, policy_idx, run_idx):
    """(regret at the grid times, final counts, ViolationTally) of one
    (policy, run) cell."""
    spec = cfg.policies[policy_idx]
    actions, rewards = simulate_policy_run(
        bandit, spec, seed_sequence(cfg.seed, run_idx, policy_idx), cfg.horizon
    )
    regret, counts = grid_regret(bandit, actions, cfg.grid)
    name, header, run_id = _trace_cell(spec, run_idx)
    if cfg.traces:
        write_trace(Path(cfg.out_dir) / "traces" / name, header, actions, rewards)
    violations = ViolationTally()
    if check:
        violations, _ = audit(spec.name, actions, rewards, bandit.graph, bandit.family, run_id)
    return regret, counts, violations


@dataclass
class RegretCurves:
    """Aggregated pseudo-regret over runs, per policy and grid time, and
    each run's final pull counts: final_counts[label] is a (runs, arms)
    integer array."""

    policies: tuple
    grid: tuple
    mean: dict
    std: dict
    q10: dict
    q90: dict
    final_counts: dict
    run_count: int
    config_digest: str
    violations: ViolationTally = field(default_factory=ViolationTally)


def run_experiment(cfg, check_invariants=False):
    """Execute the full policy x run grid on cfg.workers processes and
    aggregate regret curves.

    The aggregation is a deterministic reduction ordered by (policy, run),
    so the result does not depend on the worker count.
    """
    n_pol = len(cfg.policies)
    regret = np.zeros((n_pol, cfg.runs, len(cfg.grid)))
    counts = np.zeros((n_pol, cfg.runs, len(cfg.means)), dtype=np.int64)
    violations = ViolationTally()
    cells = _map_cells(cfg, _run_pair, cfg.bandit_config(), check_invariants)
    for i, (run_regret, run_counts, run_violations) in enumerate(cells):
        p, r = divmod(i, cfg.runs)
        regret[p, r] = run_regret
        counts[p, r] = run_counts
        violations.add(run_violations)

    labels = cfg.labels()
    mean, std, q10, q90, final_counts = {}, {}, {}, {}, {}
    for p, label in enumerate(labels):
        block = regret[p]
        mean[label] = block.mean(axis=0)
        std[label] = block.std(axis=0)
        q10[label] = np.percentile(block, 10.0, axis=0)
        q90[label] = np.percentile(block, 90.0, axis=0)
        final_counts[label] = counts[p]

    return RegretCurves(
        policies=labels,
        grid=cfg.grid,
        mean=mean,
        std=std,
        q10=q10,
        q90=q90,
        final_counts=final_counts,
        run_count=cfg.runs,
        config_digest=cfg.digest(),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# outputs

def _fmt(x):
    return repr(float(x))

PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot mean cumulative regret with 10-90% bands from regret.csv."""
import collections
import csv
import os

import matplotlib
matplotlib.use(os.environ.get("MPLBACKEND", "Agg"))
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
series = collections.defaultdict(list)
with open(os.path.join(here, "regret.csv"), newline="") as fh:
    for row in csv.DictReader(fh):
        series[row["policy"]].append(
            (int(row["t"]), float(row["mean"]), float(row["q10"]), float(row["q90"]))
        )

fig, ax = plt.subplots(figsize=(7.0, 4.5))
for policy, pts in series.items():
    pts.sort()
    ts = [p[0] for p in pts]
    ax.plot(ts, [p[1] for p in pts], label=policy)
    ax.fill_between(ts, [p[2] for p in pts], [p[3] for p in pts], alpha=0.2)
ax.set_xscale("log")
ax.set_xlabel("time step")
ax.set_ylabel("cumulative regret")
ax.legend()
fig.tight_layout()
target = os.path.join(here, "regret.png")
fig.savefig(target, dpi=150)
print(target)
'''


def emit_outputs(curves, theory, out_dir):
    """Write regret.csv, theory.json and a standalone plot script.

    Returns the paths written. Rows are ordered by (policy, grid time) and
    floats are serialized with shortest round-trip repr, so re-emitting the
    same curves is byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "regret.csv"
    lines = ["policy,t,mean,std,q10,q90"]
    for label in curves.policies:
        m, s = curves.mean[label], curves.std[label]
        lo, hi = curves.q10[label], curves.q90[label]
        for i, t in enumerate(curves.grid):
            lines.append(
                f"{label},{t},{_fmt(m[i])},{_fmt(s[i])},{_fmt(lo[i])},{_fmt(hi[i])}"
            )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    theory_path = out / "theory.json"
    payload = theory.as_dict()
    payload["config_digest"] = curves.config_digest
    theory_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    plot_path = out / "plot_regret.py"
    plot_path.write_text(PLOT_SCRIPT, encoding="utf-8")

    return {"regret": csv_path, "theory": theory_path, "plot": plot_path}


def write_config(cfg, out_dir):
    """Persist the resolved config next to the outputs (used by `check`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(
        json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


# ---------------------------------------------------------------------------
# trace files

def write_trace(path, meta, actions, rewards):
    """Write one run's trace: a JSON header line (meta), then one
    [arm, reward] line per pull of the pull log, initialization included.

    Rewards are written with the repr of Python floats, so reading them
    back gives the same floats and a replay accumulates bit-identical sums
    and means.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
        fh.writelines(
            f"[{arm},{reward!r}]\n" for arm, reward in zip(actions.tolist(), rewards.tolist())
        )


def _scan_rows(lines, done, path, arm_count, family):
    """The pull log (arms, rewards) of lines, the trace's rows after its
    first done pulls, checked row by row; a ConfigError names the first
    line read_trace does not accept."""
    arms, rewards = [], []
    # line 1 is the header
    for lineno, line in enumerate(lines, start=done + 2):
        try:
            arm, reward = json.loads(line)
            ok = (
                type(arm) is int
                and 0 <= arm < arm_count
                and type(reward) in (float, int)
                and family.in_reward_domain(reward)
            )
        except (TypeError, ValueError, RecursionError):
            ok = False
        if not ok:
            raise ConfigError(
                f"{path}:{lineno}: expected [arm, reward] with an integer arm in "
                f"[0, {arm_count}) and a reward 0 or in [{family.reward_lo}, "
                f"{family.mean_hi}], got {line.strip()[:60]!r}"
            )
        pull = done + len(arms)
        if pull < arm_count and arm != pull:
            raise ConfigError(
                f"{path}:{lineno}: pull {pull} must be the initialization "
                f"pull of arm {pull}, got arm {arm}"
            )
        arms.append(arm)
        rewards.append(float(reward))
    return np.array(arms, dtype=np.intp), np.array(rewards, dtype=np.float64)


def read_trace(path, arm_count, family):
    """Load one trace file of an arm_count-armed run on family: (header,
    actions, rewards), the pull log in pull order, as simulate_policy_run
    returns it.

    A trace is outside input: the header must be a JSON object, every row
    [arm, reward] with an integer arm in [0, arm_count) and a reward of
    expfam's declared domain, 0 or in [family.reward_lo, family.mean_hi],
    and the first arm_count pulls the forced initialization 0, 1, ...,
    arm_count - 1. Anything else is a ConfigError naming the file and
    line.

    The body is read in chunks of whole lines, about _READ_CHUNK
    characters each, so the text held at once is one chunk's. A chunk
    whose every line is one [arm,reward] row as write_trace writes it
    (_ROWS) is parsed with one np.fromstring and its rows validated
    together with numpy. Any other chunk, and one that fails that check,
    is decoded and checked row by row (_scan_rows), which names its first
    bad line.
    """
    # undecodable bytes turn into U+FFFD and fail the row checks
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        try:
            meta = json.loads(fh.readline())
        except (ValueError, RecursionError):
            meta = None
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}:1: header is not a JSON object")
        arm_blocks, reward_blocks = [], []
        done = 0
        while chunk := fh.read(_READ_CHUNK):
            chunk += fh.readline()
            core = chunk.removesuffix("\n")
            lines = core.count("\n") + 1
            ok = ",-0]" not in core and _ROWS.fullmatch(core) is not None
            if ok:
                rows = np.fromstring(core.translate(_ROWS_TO_CSV), sep=",")
                arms, values = rows[0::2], rows[1::2]
                init = arms[: max(arm_count - done, 0)]
                ok = (
                    len(rows) == 2 * lines
                    and (init == np.arange(done, done + len(init))).all()
                    and arms.max() < arm_count
                    and family.in_reward_domain(values).all()
                )
            if ok:
                arms = arms.astype(np.intp)
            else:
                arms, values = _scan_rows(core.split("\n"), done, path, arm_count, family)
            arm_blocks.append(arms)
            reward_blocks.append(values)
            done += lines
    if done < arm_count:
        raise ConfigError(f"{path}:{done + 2}: missing the initialization pull of arm {done}")
    return meta, np.concatenate(arm_blocks), np.concatenate(reward_blocks)


def _check_cell(cfg, trace_dir, bandit, policy_idx, run_idx):
    """(ViolationTally, pulls checked) of the trace of one (policy, run)
    cell of cfg in trace_dir: its header and pull count must be those run
    writes for the cell, and its log is audited under the config's rule."""
    name, header, run_id = _trace_cell(cfg.policies[policy_idx], run_idx)
    f = trace_dir / name
    meta, actions, rewards = read_trace(f, bandit.arm_count, bandit.family)
    # as JSON, so a run of true or 1.0 is not the run 1
    if json.dumps(meta, sort_keys=True) != json.dumps(header, sort_keys=True):
        raise ConfigError(f"{f}:1: header {meta} does not match config.json's {header}")
    if len(actions) != cfg.horizon:
        raise ConfigError(
            f"{f}:{min(len(actions), cfg.horizon) + 2}: {len(actions)} pulls, "
            f"but config.json's horizon is {cfg.horizon}"
        )
    return audit(header["rule"], actions, rewards, bandit.graph, bandit.family, run_id)


def check_trace_dir(path):
    """Run the invariant checker over the structured-rule traces below path.

    path must hold a config.json (written by the run command) plus trace
    files, either directly or in a traces/ subdirectory. The trace files
    must be exactly one {label}__run{r:05d}.jsonl per policy label and run
    of the config, each with the header run writes for it and exactly the
    config's horizon of pulls. Each rule is the config's, never a
    header's: every imed-ub trace is audited (invariants.audit), the other rules'
    traces are read but not checked. The traces are read on the config's
    workers, as run_experiment simulates them (_map_cells). Returns the
    ViolationTally, added in (policy, run) order as run_experiment adds
    it, and the number of pulls checked.
    """
    root = Path(path)
    config_path = root / "config.json"
    if not config_path.exists():
        config_path = root.parent / "config.json"
    if not config_path.exists():
        raise ConfigError(f"{path}: no config.json found next to the traces")
    cfg = load_config(config_path)

    trace_dir = root / "traces" if (root / "traces").is_dir() else root
    found = {f.name for f in trace_dir.glob("*.jsonl")}
    if not found:
        raise ConfigError(f"{trace_dir}: no trace files (*.jsonl) found")
    if all(spec.name != AUDITED_RULE for spec in cfg.policies):
        raise ConfigError(f"{trace_dir}: no imed-ub traces to check")
    names = [_trace_cell(spec, run)[0] for spec in cfg.policies for run in range(cfg.runs)]
    extra = sorted(found - set(names))
    if extra:
        raise ConfigError(
            f"{trace_dir / extra[0]}: not the trace of a policy label and run in config.json"
        )
    missing = [name for name in names if name not in found]
    if missing:
        raise ConfigError(
            f"{trace_dir / missing[0]}: missing; config.json's policies and runs call for it"
        )

    violations = ViolationTally()
    checked = 0
    for tally, pulls in _map_cells(cfg, _check_cell, trace_dir, cfg.bandit_config()):
        violations.add(tally)
        checked += pulls
    return violations, checked
