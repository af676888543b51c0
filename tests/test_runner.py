"""Harness tests: seed derivation, config parsing, determinism across
worker counts, output emission, trace round-trips, CLI behavior."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from hashlib import sha256
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unimodal_bandits.runner as runner
from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    ConfigError,
    Exponential,
    Gaussian,
    Imed,
    PullStats,
    check_log,
    check_trace_dir,
    emit_outputs,
    grid_regret,
    leader,
    line_graph,
    load_config,
    log_grid,
    lower_bound_constant,
    make_policy,
    parse_config,
    read_trace,
    run_experiment,
    seed_sequence,
    simulate_policy_run,
)
from unimodal_bandits.cli import main as cli_main
from unimodal_bandits.expfam import (
    C_MAX,
    MEAN_MAX,
    MEAN_MIN,
    REWARD_MAX,
    REWARD_MIN,
    VARIANCE_MAX,
    VARIANCE_MIN,
)
from unimodal_bandits.policies import PolicySpec
from unimodal_bandits.runner import write_config, write_trace

from conftest import HILL_MEANS, log_bits, read_trace_by_line


def hill_config(**overrides):
    data = {
        "family": "bernoulli",
        "means": list(HILL_MEANS),
        "graph": "line",
        "policies": ["imed-ub"],
        "horizon": 300,
        "runs": 4,
        "seed": 11,
        "grid": [9, 50, 150, 300],
    }
    data.update(overrides)
    return parse_config(data)


# ---------------------------------------------------------------------------
# seed derivation


def cell_state(master_seed, run_index, policy_id):
    """128 bits of the stream a (policy, run) cell draws from."""
    return tuple(seed_sequence(master_seed, run_index, policy_id).generate_state(4))


def test_derived_seed_is_deterministic():
    assert cell_state(12, 3, 1) == cell_state(12, 3, 1)


def test_derived_seed_varies_with_all_components():
    base = cell_state(12, 0, 0)
    assert cell_state(12, 1, 0) != base
    assert cell_state(12, 0, 1) != base
    assert cell_state(13, 0, 0) != base


def test_derived_seeds_have_no_collisions():
    seen = set()
    for policy in range(4):
        for run in range(2500):
            seen.add(cell_state(99, run, policy))
    assert len(seen) == 4 * 2500


@pytest.mark.parametrize("policy", ["imed-ub", "imed", "osub", "uts"])
def test_a_pull_log_is_two_arrays(policy):
    # the log every consumer reads: horizon np.intp arms and horizon
    # float64 rewards
    bandit = BanditConfig(Bernoulli(), HILL_MEANS, line_graph(9))
    actions, rewards = simulate_policy_run(bandit, PolicySpec(policy), seed_sequence(1, 0, 0), 700)
    assert actions.dtype == np.intp
    assert rewards.dtype == np.float64
    assert actions.shape == rewards.shape == (700,)


def test_a_pull_log_of_many_arms_holds_every_arm(tmp_path):
    # 130 arms are more than int8 holds; a trace reads back in the same dtypes
    k = 130
    bandit = BanditConfig(
        Bernoulli(), [0.9 - 0.005 * abs(a - 65) for a in range(k)], line_graph(k)
    )
    actions, rewards = simulate_policy_run(
        bandit, PolicySpec("imed-ub"), seed_sequence(1, 0, 0), 400
    )
    assert actions.dtype == np.intp and np.iinfo(actions.dtype).max >= k - 1
    assert actions[:k].tolist() == list(range(k)) and rewards.dtype == np.float64
    path = tmp_path / "run.jsonl"
    write_trace(path, {"run": 0}, actions, rewards)
    _, read_actions, read_rewards = read_trace(path, k, bandit.family)
    assert read_actions.dtype == np.intp and read_rewards.dtype == np.float64
    assert log_bits(read_actions, read_rewards) == log_bits(actions, rewards)


def test_seed_components_must_be_nonnegative():
    with pytest.raises(Exception):
        seed_sequence(-1, 0, 0)


@pytest.mark.parametrize("policy", ["osub", "uts"])
def test_a_run_leaves_its_seed_as_it_is(policy):
    # one SeedSequence passed twice gives one log twice; uts also draws
    # from the policy's own child stream
    bandit = BanditConfig(Bernoulli(), HILL_MEANS, line_graph(9))
    seed_seq = seed_sequence(1, 0, 0)
    first = log_bits(*simulate_policy_run(bandit, PolicySpec(policy), seed_seq, 500))
    assert log_bits(*simulate_policy_run(bandit, PolicySpec(policy), seed_seq, 500)) == first
    assert seed_seq.n_children_spawned == 0


# ---------------------------------------------------------------------------
# grids and config parsing


def test_log_grid_shape():
    grid = log_grid(20000)
    assert grid[0] == 1
    assert grid[-1] == 20000
    assert list(grid) == sorted(set(grid))
    assert len(grid) <= 200


def test_log_grid_small_horizon():
    assert log_grid(5) == (1, 2, 3, 4, 5)


def test_parse_config_round_trip():
    cfg = hill_config()
    assert cfg.kind == "bernoulli"
    assert cfg.horizon == 300
    assert cfg.labels() == ("imed-ub",)
    assert parse_config(cfg.as_dict()).digest() == cfg.digest()


def test_parse_config_field_errors():
    base = {"family": "bernoulli", "means": [0.1, 0.2], "policies": ["imed"], "horizon": 5}
    gaussian = {"kind": "gaussian"}
    cases = [
        ({"family": {}}, "family.kind: missing"),
        ({"family": "poisson"}, "family.kind: unknown family kind 'poisson'"),
        ({"family": {**gaussian, "variance": float("nan")}}, "family.variance: "),
        ({"family": {**gaussian, "variance": -1.0}}, "family.variance: "),
        ({"family": {"kind": "bernoulli", "variance": 1.0}}, "family.variance: "),
        ({"means": [0.1, "x"]}, "means[1]: "),
        ({"means": [0.3, 0.1, 0.3]}, "means: not unimodal"),
        ({"graph": {"type": "edges", "edges": [[0, 5]]}}, "graph.edges: "),
        ({"graph": {"type": "edges", "edges": [[0, 0], [0, 1]]}}, "graph.edges: self-loop"),
        (
            {"means": [0.1, 0.2, 0.3], "graph": {"type": "edges", "edges": [[0, 1]]}},
            "graph.edges: graph is not connected",
        ),
        ({"policies": ["ucb"]}, "policies[0].name: "),
        ({"policies": [{"name": "osub", "c": float("inf")}]}, "policies[0].c: "),
        ({"policies": ["imed", {"name": "osub", "c": float("nan")}]}, "policies[1].c: "),
        ({"policies": [{"name": "osub", "c": -5}]}, "policies[0].c: "),
        ({"policies": [{"name": "osub", "c": None}]}, "policies[0].c: "),
        ({"horizon": 1}, "horizon: "),
        # a run pulls fewer than 2^63 times, as the declared domain assumes
        ({"horizon": 2**63}, "horizon: "),
        ({"horizon": 10, "grid": [5, 4]}, "grid[1]: "),
    ]
    for change, prefix in cases:
        with pytest.raises(ConfigError) as err:
            parse_config({**base, **change})
        assert str(err.value).startswith(prefix), (change, str(err.value))


BOOLEAN_FIELDS = {
    "family.variance": {"family": {"kind": "gaussian", "variance": True}},
    "means[0]": {"means": [True, 0.2, 0.1]},
    "graph.edges[0]": {"graph": {"type": "edges", "edges": [[0, True], [True, 2]]}},
    "policies[0].gamma": {"policies": [{"name": "osub", "gamma": True}]},
    "policies[0].c": {"policies": [{"name": "osub", "c": True}]},
    "horizon": {"horizon": True},
    "runs": {"runs": True},
    "seed": {"seed": True},
    "grid[0]": {"grid": [True, 5]},
    "grid.points": {"grid": {"points": True}},
    "workers": {"workers": True},
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_FIELDS))
def test_parse_config_refuses_booleans(field):
    # JSON's true is no number, though Python counts it as the int 1: every
    # integer or number field refuses it, naming its path
    base = {"family": "bernoulli", "means": [0.1, 0.2, 0.1], "policies": ["imed"], "horizon": 5}
    with pytest.raises(ConfigError) as err:
        parse_config({**base, **BOOLEAN_FIELDS[field]})
    assert str(err.value).startswith(f"{field}: "), str(err.value)


def test_parse_config_edge_graph_and_duplicate_labels():
    cfg = parse_config(
        {
            "family": {"kind": "gaussian", "variance": 0.25},
            "means": [0.1, 0.3, 0.2],
            "graph": {"type": "edges", "edges": [[0, 1], [1, 2]]},
            "policies": [
                {"name": "osub", "gamma": 1},
                {"name": "osub", "gamma": 3},
                "imed-ub",
            ],
            "horizon": 50,
        }
    )
    assert cfg.labels() == ("osub", "osub-2", "imed-ub")
    assert cfg.bandit_config().graph.neighbors(1) == (0, 2)


# ---------------------------------------------------------------------------
# experiments


def test_init_only_run_has_exact_regret():
    cfg = hill_config(horizon=9, runs=1, grid=[9], policies=["imed-ub"])
    curves = run_experiment(cfg)
    expected = sum(0.25 - m for m in HILL_MEANS)
    assert curves.mean["imed-ub"][0] == pytest.approx(expected, abs=1e-12)


def test_worker_counts_agree_bitwise(tmp_path):
    study = dict(policies=["imed-ub", "uts"], runs=6, horizon=400, grid=[100, 400])
    cfg = hill_config(**study)
    a = run_experiment(cfg)
    b = run_experiment(hill_config(**study, workers=3))
    for label in a.policies:
        assert a.mean[label].tolist() == b.mean[label].tolist()
        assert a.std[label].tolist() == b.std[label].tolist()
        assert a.q10[label].tolist() == b.q10[label].tolist()
        assert a.q90[label].tolist() == b.q90[label].tolist()
    report = lower_bound_constant(cfg.bandit_config())
    pa = emit_outputs(a, report, tmp_path / "one")
    pb = emit_outputs(b, report, tmp_path / "three")
    assert (tmp_path / "one" / "regret.csv").read_bytes() == (
        tmp_path / "three" / "regret.csv"
    ).read_bytes()
    assert pa["regret"].name == "regret.csv"


def test_mean_regret_is_nondecreasing():
    cfg = hill_config(runs=5, horizon=600, grid=[9, 40, 200, 600], policies=["imed-ub", "osub"])
    curves = run_experiment(cfg)
    for label in curves.policies:
        m = curves.mean[label]
        assert all(b >= a - 1e-12 for a, b in zip(m, m[1:]))


def test_regret_curves_metadata():
    cfg = hill_config(runs=3, horizon=100, grid=[9, 50, 100])
    curves = run_experiment(cfg)
    assert curves.run_count == 3
    assert curves.config_digest == cfg.digest()
    assert set(curves.final_counts) == {"imed-ub"}
    counts = curves.final_counts["imed-ub"]
    assert counts.shape == (3, 9)
    assert np.issubdtype(counts.dtype, np.integer)
    assert counts.sum(axis=1).tolist() == [100, 100, 100]


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_match_their_seeded_runs(workers):
    # cell (policy p, run r) is simulate_policy_run on seed_sequence(seed,
    # r, p), whichever process runs it: its final counts exactly, and its
    # regret through the curves' reductions
    cfg = hill_config(policies=["imed-ub", "uts"], runs=3, workers=workers)
    curves = run_experiment(cfg)
    bandit = cfg.bandit_config()
    for p, spec in enumerate(cfg.policies):
        label = spec.display()
        runs = [
            grid_regret(
                bandit,
                simulate_policy_run(bandit, spec, seed_sequence(cfg.seed, r, p), cfg.horizon)[0],
                cfg.grid,
            )
            for r in range(cfg.runs)
        ]
        for r, (_, counts) in enumerate(runs):
            assert curves.final_counts[label][r].tolist() == list(counts)
        regret = np.array([run_regret for run_regret, _ in runs])
        assert curves.mean[label].tolist() == regret.mean(axis=0).tolist()
        assert curves.std[label].tolist() == regret.std(axis=0).tolist()
        assert curves.q10[label].tolist() == np.percentile(regret, 10.0, axis=0).tolist()
        assert curves.q90[label].tolist() == np.percentile(regret, 90.0, axis=0).tolist()


def test_simulate_rejects_short_horizon():
    with pytest.raises(Exception):
        simulate_policy_run(
            hill_config().bandit_config(), PolicySpec("imed-ub"), seed_sequence(0, 0, 0), 4
        )


# ---------------------------------------------------------------------------
# outputs


def test_emit_outputs_csv_layout(tmp_path):
    cfg = hill_config(policies=["imed-ub", "uts"], runs=2)
    curves = run_experiment(cfg)
    report = lower_bound_constant(cfg.bandit_config())
    emit_outputs(curves, report, tmp_path)
    lines = (tmp_path / "regret.csv").read_text().strip().splitlines()
    assert lines[0] == "policy,t,mean,std,q10,q90"
    assert len(lines) - 1 == len(cfg.policies) * len(cfg.grid)
    again = tmp_path / "again"
    emit_outputs(curves, report, again)
    assert (again / "regret.csv").read_bytes() == (tmp_path / "regret.csv").read_bytes()


def test_theory_json_matches_recomputation(tmp_path):
    cfg = hill_config(runs=2)
    curves = run_experiment(cfg)
    report = lower_bound_constant(cfg.bandit_config())
    emit_outputs(curves, report, tmp_path)
    data = json.loads((tmp_path / "theory.json").read_text())
    assert data["c_nu"] == pytest.approx(report.c_nu, rel=1e-12)
    assert data["epsilon_nu"] == 0.0
    assert data["gaps"] == pytest.approx(list(cfg.bandit_config().gaps))
    assert data["config_digest"] == curves.config_digest


def test_plot_script_renders(tmp_path):
    cfg = hill_config(runs=2)
    curves = run_experiment(cfg)
    report = lower_bound_constant(cfg.bandit_config())
    paths = emit_outputs(curves, report, tmp_path)
    source = paths["plot"].read_text(encoding="utf-8")
    compile(source, str(paths["plot"]), "exec")
    read_columns = set(re.findall(r'row\["(\w+)"\]', source))
    assert read_columns == {"policy", "t", "mean", "q10", "q90"}
    header = paths["regret"].read_text(encoding="utf-8").splitlines()[0].split(",")
    assert read_columns <= set(header)
    # rendering needs matplotlib, an optional dependency (the "test" extra)
    pytest.importorskip("matplotlib")
    env = dict(os.environ, MPLBACKEND="Agg")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "plot_regret.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "regret.png").exists()


# ---------------------------------------------------------------------------
# traces


def trace_run(tmp_path, **overrides):
    cfg = hill_config(
        out=str(tmp_path), traces=True, runs=2, horizon=120, grid=[120], **overrides
    )
    curves = run_experiment(cfg)
    write_config(cfg, cfg.out_dir)
    return cfg, curves


def test_trace_replay_reproduces_statistics(tmp_path):
    # each trace replayed through a fresh policy's select reproduces every
    # recorded action, and the replayed counts the run's final counts
    cfg, curves = trace_run(tmp_path, policies=["imed-ub", "imed", "osub"])
    bandit = cfg.bandit_config()
    family, graph = bandit.family, bandit.graph
    for spec in cfg.policies:
        for run in range(cfg.runs):
            path = tmp_path / "traces" / f"{spec.display()}__run{run:05d}.jsonl"
            meta, actions, rewards = read_trace(path, 9, family)
            assert meta == {"policy": spec.display(), "rule": spec.name, "run": run}
            assert len(actions) == len(rewards) == cfg.horizon
            policy = make_policy(spec, family, graph)
            stats = PullStats(9)
            for i, (arm, reward) in enumerate(zip(actions.tolist(), rewards.tolist())):
                if i >= 9:
                    assert policy.select(stats) == arm, (spec.name, run, i)
                stats.record(arm, reward)
            assert stats.counts == curves.final_counts[spec.display()][run].tolist()


def test_check_trace_dir_clean(tmp_path):
    trace_run(tmp_path)
    violations, checked = check_trace_dir(tmp_path)
    assert violations.count == 0
    assert violations.first == []
    assert checked == 2 * (120 - 9)


def test_checks_apply_only_to_the_structured_rule(tmp_path):
    # baselines do not promise the per-step inequalities: their steps are
    # neither checked inline nor counted by the trace checker
    cfg = hill_config(
        out=str(tmp_path), traces=True, runs=1, horizon=200, grid=[200],
        policies=["imed-ub", "osub", "uts"],
    )
    curves = run_experiment(cfg, check_invariants=True)
    assert curves.violations.count == 0
    write_config(cfg, cfg.out_dir)
    violations, checked = check_trace_dir(tmp_path)
    assert violations.count == 0
    assert checked == 200 - 9  # one imed-ub run; baseline traces skipped


def test_check_invariants_counts_all_and_keeps_twenty(monkeypatch):
    # with the structured rule swapped for unstructured IMED, pulls leave
    # the leader's neighborhood; the run counts every violation of every
    # cell and keeps the first 20 in (policy, run) order
    monkeypatch.setattr(
        "unimodal_bandits.policies.ImedUB", lambda family, graph: Imed(family, graph.arm_count)
    )
    cfg = hill_config(means=[0.1, 0.2, 0.5, 0.35, 0.15], runs=3, horizon=400, grid=[400], seed=13)
    curves = run_experiment(cfg, check_invariants=True)
    bandit = cfg.bandit_config()
    found = []
    for r in range(cfg.runs):
        actions, rewards = simulate_policy_run(
            bandit, cfg.policies[0], seed_sequence(cfg.seed, r, 0), cfg.horizon
        )
        found += check_log(actions, rewards, bandit.graph, bandit.family, f"imed-ub/run{r}")
    assert len(found) > 20
    assert curves.violations.count == len(found)
    assert curves.violations.first == found[:20]
    assert curves.violations.per_check == Counter(v.check for v in found)


def doctor_first_exploration_row(victim):
    """Move the first pull that is not the leader's to an arm outside the
    leader's neighborhood; MEMBERSHIP is then violated by construction."""
    graph = line_graph(9)
    lines = victim.read_text().strip().splitlines()
    stats = PullStats(9)
    for i, line in enumerate(lines[1:], start=1):
        arm, reward = json.loads(line)
        if i > 9:
            lead = leader(stats)
            if arm != lead:
                outside = 8 if lead < 6 else 0
                assert outside not in graph.candidates(lead)
                lines[i] = json.dumps([outside, reward])
                victim.write_text("\n".join(lines) + "\n")
                return
        stats.record(arm, reward)
    raise AssertionError("no exploration step found to doctor")


def test_check_trace_dir_flags_doctored_file(tmp_path):
    trace_run(tmp_path)
    victim = sorted((tmp_path / "traces").glob("*.jsonl"))[0]
    doctor_first_exploration_row(victim)
    violations, _ = check_trace_dir(tmp_path)
    assert violations.per_check["MEMBERSHIP"] > 0
    assert violations.count == sum(violations.per_check.values())
    assert violations.first[0].run_id == "imed-ub/run0"


# ---------------------------------------------------------------------------
# CLI


def write_cli_config(tmp_path, **overrides):
    data = {
        "family": "bernoulli",
        "means": list(HILL_MEANS),
        "policies": ["imed-ub"],
        "horizon": 150,
        "runs": 2,
        "seed": 5,
        "grid": [150],
        "out": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_run_and_check_round_trip(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    code = cli_main(["run", str(cfg_path), "--traces", "--check-invariants"])
    out = capsys.readouterr()
    assert code == 0
    assert (tmp_path / "out" / "regret.csv").exists()
    assert (tmp_path / "out" / "config.json").exists()
    assert "invariant checks: all steps clean" in out.out
    assert out.err == ""

    code = cli_main(["check", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 0
    assert "no violations" in out.out


def test_cli_check_flags_doctored_trace(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    assert cli_main(["run", str(cfg_path), "--traces"]) == 0
    victim = sorted((tmp_path / "out" / "traces").glob("*.jsonl"))[0]
    doctor_first_exploration_row(victim)
    capsys.readouterr()
    code = cli_main(["check", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 2
    assert "MEMBERSHIP" in out.out


def replace_row(row):
    return lambda lines: lines[:12] + [row] + lines[13:]


# a JSON value nested too deeply for json.loads, which raises RecursionError
NESTED = "[" * 100_000 + "]" * 100_000

# doctored trace files: line 0 is the header, lines 1-9 the initialization
DOCTORED_TRACES = {
    "garbage": lambda lines: lines + ["garbage"],
    "dict-row": replace_row('{"t": 5}'),
    "arm-99": replace_row("[99,0.0]"),
    "arm-minus-1": replace_row("[-1,0.0]"),
    "string-reward": replace_row('[3,"x"]'),
    "float-arm": replace_row("[3.0,0.0]"),
    "bool-reward": replace_row("[3,true]"),
    "nan-reward": replace_row("[3,NaN]"),
    "init-order": lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],
    "header": lambda lines: ["[1, 2]"] + lines[1:],
    "nested-header": lambda lines: [NESTED] + lines[1:],
    "nested-row": replace_row(NESTED),
    "truncated": lambda lines: lines[:5],
    "cut-short": lambda lines: lines[:61],
    "overlong": lambda lines: lines + lines[-1:],
    "reward-5": replace_row("[4,5.0]"),
    "reward-minus-1": replace_row("[4,-1.0]"),
    "reward-below-min": replace_row(f"[4,{REWARD_MIN / 2!r}]"),
}


@pytest.mark.parametrize("case", sorted(DOCTORED_TRACES))
def test_cli_check_rejects_malformed_trace(tmp_path, capsys, case):
    # trace files are outside input: a malformed one is an error naming
    # its file and line (exit 1), never a traceback
    cfg_path = write_cli_config(tmp_path)
    assert cli_main(["run", str(cfg_path), "--traces"]) == 0
    victim = sorted((tmp_path / "out" / "traces").glob("*.jsonl"))[0]
    lines = victim.read_text().splitlines()
    victim.write_text("\n".join(DOCTORED_TRACES[case](lines)) + "\n")
    capsys.readouterr()
    assert cli_main(["check", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {victim}:")


# per family: rewards at the edges of its range, and just outside them
REWARD_EDGES = {
    "bernoulli": ([REWARD_MIN, 1.0], [math.nextafter(REWARD_MIN, 0.0), math.nextafter(1.0, 2.0)]),
    "gaussian": (
        [-REWARD_MAX, REWARD_MAX],
        [math.nextafter(-REWARD_MAX, -math.inf), math.nextafter(REWARD_MAX, math.inf)],
    ),
    "exponential": (
        [REWARD_MIN, REWARD_MAX],
        [math.nextafter(REWARD_MIN, 0.0), math.nextafter(REWARD_MAX, math.inf)],
    ),
}


@pytest.mark.parametrize("path", ["chunk", "scan"])
@pytest.mark.parametrize("family", sorted(REWARD_EDGES))
def test_check_refuses_a_reward_just_outside_the_domain(tmp_path, capsys, monkeypatch, family, path):
    # every edited row is in the row grammar: a chunk of them is parsed
    # with np.fromstring, and its range test must pass the edges and
    # refuse the rewards past them, which _scan_rows then names. A -0 row
    # sends the chunk to _scan_rows straight away
    cfg_path = write_cli_config(tmp_path, family=family, means=[0.1, 0.2, 0.1])
    assert cli_main(["run", str(cfg_path), "--traces"]) == 0
    victim = sorted((tmp_path / "out" / "traces").glob("*.jsonl"))[0]
    lines = victim.read_text().splitlines()
    if path == "scan":
        lines[11] = f"[{json.loads(lines[11])[0]},-0]"
    arm = json.loads(lines[12])[0]
    scans = []
    scan_rows = runner._scan_rows
    monkeypatch.setattr(runner, "_scan_rows", lambda *args: scans.append(1) or scan_rows(*args))
    inside, outside = REWARD_EDGES[family]
    for reward in inside + outside:
        victim.write_text("\n".join(lines[:12] + [f"[{arm},{reward!r}]"] + lines[13:]) + "\n")
        scans.clear()
        capsys.readouterr()
        code = cli_main(["check", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if reward in inside:
            # read; the audit decides the rest
            assert code in (0, 2), (reward, err)
            assert len(scans) == (path == "scan"), reward
        else:
            assert code == 1, reward
            assert err.startswith(f"error: {victim}:13: expected [arm, reward]"), (reward, err)
            assert len(scans) == 1, reward


def read_outcome(reader, path, arm_count, family):
    """reader's outcome on path: ("log", (header, *log_bits(log))) or
    ("error", message)."""
    try:
        meta, actions, rewards = reader(path, arm_count, family)
    except ConfigError as exc:
        return "error", str(exc)
    return "log", (meta, *log_bits(actions, rewards))


def regroup_rows(lines):
    """Rows 12 and 13 cut after the second one's "[arm": the two lines
    decode as two rows once joined, but neither is a row on its own."""
    first, second = lines[12], lines[13]
    cut = second.index(",")
    return lines[:12] + [first + "," + second[:cut], second[cut + 1:]] + lines[14:]


def space_rows(lines, lo, hi):
    """Rows lo to hi padded with spaces: valid rows, but not as write_trace
    writes them, so a chunk holding one is decoded line by line."""
    return lines[:lo] + [f" {line} " for line in lines[lo:hi]] + lines[hi:]


# trace texts of a clean body's lines; with DOCTORED_TRACES, the inputs on
# which read_trace must agree with the line-by-line reader
TRACE_TEXTS = {
    **{case: lambda lines, edit=edit: "\n".join(edit(lines)) + "\n"
       for case, edit in DOCTORED_TRACES.items()},
    "clean": lambda lines: "\n".join(lines) + "\n",
    "regrouped": lambda lines: "\n".join(regroup_rows(lines)) + "\n",
    "blank-final-line": lambda lines: "\n".join(lines) + "\n\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "no-final-newline": lambda lines: "\n".join(lines),
    "spaced": lambda lines: "\n".join(lines).replace(",", ", ") + "\n",
    "spaced-middle": lambda lines: "\n".join(space_rows(lines, 60, 90)) + "\n",
    "bad-row-late": lambda lines: "\n".join(lines[:120] + ["[99,0.0]"] + lines[121:]) + "\n",
}
ACCEPTED = {"clean", "crlf", "no-final-newline", "spaced", "spaced-middle", "cut-short", "overlong"}


@pytest.mark.parametrize("chunk", [16, runner._READ_CHUNK])
@pytest.mark.parametrize("case", sorted(TRACE_TEXTS))
def test_bulk_trace_reader_agrees_with_line_reader(tmp_path, monkeypatch, case, chunk):
    # read_trace accepts what the line-by-line reader accepts, with the
    # same log, and rejects the rest with the same message; 16-character
    # chunks put a chunk boundary after nearly every line
    monkeypatch.setattr(runner, "_READ_CHUNK", chunk)
    bandit = BanditConfig(Bernoulli(), HILL_MEANS, line_graph(9))
    actions, rewards = simulate_policy_run(
        bandit, PolicySpec("imed-ub"), seed_sequence(5, 0, 0), 150
    )
    path = tmp_path / "imed-ub__run00000.jsonl"
    write_trace(path, {"run": 0}, actions, rewards)
    lines = path.read_text().splitlines()
    path.write_bytes(TRACE_TEXTS[case](lines).encode())
    got = read_outcome(read_trace, path, 9, bandit.family)
    assert got == read_outcome(read_trace_by_line, path, 9, bandit.family)
    assert got[0] == ("log" if case in ACCEPTED else "error")
    if case == "clean":
        assert got[1] == ({"run": 0}, *log_bits(actions, rewards))


def long_trace(path, rows):
    """A synthetic 9-arm Bernoulli trace of rows pulls; its lines."""
    rng = np.random.default_rng(3)
    actions = np.concatenate([np.arange(9), rng.integers(0, 9, rows - 9)])
    write_trace(path, {"run": 0}, actions, rng.random(rows))
    return path.read_text().splitlines()


# edits of a long trace's lines: rows 3500-4500 spaced, and row 5000, on
# line 5002, out of Bernoulli's domain
LONG_TRACE_EDITS = {
    "spaced-middle-chunk": lambda lines: space_rows(lines, 3501, 4501),
    "bad-row-past-first-chunk": lambda lines: lines[:5001] + ["[3,2.0]"] + lines[5002:],
}


@pytest.mark.parametrize("case", sorted(LONG_TRACE_EDITS))
def test_trace_reader_across_chunks(tmp_path, case):
    # 8000 rows of about 22 characters fill three chunks, and both edits
    # lie in the second: it alone is decoded line by line, or it names its
    # bad line by a count carried over the first chunk
    path = tmp_path / "run.jsonl"
    lines = long_trace(path, 8000)
    assert len(path.read_text()) > 2 * runner._READ_CHUNK
    path.write_text("\n".join(LONG_TRACE_EDITS[case](lines)) + "\n")
    got = read_outcome(read_trace, path, 9, Bernoulli())
    assert got == read_outcome(read_trace_by_line, path, 9, Bernoulli())
    if case == "spaced-middle-chunk":
        assert got[0] == "log" and len(got[1][1]) == 8000
    else:
        assert got[1].startswith(f"{path}:5002: expected [arm, reward]")


@pytest.mark.parametrize("chunk", [1024, runner._READ_CHUNK])
def test_write_trace_output_is_decoded_one_chunk_at_a_time(tmp_path, monkeypatch, chunk):
    # a body as write_trace writes it, in each family, is parsed with one
    # np.fromstring per chunk of about chunk characters, never row by row;
    # a warning is an error here, so a numpy that deprecates text-mode
    # fromstring fails this test rather than sending every chunk down the
    # slower line path
    monkeypatch.setattr(runner, "_READ_CHUNK", chunk)

    def scan_rows(*args):
        raise AssertionError("a write_trace body reached _scan_rows")

    monkeypatch.setattr(runner, "_scan_rows", scan_rows)
    path = tmp_path / "run.jsonl"
    for family in (Bernoulli(), Gaussian(0.25), Exponential()):
        bandit = BanditConfig(family, HILL_MEANS, line_graph(9))
        actions, rewards = simulate_policy_run(
            bandit, PolicySpec("imed-ub"), seed_sequence(8, 0, 0), 3000
        )
        write_trace(path, {"run": 0}, actions, rewards)
        lines = path.read_text().splitlines(keepends=True)[1:]
        body = sum(map(len, lines))
        with warnings.catch_warnings(), mock.patch.object(
            runner.np, "fromstring", wraps=np.fromstring
        ) as parse:
            warnings.simplefilter("error")
            _, got_actions, got_rewards = read_trace(path, 9, family)
        assert log_bits(got_actions, got_rewards) == log_bits(actions, rewards), family
        # a chunk holds chunk characters and the rest of a line
        longest = max(map(len, lines))
        assert body / (chunk + longest) <= parse.call_count <= math.ceil(body / chunk), family


@pytest.mark.parametrize(
    "family, rewards",
    [
        (Bernoulli(), [REWARD_MIN, 1.0000000000000001e-150, 1.0 - 2.0**-53, 0.0, -0.0, 1.0]),
        (Exponential(), [REWARD_MAX, REWARD_MIN, 9.999999999999999e+101, 0.0, 1.5]),
        (Gaussian(0.25), [-REWARD_MAX, -5e-324, -0.0, 1e-310, -2.5, -1e-300]),
    ],
    ids=lambda x: getattr(x, "name", ""),
)
def test_trace_round_trip_is_bit_exact(tmp_path, monkeypatch, family, rewards):
    actions = np.arange(len(rewards)) % 3
    rewards = np.array(rewards)
    path = tmp_path / "run.jsonl"
    write_trace(path, {"run": 0}, actions, rewards)
    for chunk in (16, runner._READ_CHUNK):
        monkeypatch.setattr(runner, "_READ_CHUNK", chunk)
        got = read_outcome(read_trace, path, 3, family)
        assert got == read_outcome(read_trace_by_line, path, 3, family)
        assert got == ("log", ({"run": 0}, *log_bits(actions, rewards))), chunk


def test_trace_grammar_needs_no_python_3_11_syntax():
    # the package supports Python 3.10, whose re has no possessive
    # quantifiers and no atomic groups: there, compiling them fails on import
    for pattern in (runner._ROWS.pattern, runner._LABEL.pattern):
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern


FLOAT_BITS = st.integers(0, 2**64 - 1)


def gaussian_reward(bits):
    """Whether the float64 of these bits is a Gaussian reward of the
    declared domain; a NaN is not."""
    return abs(float(np.uint64(bits).view(np.float64))) <= REWARD_MAX


@pytest.mark.parametrize("chunk", [16, runner._READ_CHUNK])
@settings(max_examples=100, deadline=None)
@given(bits=st.lists(FLOAT_BITS.filter(gaussian_reward) | FLOAT_BITS, min_size=1, max_size=40))
def test_fast_parse_is_bit_exact_on_random_floats(chunk, bits):
    # any float64 of Gaussian's reward range as write_trace writes it reads
    # back with its bits, as the line reader reads it; a NaN, an infinity
    # or a float past the range is refused by both
    family = Gaussian(1.0)
    rewards = np.array([0.0, 0.0, 0.0, *bits], dtype=np.uint64).view(np.float64)
    actions = np.arange(len(rewards)) % 3
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(runner, "_READ_CHUNK", chunk):
        path = Path(tmp) / "run.jsonl"
        write_trace(path, {"run": 0}, actions, rewards)
        got = read_outcome(read_trace, path, 3, family)
        assert got == read_outcome(read_trace_by_line, path, 3, family)
    if all(map(gaussian_reward, bits)):
        assert got == ("log", ({"run": 0}, *log_bits(actions, rewards)))


# rewards in forms JSON allows but write_trace never writes; JSON reads a
# bare -0 as the integer 0, so its reward is 0.0, never -0.0
LITERAL_REWARDS = {
    "1E5": 1e5,
    "5e-324": 5e-324,
    "1e+102": 1e102,
    "-0": 0.0,
    "-0.0": -0.0,
    "-0e0": -0.0,
    "12": 12.0,
}


@pytest.mark.parametrize("chunk", [16, runner._READ_CHUNK])
@pytest.mark.parametrize("literal", sorted(LITERAL_REWARDS))
def test_literal_rewards_read_as_json_reads_them(tmp_path, monkeypatch, literal, chunk):
    monkeypatch.setattr(runner, "_READ_CHUNK", chunk)
    path = tmp_path / "run.jsonl"
    path.write_text('{"run": 0}\n[0,1.0]\n[1,2.0]\n' + f"[2,{literal}]\n[0,0.5]\n")
    got = read_outcome(read_trace, path, 3, Gaussian(1.0))
    assert got == read_outcome(read_trace_by_line, path, 3, Gaussian(1.0))
    want = np.array([1.0, 2.0, LITERAL_REWARDS[literal], 0.5])
    assert got == ("log", ({"run": 0}, *log_bits(np.array([0, 1, 2, 0]), want)))


def test_cli_run_and_check_print_twenty_violations_and_counts_per_check(
    tmp_path, capsys, monkeypatch
):
    # unstructured IMED in place of the structured rule breaks its
    # inequalities on many steps: run --check-invariants and check both
    # print the first 20 reports and the same total with its count per
    # check id
    monkeypatch.setattr(
        "unimodal_bandits.policies.ImedUB", lambda family, graph: Imed(family, graph.arm_count)
    )
    cfg_path = write_cli_config(
        tmp_path, means=[0.1, 0.2, 0.5, 0.35, 0.15], horizon=400, grid=[400], seed=13
    )
    assert cli_main(["run", str(cfg_path), "--traces", "--check-invariants"]) == 2
    ran = capsys.readouterr()
    assert cli_main(["check", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    printed = out.out.splitlines()
    assert len(printed) == 20
    assert all(line.startswith("VIOLATION run=imed-ub/run") for line in printed)
    # both commands name a run by its label and index
    assert [line for line in ran.out.splitlines() if line.startswith("VIOLATION ")] == printed
    assert ran.err == out.err
    summary = re.fullmatch(
        r"(\d+) invariant violations, the first 20 printed; per check: (.+)\n", out.err
    )
    total = int(summary[1])
    per_check = {k: int(n) for k, n in (item.split("=") for item in summary[2].split(", "))}
    assert total > 20
    assert set(per_check) <= {"LB1", "LB2", "UB", "MEMBERSHIP"}
    assert sum(per_check.values()) == total


def rewrite_header(path, **fields):
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields})
    path.write_text("\n".join(lines) + "\n")
    return path


def hide_doctored_row(victim):
    doctor_first_exploration_row(victim)
    return rewrite_header(victim, rule="uts")


def second_run(victim):
    return victim.with_name("imed-ub__run00001.jsonl")


def header_run(run):
    """An edit that sets run 1's header run to run, equal to 1 in Python
    but not the integer run writes; the error names the header line."""
    return lambda victim: f"{rewrite_header(second_run(victim), run=run)}:1"


def add_run2(victim):
    extra = victim.with_name("imed-ub__run00002.jsonl")
    extra.write_bytes(victim.read_bytes())
    return rewrite_header(extra, run=2)


# doctored trace directories of a clean 2-run imed-ub output: each case
# edits the traces around run 0's file and returns the file, or file:line,
# the error must name; a check that trusted the traces would print OK for
# every one
DOCTORED_TRACE_DIRS = {
    "rule-rewritten": hide_doctored_row,
    "missing-file": lambda victim: victim.unlink() or victim,
    "extra-file": add_run2,
    "wrong-run": lambda victim: rewrite_header(victim, run=1),
    "run-true": header_run(True),
    "run-float": header_run(1.0),
}


@pytest.mark.parametrize("case", sorted(DOCTORED_TRACE_DIRS))
def test_cli_check_rejects_traces_config_does_not_name(tmp_path, capsys, case):
    # check takes the rule of each trace from config.json, and the trace
    # files must be exactly its labels x runs with the headers run writes
    cfg_path = write_cli_config(tmp_path)
    assert cli_main(["run", str(cfg_path), "--traces"]) == 0
    victim = tmp_path / "out" / "traces" / "imed-ub__run00000.jsonl"
    named = DOCTORED_TRACE_DIRS[case](victim)
    capsys.readouterr()
    assert cli_main(["check", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named}:")


def set_workers(out, workers):
    path = out / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "workers": workers}))


def doctor_two_runs(victim):
    doctor_first_exploration_row(victim)
    doctor_first_exploration_row(second_run(victim))


def bad_rows_in_two_runs(victim):
    for path, row in ((victim, "[99,0.0]"), (second_run(victim), "garbage")):
        lines = replace_row(row)(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
    return victim


# edits of a clean 2-run imed-ub output, as in DOCTORED_TRACE_DIRS; an
# edit that makes check fail returns the file the error must name, the
# first bad one in (policy, run) order
WORKER_CHECK_CASES = {
    "clean": lambda victim: None,
    "violations-in-two-runs": doctor_two_runs,
    "bad-rows-in-two-runs": bad_rows_in_two_runs,
    **DOCTORED_TRACE_DIRS,
}


@pytest.mark.parametrize("case", sorted(WORKER_CHECK_CASES))
def test_cli_check_does_not_depend_on_worker_count(tmp_path, capsys, case):
    # check reads the traces on config.json's workers; its report, errors
    # and exit code are the serial ones for any worker count
    cfg_path = write_cli_config(tmp_path)
    assert cli_main(["run", str(cfg_path), "--traces"]) == 0
    out = tmp_path / "out"
    named = WORKER_CHECK_CASES[case](out / "traces" / "imed-ub__run00000.jsonl")
    outcomes = []
    for workers in (1, 2, 3):
        set_workers(out, workers)
        capsys.readouterr()
        code = cli_main(["check", str(out)])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    code, stdout, stderr = outcomes[0]
    if named:
        assert code == 1 and stderr.startswith(f"error: {named}:")
    elif case == "clean":
        assert code == 0 and stdout.startswith("OK: ")
    else:
        assert code == 2
        assert "run=imed-ub/run0 " in stdout and "run=imed-ub/run1 " in stdout


def test_check_starts_no_more_workers_than_traces(tmp_path, capsys, monkeypatch):
    # config.json is outside input to check: a huge workers value starts
    # one process per trace file at most (a thread pool stands in here)
    started = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=1)

    cfg_path = write_cli_config(tmp_path)
    assert cli_main(["run", str(cfg_path), "--traces"]) == 0
    capsys.readouterr()
    assert cli_main(["check", str(tmp_path / "out")]) == 0
    serial = capsys.readouterr()
    monkeypatch.setattr(runner, "ProcessPoolExecutor", Pool)
    set_workers(tmp_path / "out", 10**9)
    assert cli_main(["check", str(tmp_path / "out")]) == 0
    assert capsys.readouterr() == serial
    assert started == [2]


@pytest.mark.parametrize("traces", [[], ["--traces"]], ids=["plain", "traces"])
def test_cli_run_refuses_an_out_that_is_a_file_before_simulating(
    tmp_path, capsys, monkeypatch, traces
):
    def simulate(*args):
        raise AssertionError("simulated before out was checked")

    monkeypatch.setattr(runner, "simulate_policy_run", simulate)
    cfg_path = write_cli_config(tmp_path)
    (tmp_path / "out").write_text("")
    assert cli_main(["run", str(cfg_path), *traces]) == 1
    assert capsys.readouterr().err.startswith("error: out: ")


@pytest.mark.parametrize(
    "policies, field",
    [
        ([{"name": "imed-ub", "label": "a,b"}], "policies[0].label"),
        ([{"name": "imed-ub", "label": "../../escaped"}], "policies[0].label"),
        ([{"name": "imed-ub", "label": "imed-ub-2"}, "imed-ub", "imed-ub"], "policies[2].label"),
    ],
    ids=["comma", "path", "collision"],
)
def test_cli_rejects_unsafe_or_repeated_labels(tmp_path, capsys, policies, field):
    # labels name regret.csv rows and trace files: a separator, a path or a
    # label repeated after suffixing is a field error before anything runs
    cfg_path = write_cli_config(tmp_path, policies=policies)
    assert cli_main(["run", str(cfg_path), "--traces"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "escaped__run00000.jsonl").exists()


def test_cli_theory_prints_constants(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    code = cli_main(["theory", str(cfg_path)])
    out = capsys.readouterr()
    assert code == 0
    data = json.loads(out.out)
    assert data["c_nu"] == pytest.approx(14.2814, rel=1e-3)
    assert data["neighbors"] == [3, 5]


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "bernoulli", "means": [0.3, 0.1, 0.3],
                               "policies": ["imed"], "horizon": 10}))
    assert cli_main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("command", ["run", "theory"])
@pytest.mark.parametrize(
    "family, means",
    [
        ("bernoulli", [0.1, 0.30000000000000004, 0.3]),
        ({"kind": "gaussian", "variance": 1e100}, [0.0, 1e-300, 0.0]),
    ],
    ids=["bernoulli", "gaussian"],
)
def test_cli_refuses_a_neighbor_whose_divergence_rounds_to_zero(
    tmp_path, capsys, family, means, command
):
    # the lower-bound constant would divide the neighbor's gap by 0.0
    cfg_path = write_cli_config(tmp_path, family=family, means=means, grid=[100], horizon=100)
    assert cli_main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: means[")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def nudge(x, toward):
    return math.nextafter(x, toward)


# (field path, config fields just inside the declared domain, the same
# fields with the one at field path just outside it)
DOMAIN_EDGES = [
    (
        "means[1]",
        {"family": "gaussian", "means": [MEAN_MAX / 2, MEAN_MAX, MEAN_MAX / 2]},
        {"family": "gaussian", "means": [MEAN_MAX / 2, nudge(MEAN_MAX, math.inf), MEAN_MAX / 2]},
    ),
    (
        "means[0]",
        {"family": "exponential", "means": [MEAN_MIN, MEAN_MAX, MEAN_MIN]},
        {"family": "exponential", "means": [nudge(MEAN_MIN, 0.0), MEAN_MAX, MEAN_MIN]},
    ),
    (
        "family.variance",
        {"family": {"kind": "gaussian", "variance": VARIANCE_MIN}},
        {"family": {"kind": "gaussian", "variance": nudge(VARIANCE_MIN, 0.0)}},
    ),
    (
        "family.variance",
        {"family": {"kind": "gaussian", "variance": VARIANCE_MAX}},
        {"family": {"kind": "gaussian", "variance": nudge(VARIANCE_MAX, math.inf)}},
    ),
    (
        "policies[1].c",
        {"policies": ["imed-ub", {"name": "osub", "c": C_MAX}]},
        {"policies": ["imed-ub", {"name": "osub", "c": nudge(C_MAX, math.inf)}]},
    ),
]


@pytest.mark.parametrize(
    "field, inside, outside", DOMAIN_EDGES, ids=[f"{e[0]}-{i}" for i, e in enumerate(DOMAIN_EDGES)]
)
def test_cli_runs_inside_the_declared_domain_and_refuses_outside_it(
    tmp_path, capsys, field, inside, outside
):
    base = {"means": [0.1, 0.2, 0.1], "policies": ["imed-ub", "osub"], "horizon": 200,
            "runs": 1, "grid": [200]}
    (tmp_path / "good").mkdir()
    (tmp_path / "bad" / "out").mkdir(parents=True)
    good = write_cli_config(tmp_path / "good", **{**base, **inside})
    assert cli_main(["run", str(good), "--traces"]) == 0
    assert cli_main(["check", str(tmp_path / "good" / "out")]) == 0
    assert cli_main(["theory", str(good)]) == 0
    capsys.readouterr()
    bad = write_cli_config(tmp_path / "bad", **{**base, **outside})
    # check reads the config.json next to the traces
    (tmp_path / "bad" / "out" / "config.json").write_text(bad.read_text())
    for argv in (["run", str(bad)], ["theory", str(bad)], ["check", str(tmp_path / "bad" / "out")]):
        assert cli_main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: "), (argv, err)
        assert "Traceback" not in err
    assert not (tmp_path / "bad" / "out" / "regret.csv").exists()


def test_cli_overrides(tmp_path, capsys):
    # a {"points": N} grid follows the overriding horizon
    cfg_path = write_cli_config(tmp_path, grid={"points": 20})
    out_dir = tmp_path / "alt"
    code = cli_main(
        ["run", str(cfg_path), "--runs", "1", "--horizon", "80", "--out", str(out_dir),
         "--seed", "123", "--workers", "1"]
    )
    assert code == 0
    saved = json.loads((out_dir / "config.json").read_text())
    assert saved["runs"] == 1
    assert saved["horizon"] == 80
    assert saved["seed"] == 123
    assert saved["grid"] == list(log_grid(80, 20))
    assert "mean regret at t=80 over 1 runs" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["100", "1000"])
def test_cli_horizon_override_must_fit_listed_grid(tmp_path, capsys, horizon):
    cfg_path = write_cli_config(tmp_path, grid=[50, 100, 150])
    assert cli_main(["run", str(cfg_path), "--horizon", horizon]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--runs", "--workers", "--seed"])
def test_cli_override_errors_name_the_field(tmp_path, capsys, flag):
    cfg_path = write_cli_config(tmp_path)
    assert cli_main(["run", str(cfg_path), flag, "-1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:]}")


@settings(max_examples=60, deadline=None)
@given(
    runs=st.none() | st.integers(-2, 3),
    horizon=st.none() | st.integers(-3, 220),
    seed=st.none() | st.integers(-3, 2**70),
    workers=st.none() | st.integers(-2, 1),
    traces=st.booleans(),
    grid=st.sampled_from([None, [50, 100, 200], [200], {"points": 12}, {"points": 0}]),
)
def test_cli_overrides_exit_cleanly(runs, horizon, seed, workers, traces, grid):
    # whatever the overrides, run ends with 0 or a field error (1), never a
    # traceback; worker counts stay at 1 so no process pool is started
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_cli_config(
            Path(tmp), horizon=200, grid=grid, policies=["imed-ub", "osub"]
        )
        argv = ["run", str(cfg_path), "--out", str(Path(tmp) / "out")]
        for flag, value in (("--runs", runs), ("--horizon", horizon),
                            ("--seed", seed), ("--workers", workers)):
            if value is not None:
                argv += [flag, str(value)]
        if traces:
            argv.append("--traces")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ")
        else:
            last = horizon if horizon is not None else 200
            if isinstance(grid, list) and horizon is None:
                last = grid[-1]
            assert f"mean regret at t={last} " in out.getvalue()


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli_main(["theory", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize(
    "text", [NESTED.encode(), b'{"family": "\xff"}'], ids=["nested", "not-utf8"]
)
def test_cli_rejects_undecodable_config(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert cli_main(["theory", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON (")


# ---------------------------------------------------------------------------
# byte identity of the benchmark workloads

ROOT = Path(__file__).resolve().parent.parent
# bench/bench.py's workloads at its "tiny" size: (config, extra run flags)
BENCH_WORKLOADS = {
    "hill9-bernoulli": ("configs/hill9_bernoulli.json", ["--workers", "1"]),
    "grid36-exponential": ("bench/configs/grid36_exponential.json", ["--workers", "1"]),
    "traced-gaussian": (
        "bench/configs/hill9_gaussian.json",
        ["--workers", "1", "--traces", "--check-invariants"],
    ),
    "hill9-pool2": ("configs/hill9_bernoulli.json", ["--workers", "2"]),
}


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS))
def test_bench_workloads_match_recorded_digests(tmp_path, capsys, workload):
    # regret.csv and theory.json of one 1000-step run per policy at the
    # configs' seed are byte-identical to the digests bench/digests.json
    # recorded for its "tiny" size
    config, flags = BENCH_WORKLOADS[workload]
    out = tmp_path / "out"
    argv = ["run", str(ROOT / config), "--seed", "20260810", "--runs", "1",
            "--horizon", "1000", "--out", str(out), *flags]
    assert cli_main(argv) == 0
    want = json.loads((ROOT / "bench" / "digests.json").read_text())["tiny"][workload]
    for name in ("regret.csv", "theory.json"):
        assert sha256((out / name).read_bytes()).hexdigest() == want[name], name
