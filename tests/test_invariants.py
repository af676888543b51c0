"""Invariant-checker tests: clean runs stay clean, doctored statistics and
off-neighborhood decisions are flagged, checking is pure, and the bulk
audit of a pull log reports exactly what check_step finds on every step."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unimodal_bandits.invariants as invariants
from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    Exponential,
    Gaussian,
    ParameterError,
    PolicySpec,
    StateError,
    UnimodalGraph,
    check_log,
    check_step,
    line_graph,
    seed_sequence,
    simulate_policy_run,
)
from unimodal_bandits.expfam import REWARD_MIN

from conftest import FAMILIES, HILL_MEANS, make_stats, replay_check_log

G5 = line_graph(5)
BERN = Bernoulli()


def clean_stats(counts=(3, 6, 20, 9, 2), means=(0.2, 0.4, 0.5, 0.35, 0.1)):
    """Pre-pull statistics on a 5-arm line with arm 2 leading; choosing
    arm 1 on them is a valid step of the structured rule."""
    return make_stats(counts, means)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_reference_runs_produce_no_violations(family):
    actions, rewards = simulate_policy_run(
        BanditConfig(family, HILL_MEANS, line_graph(9)), PolicySpec("imed-ub"),
        seed_sequence(0, 0, 0), 1500,
    )
    assert check_log(actions, rewards, line_graph(9), family, "ref") == []


def test_clean_record_passes():
    assert check_step(clean_stats(), 1, G5, BERN) == []


def test_lb2_flags_overpulled_chosen_arm():
    stats = clean_stats(counts=(3, 30, 20, 9, 2))
    out = check_step(stats, 1, G5, BERN, run_id="r0")
    assert any(v.check == "LB2" for v in out)
    lb2 = next(v for v in out if v.check == "LB2")
    assert lb2.lhs == 30.0 and lb2.rhs == 20.0 and lb2.run_id == "r0" and lb2.t == 64


def test_lb1_flags_chosen_count_above_neighbor_index():
    # neighbor arm 1 has a single pull just below the best mean, so its
    # index is KL(0.45, 0.5) ~ 0.005; choosing arm 3 with 9 pulls then
    # breaks the lower bound log 9 <= 0.005
    stats = clean_stats(means=(0.2, 0.45, 0.5, 0.45, 0.1), counts=(3, 1, 20, 9, 2))
    out = check_step(stats, 3, G5, BERN)
    assert any(v.check == "LB1" for v in out)


def test_ub_flags_excessive_transport_cost():
    stats = clean_stats(counts=(3, 2000, 2000, 9, 2))
    out = check_step(stats, 1, G5, BERN)
    assert any(v.check == "UB" for v in out)


def test_membership_flags_non_neighbor():
    stats = clean_stats(counts=(3, 6, 20, 9, 3))
    out = check_step(stats, 4, G5, BERN)
    assert [v.check for v in out] == ["MEMBERSHIP"]


def test_unstructured_rule_eventually_leaves_neighborhood():
    # plain IMED explores every arm, so on a 5-arm line some pull must land
    # outside the leader's neighborhood; check_log flags it, and equals
    # check_step applied to the statistics before each later pull
    means = (0.1, 0.2, 0.5, 0.35, 0.15)
    actions, rewards = simulate_policy_run(
        BanditConfig(BERN, means, G5), PolicySpec("imed"), seed_sequence(13, 0, 0), 400
    )
    found = check_log(actions, rewards, G5, BERN, "imed")
    assert any(v.check == "MEMBERSHIP" for v in found)
    assert found == replay_check_log(actions, rewards, G5, BERN, "imed")


def test_checker_is_pure():
    stats = clean_stats(counts=(3, 30, 20, 9, 2))
    a = check_step(stats, 1, G5, BERN, run_id="x")
    b = check_step(stats, 1, G5, BERN, run_id="x")
    assert a == b
    assert stats.counts == [3, 30, 20, 9, 2] and stats.t == 64


def test_tolerance_absorbs_float_noise():
    # Gaussian(0.5)'s divergence is the squared gap, so a gap of
    # sqrt(log t) puts UB's two sides level; float-noise excess above that
    # must not raise UB, a real excess must
    fam = Gaussian(0.5)
    counts = (3, 1, 20, 9, 7)
    for excess, flagged in ((1e-13, []), (1e-8, ["UB"])):
        gap = math.sqrt(math.log(sum(counts))) + excess
        stats = make_stats(counts, (0.2, 0.5 - gap, 0.5, 0.35, 0.1))
        assert [v.check for v in check_step(stats, 1, G5, fam)] == flagged, excess


def test_violation_line_format():
    stats = clean_stats(counts=(3, 30, 20, 9, 2))
    out = check_step(stats, 1, G5, BERN, run_id="p/run3")
    v = next(v for v in out if v.check == "LB2")
    line = v.line()
    assert "run=p/run3" in line and "check=LB2" in line and "t=64" in line


# ---------------------------------------------------------------------------
# check_log against the step-by-step replay


def hill_bandit(family):
    # the Exponential hill is lifted off 0, where its divergences are inf
    lift = 0.5 if family.name == "exponential" else 0.0
    return BanditConfig(family, [m + lift for m in HILL_MEANS], line_graph(9))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_check_log_matches_replay_on_clean_runs(family):
    bandit = hill_bandit(family)
    for seed in range(50):
        actions, rewards = simulate_policy_run(
            bandit, PolicySpec("imed-ub"), seed_sequence(seed, 0, 0), 2000
        )
        want = replay_check_log(actions, rewards, bandit.graph, family, "r")
        assert check_log(actions, rewards, bandit.graph, family, "r") == want == [], seed


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_check_log_matches_replay_on_unstructured_runs(family):
    # IMED logs break the structured rule's inequalities on many steps;
    # every report, in order, matches the replay's
    bandit = hill_bandit(family)
    total = 0
    for seed in range(6):
        actions, rewards = simulate_policy_run(
            bandit, PolicySpec("imed"), seed_sequence(seed, 0, 0), 2000
        )
        want = replay_check_log(actions, rewards, bandit.graph, family, "r")
        assert check_log(actions, rewards, bandit.graph, family, "r") == want, seed
        total += len(want)
    assert total > 100


def test_check_log_blocks_split_anywhere(monkeypatch):
    # with 5-step blocks, steps that must go to check_step fall on the
    # first and the last step of a block
    monkeypatch.setattr(invariants, "_AUDIT_BLOCK", 5)
    bandit = hill_bandit(BERN)
    actions, rewards = simulate_policy_run(
        bandit, PolicySpec("imed"), seed_sequence(3, 0, 0), 1500
    )
    want = replay_check_log(actions, rewards, bandit.graph, BERN)
    assert check_log(actions, rewards, bandit.graph, BERN) == want
    offsets = {(v.t - 9) % 5 for v in want}
    assert {0, 4} <= offsets


@st.composite
def unimodal_instances(draw):
    """(family, means, graph) of a random unimodal bandit: a line, or a
    random tree with extra edges, and means falling with the graph
    distance from the peak; arms at one distance share their mean."""
    k = draw(st.integers(2, 7))
    if draw(st.booleans()):
        graph = line_graph(k)
    else:
        edges = {(draw(st.integers(0, a - 1)), a) for a in range(1, k)}
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        graph = UnimodalGraph(k, sorted(edges))
    peak = draw(st.integers(0, k - 1))
    dist = {peak: 0}
    frontier = [peak]
    while frontier:
        nxt = []
        for a in frontier:
            for b in graph.neighbors(a):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    family = draw(st.sampled_from(FAMILIES))
    if family.name == "bernoulli":
        pool = [1e-3, 0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.99, 0.999]
    else:
        pool = [0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0]
    levels = sorted(draw(st.sets(st.sampled_from(pool), min_size=max(dist.values()) + 1)))
    levels = levels[::-1]
    return family, [levels[dist[a]] for a in range(k)], graph


@settings(max_examples=40, deadline=None)
@given(
    instance=unimodal_instances(),
    rule=st.sampled_from(["imed-ub", "imed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_log_matches_replay_on_random_instances(instance, rule, seed):
    family, means, graph = instance
    bandit = BanditConfig(family, means, graph)
    actions, rewards = simulate_policy_run(
        bandit, PolicySpec(rule), seed_sequence(seed, 0, 0), 300
    )
    want = replay_check_log(actions, rewards, graph, family, "h")
    assert check_log(actions, rewards, graph, family, "h") == want
    if rule == "imed-ub":
        assert want == []


# rewards of the declared domain: 0, or at least REWARD_MIN where positive
REWARDS = {
    "bernoulli": st.sampled_from([0.0, 1.0]) | st.floats(REWARD_MIN, 1.0),
    "gaussian": st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0),
    "exponential": st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(REWARD_MIN, 5.0),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_log_matches_replay_on_random_logs(data):
    # logs no rule produced: arms drawn at random after the initialization
    # and rewards with many ties break every check, alone and together
    family = data.draw(st.sampled_from(FAMILIES))
    k = data.draw(st.integers(2, 5))
    graph = line_graph(k) if data.draw(st.booleans()) else UnimodalGraph(
        k, [(a, b) for a in range(k) for b in range(a + 1, k)]
    )
    n = data.draw(st.integers(1, 40))
    actions = list(range(k)) + data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rewards = data.draw(
        st.lists(REWARDS[family.name], min_size=len(actions), max_size=len(actions))
    )
    actions, rewards = np.array(actions), np.array(rewards)
    # blocks as short as two pulls carry every arm's count and sum across
    # many block boundaries
    block = data.draw(st.sampled_from([2, 3, 7, invariants._AUDIT_BLOCK]))
    want = replay_check_log(actions, rewards, graph, family, "x")
    with mock.patch.object(invariants, "_AUDIT_BLOCK", block):
        assert check_log(actions, rewards, graph, family, "x") == want


BIG = 1.7976931348623157e308
# (family, actions, rewards) of logs on which check_step raises: sums
# that overflow to inf, a NaN or a reward outside the family's domain, an
# arm the initialization leaves out
FAULTY_LOGS = {
    "gaussian-inf": (Gaussian(1.0), [0, 1, 2, 1, 1, 0], [0.0, BIG, 0.0, BIG, 0.0, 0.0]),
    "gaussian-nan": (Gaussian(1.0), [0, 1, 2, 0, 0, 1, 2], [1.0, 0.0, math.nan, 1.0, 1.0, 0.0, 0.0]),
    "gaussian-minus-inf": (Gaussian(1.0), [0, 1, 2, 0, 0, 1], [-BIG, 0.0, 1.0, -BIG, 0.0, 0.0]),
    "bernoulli-reward-2": (BERN, [0, 1, 2, 1, 0, 1, 2], [0.0, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0]),
    "exponential-negative": (Exponential(), [0, 1, 2, 2, 0], [1.0, 2.0, 1.0, -5.0, 1.0]),
    "init-misses-arm": (BERN, [0, 0, 1, 2, 1], [1.0, 0.0, 1.0, 0.0, 1.0]),
}


def audit_outcome(audit, family, actions, rewards):
    try:
        return audit(actions, rewards, line_graph(3), family, "f")
    except (ParameterError, StateError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block", [2, invariants._AUDIT_BLOCK])
@pytest.mark.parametrize("case", sorted(FAULTY_LOGS))
def test_check_log_raises_where_replay_does(monkeypatch, case, block):
    # with two-pull blocks, the uninitialized arm keeps the later blocks
    # from clearing in bulk; a reward outside the declared domain is
    # refused in its block, naming its pull, before any step is audited
    monkeypatch.setattr(invariants, "_AUDIT_BLOCK", block)
    family, actions, rewards = FAULTY_LOGS[case]
    actions, rewards = np.array(actions), np.array(rewards)
    want = audit_outcome(replay_check_log, family, actions, rewards)
    got = audit_outcome(check_log, family, actions, rewards)
    inside = family.in_reward_domain(rewards)
    if inside.all():
        assert got == want
    else:
        assert want[0] is ParameterError
        assert got[0] is ParameterError
        assert got[1].startswith(f"pull {inside.argmin()}: {family.name} reward ")
