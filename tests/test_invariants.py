"""Invariant-checker tests: clean runs stay clean, doctored statistics and
off-neighborhood decisions are flagged, and checking is pure."""

import math

import pytest

from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    Gaussian,
    PolicySpec,
    PullStats,
    check_log,
    check_step,
    line_graph,
    seed_sequence,
    simulate_policy_run,
)

from conftest import FAMILIES, HILL_MEANS, make_stats

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
    # check_step applied by hand to the statistics before each later pull
    means = (0.1, 0.2, 0.5, 0.35, 0.15)
    actions, rewards = simulate_policy_run(
        BanditConfig(BERN, means, G5), PolicySpec("imed"), seed_sequence(13, 0, 0), 400
    )
    found = check_log(actions, rewards, G5, BERN, "imed")
    assert any(v.check == "MEMBERSHIP" for v in found)
    stats = PullStats(5)
    by_hand = []
    for i, (arm, reward) in enumerate(zip(actions, rewards)):
        if i >= 5:
            by_hand.extend(check_step(stats, arm, G5, BERN, "imed"))
        stats.record(arm, reward)
    assert found == by_hand


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
