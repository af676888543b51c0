"""Environment tests: config validation, pull statistics, leader
selection, regret accounting, reward streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    ConfigError,
    Gaussian,
    PolicySpec,
    PullStats,
    StateError,
    grid_regret,
    leader,
    line_graph,
    seed_sequence,
    simulate_policy_run,
)

from unimodal_bandits.policies import _argmax_lowest

from conftest import HILL_MEANS, argmax_lowest_loop, leader_loop, log_bits, make_stats


# ---------------------------------------------------------------------------
# configuration


def test_config_exposes_gaps_and_optimum(hill_bernoulli):
    assert hill_bernoulli.optimal_arm == 4
    assert hill_bernoulli.optimal_mean == 0.25
    assert hill_bernoulli.gaps[4] == 0.0
    assert hill_bernoulli.gaps[0] == pytest.approx(0.2)


def test_config_rejects_non_unimodal_means():
    with pytest.raises(ConfigError):
        BanditConfig(Bernoulli(), (0.3, 0.1, 0.3), line_graph(3))


def test_config_rejects_out_of_domain_means():
    with pytest.raises(ConfigError):
        BanditConfig(Bernoulli(), (0.5, 1.5), line_graph(2))
    with pytest.raises(ConfigError):
        BanditConfig(Gaussian(1.0), (0.5, float("nan")), line_graph(2))


@pytest.mark.parametrize(
    "family, means, arm",
    [
        (Bernoulli(), (0.1, 0.30000000000000004, 0.3), 2),
        (Gaussian(1e100), (0.0, 1e-300, 0.0), 0),
    ],
    ids=["bernoulli", "gaussian"],
)
def test_config_rejects_a_neighbor_whose_divergence_rounds_to_zero(family, means, arm):
    # the lower-bound constant divides the neighbor's gap by this divergence
    assert family.kl(means[arm], means[1]) == 0.0 < means[1] - means[arm]
    with pytest.raises(ConfigError, match=rf"^means\[{arm}\]: "):
        BanditConfig(family, means, line_graph(3))


def test_config_rejects_length_mismatch():
    with pytest.raises(ConfigError):
        BanditConfig(Bernoulli(), (0.1, 0.2, 0.3), line_graph(2))


# ---------------------------------------------------------------------------
# pull statistics


def test_stats_recording_consistency():
    stats = PullStats(3)
    for arm, reward in [(0, 1.0), (1, 0.0), (2, 1.0), (0, 0.0), (0, 1.0)]:
        stats.record(arm, reward)
    assert stats.t == 5
    assert sum(stats.counts) == stats.t
    for a in range(3):
        if stats.counts[a]:
            assert stats.means[a] == pytest.approx(
                stats.sums[a] / stats.counts[a], abs=1e-12
            )
    assert stats.means == [pytest.approx(2 / 3), 0.0, 1.0]


def test_stats_mean_zero_when_unpulled():
    stats = PullStats(2)
    assert stats.means == [0.0, 0.0]


def test_best_set_requires_initialization():
    with pytest.raises(StateError):
        leader(make_stats([1, 0, 1], [0.1, 0.0, 0.2]))


def test_leader_prefers_fewer_pulls_then_lowest_index():
    assert leader(make_stats([7, 3, 4], [0.5, 0.5, 0.1])) == 1
    assert leader(make_stats([3, 3], [0.5, 0.5])) == 0
    assert leader(make_stats([4, 2, 2], [0.3, 0.8, 0.8])) == 1


def test_leader_matches_composed_oracle():
    rng = np.random.default_rng(555)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        counts = rng.integers(1, 20, n).tolist()
        means = np.round(rng.uniform(0.0, 1.0, n), 1).tolist()
        stats = make_stats(counts, means)
        best = max(means)
        tied = [a for a in range(n) if means[a] == best]
        oracle = min(tied, key=lambda a: (counts[a], a))
        assert leader(stats) == oracle


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])),
        min_size=1,
        max_size=8,
    )
)
def test_leader_scans_match_the_loops(arms):
    # few distinct means and counts, so ties of both are common; -0.0 and
    # 0.0 compare equal
    counts, means = zip(*arms)
    stats = make_stats(counts, means)
    assert leader(stats) == leader_loop(stats)
    assert _argmax_lowest(stats) == argmax_lowest_loop(stats)


def test_leader_scans_on_all_equal_means_and_signed_zeros():
    for counts, means in [
        ([3, 3, 3], [0.5, 0.5, 0.5]),
        ([3, 2, 2], [0.5, 0.5, 0.5]),
        ([2, 1], [-0.0, 0.0]),
        ([1, 2], [-0.0, 0.0]),
        ([1, 1], [0.0, -0.0]),
    ]:
        stats = make_stats(counts, means)
        assert leader(stats) == leader_loop(stats)
        assert _argmax_lowest(stats) == argmax_lowest_loop(stats) == 0


# ---------------------------------------------------------------------------
# regret and reward streams


def test_optimal_pull_adds_no_pseudo_regret(hill_bernoulli):
    regret, counts = grid_regret(hill_bernoulli, np.array([4]), [1])
    assert regret.tolist() == [0.0] and counts == (0, 0, 0, 0, 1, 0, 0, 0, 0)


def test_pseudo_regret_identity_exact(hill_bernoulli):
    # at every grid time, sum_a gap_a N_a(t) with the counts of the log's
    # first t pulls, summed in arm order, bit for bit
    rng = np.random.default_rng(0)
    actions = list(range(9)) + rng.integers(0, 9, 2000).tolist()
    grid = [1, 5, 9, 10, 700, 2009]
    regret, counts = grid_regret(hill_bernoulli, np.array(actions), grid)
    gaps = hill_bernoulli.gaps
    for i, t in enumerate(grid):
        n = [actions[:t].count(a) for a in range(9)]
        assert regret[i] == sum(gaps[a] * n[a] for a in range(9)), t
    assert counts == tuple(actions.count(a) for a in range(9))


def test_grid_regret_at_times_below_arm_count(hill_bernoulli):
    # grid times inside the initialization see only its first pulls
    actions = np.array([*range(9), 4, 3])
    regret, counts = grid_regret(hill_bernoulli, actions, [2, 5, 11])
    gaps = hill_bernoulli.gaps
    assert regret[0] == gaps[0] + gaps[1]
    assert regret[1] == gaps[0] + gaps[1] + gaps[2] + gaps[3]  # gaps[4] == 0
    assert regret[2] == sum(g * n for g, n in zip(gaps, (1, 1, 1, 2, 2, 1, 1, 1, 1)))
    assert counts == (1, 1, 1, 2, 2, 1, 1, 1, 1)


def test_env_trace_deterministic_under_same_seed():
    # a seed fixes every arm's rewards, whatever order the policy pulls
    # them in: uts and osub interleave differently, and each arm's rewards
    # in one run begin as its rewards in the other
    bandit = BanditConfig(Gaussian(0.25), HILL_MEANS, line_graph(9))
    seed_seq = seed_sequence(77, 0, 0)
    uts, again, osub = (
        simulate_policy_run(bandit, PolicySpec(rule), seed_seq, 2000)
        for rule in ("uts", "uts", "osub")
    )
    assert log_bits(*uts) == log_bits(*again)
    assert uts[0].tolist() != osub[0].tolist()
    for arm in range(9):
        a = uts[1][uts[0] == arm].tolist()
        b = osub[1][osub[0] == arm].tolist()
        n = min(len(a), len(b))
        assert n > 0 and a[:n] == b[:n], arm


def test_initialize_pulls_each_arm_once(hill_bernoulli):
    # a run opens with the forced initialization 0, 1, ..., K-1, the order
    # trace files are checked against
    actions, rewards = simulate_policy_run(
        hill_bernoulli, PolicySpec("imed-ub"), seed_sequence(0, 0, 0), 9
    )
    assert actions.tolist() == list(range(9)) and len(rewards) == 9


def test_single_arm_lln_hill_peak():
    draws = Bernoulli().sample_many(0.25, np.random.default_rng(101), 10**6)
    assert abs(draws.mean() - 0.25) < 0.002
