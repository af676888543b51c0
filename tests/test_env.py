"""Environment tests: config validation, pull statistics, leader
selection, regret accounting, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimodal_bandits import (
    BanditConfig,
    BanditEnv,
    Bernoulli,
    ConfigError,
    Gaussian,
    ParameterError,
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

from conftest import HILL_MEANS, argmax_lowest_loop, leader_loop, make_stats


def make_env(seed=0, means=HILL_MEANS, family=None):
    family = family or Bernoulli()
    config = BanditConfig(family, means, line_graph(len(means)))
    children = seed_sequence(seed, 0, 0).spawn(len(means))
    return BanditEnv(config, [np.random.default_rng(c) for c in children])


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
        (Gaussian(1e300), (0.0, 1e-300, 0.0), 0),
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
# environment


def test_pull_rejects_bad_arm():
    env = make_env()
    with pytest.raises(ParameterError):
        env.pull(9)
    with pytest.raises(ParameterError):
        env.pull(-1)


@pytest.mark.parametrize("family", [Bernoulli(), Gaussian(0.25)], ids=lambda f: f.name)
def test_a_leader_run_serves_and_records_what_its_pulls_would(family):
    # with a certificate that always vouches, a run pulls the leader while
    # its mean stays the strict maximum; one env takes runs, the other
    # pulls step by step, and statistics and rewards must agree bit for
    # bit. Runs of 700 cross the streams' 512-draw refills
    means = [0.3, 0.5, 0.45]
    bulk, steps = make_env(3, means, family), make_env(3, means, family)
    for arm in range(3):
        assert bulk.pull(arm) == steps.pull(arm)
    served_runs = 0
    for i in range(300):
        j = (5, 700)[i % 2]
        lead, served = bulk.pull_leader_run(lambda *args: True, j)
        stats = steps.stats
        want = []
        while len(want) < j and stats.means.count(max(stats.means)) == 1:
            best = stats.means.index(max(stats.means))
            if want and best != lead:
                break
            want.append(steps.pull(best))
        assert served == want
        served_runs += bool(served)
        for name in ("counts", "sums", "means", "t"):
            assert getattr(bulk.stats, name) == getattr(stats, name), (i, name)
        assert bulk.pull(i % 3) == steps.pull(i % 3)
    assert served_runs > 100


def test_a_leader_run_pulls_nothing_without_a_strict_leader_or_a_certificate():
    env, twin = make_env(1, [0.3, 0.5, 0.45]), make_env(1, [0.3, 0.5, 0.45])
    for arm in range(3):
        env.pull(arm)
        twin.pull(arm)
    env.stats.means[:] = [0.5, 0.5, 0.2]
    assert env.pull_leader_run(lambda *args: True, 10) == (None, [])
    env.stats.means[:] = [0.5, 0.6, 0.2]
    assert env.pull_leader_run(lambda *args: False, 10) == (1, [])
    assert env.stats.t == 3
    # the rewards peeked for the refused run are served next
    assert env.pull_leader_run(lambda *args: True, 1) == (1, [twin.pull(1)])


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
    rewards_a = [make_env(seed=77).pull(a % 9) for a in range(50)]
    env = make_env(seed=77)
    rewards_b = [env.pull(a % 9) for a in range(50)]  # same arm order
    env2 = make_env(seed=77)
    rewards_c = [env2.pull(a % 9) for a in range(50)]
    assert rewards_b == rewards_c
    assert rewards_b[0] == rewards_a[0]


def test_initialize_pulls_each_arm_once(hill_bernoulli):
    # a run opens with the forced initialization 0, 1, ..., K-1, the order
    # trace files are checked against
    actions, rewards = simulate_policy_run(
        hill_bernoulli, PolicySpec("imed-ub"), seed_sequence(0, 0, 0), 9
    )
    assert actions.tolist() == list(range(9)) and len(rewards) == 9


def test_single_arm_lln_hill_peak():
    env = make_env(seed=101)
    for _ in range(10**6):
        env.pull(4)
    assert abs(env.stats.means[4] - 0.25) < 0.002
