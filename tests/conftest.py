"""Shared fixtures and helpers for the test suite."""

import json
import math
from itertools import islice

import numpy as np
import pytest

from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    ConfigError,
    Exponential,
    Gaussian,
    ParameterError,
    PullStats,
    check_step,
    line_graph,
    make_policy,
)
from unimodal_bandits.expfam import BISECT_MAX_ITER, BISECT_TOL

# nine-arm hill over a path: single peak at arm 4, symmetric slopes
HILL_MEANS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.20, 0.15, 0.10, 0.05)

FAMILIES = [Bernoulli(), Gaussian(0.25), Exponential()]


def bisect_kl_upper_inverse(family, mu_hat, budget):
    """Reference KL upper inverse for the Newton solver in expfam: plain
    bisection on kl(mu_hat, q) <= budget.

    Bernoulli's domain top caps the bracket; otherwise it grows by
    doubling until kl exceeds the budget, which inside the declared domain
    it does at a finite mean. Returns the lower end of a bracket at most
    1e-10 wide, or after BISECT_MAX_ITER halvings when floats that large
    are coarser than that.
    """
    if budget == 0.0 or mu_hat >= family.mean_hi:
        return mu_hat
    kl = family.kl
    lo = mu_hat
    if family.name == "bernoulli":
        hi = family.mean_hi
        if kl(mu_hat, hi) <= budget:
            return hi
    else:
        step = 1.0 + abs(mu_hat)
        hi = mu_hat + step
        while kl(mu_hat, hi) <= budget:
            lo = hi
            step *= 2.0
            hi = mu_hat + step
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * lo + 0.5 * hi
        if kl(mu_hat, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def variance_sup(family, lo, hi):
    """Supremum of family's member variance as the mean ranges over the
    interval [lo, hi] of its closed mean domain; the variance envelope of
    the Pinsker-type bound kl(mu, mu') >= (mu' - mu)^2 / (2 sup var)."""
    family.require_mean_closure(lo)
    family.require_mean_closure(hi)
    if lo > hi:
        raise ParameterError(f"empty mean interval [{lo}, {hi}]")
    if family.name == "bernoulli":
        if lo <= 0.5 <= hi:
            return 0.25
        # variance is unimodal in the mean with peak at 1/2
        return max(lo * (1.0 - lo), hi * (1.0 - hi))
    if family.name == "gaussian":
        return family.sigma2
    # exponential: the variance mu^2 grows with the mean
    return hi * hi


def log_bits(actions, rewards):
    """A pull log as two lists: the arms, and the rewards' float64 bit
    patterns, which tell -0.0 from 0.0; logs compare bit for bit with ==."""
    return actions.tolist(), rewards.view(np.uint64).tolist()


def replay_check_log(actions, rewards, graph, family, run_id=""):
    """Reference audit for invariants.check_log: the log replayed through a
    fresh PullStats, with check_step run on the statistics before every
    pull after the initialization (the first arm_count pulls)."""
    k = graph.arm_count
    stats = PullStats(k)
    pulls = zip(actions.tolist(), rewards.tolist())
    for arm, reward in islice(pulls, k):
        stats.record(arm, reward)
    out = []
    for arm, reward in pulls:
        out.extend(check_step(stats, arm, graph, family, run_id))
        stats.record(arm, reward)
    return out


def read_trace_by_line(path, arm_count, family):
    """Reference reader for runner.read_trace: the header, then every body
    line decoded and checked on its own, in order; a ConfigError names the
    first line not accepted, with read_trace's message. The log is two
    arrays, int64 arms and float64 rewards."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        try:
            meta = json.loads(fh.readline())
        except (ValueError, RecursionError):
            meta = None
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}:1: header is not a JSON object")
        actions = []
        rewards = []
        for lineno, line in enumerate(fh, start=2):
            try:
                arm, reward = json.loads(line)
                ok = (
                    type(arm) is int
                    and 0 <= arm < arm_count
                    and type(reward) in (float, int)
                    and (reward == 0 or family.reward_lo <= reward <= family.mean_hi)
                )
            except (TypeError, ValueError, RecursionError):
                ok = False
            if not ok:
                raise ConfigError(
                    f"{path}:{lineno}: expected [arm, reward] with an integer arm in "
                    f"[0, {arm_count}) and a reward 0 or in [{family.reward_lo}, "
                    f"{family.mean_hi}], got {line.strip()[:60]!r}"
                )
            if len(actions) < arm_count and arm != len(actions):
                raise ConfigError(
                    f"{path}:{lineno}: pull {len(actions)} must be the initialization "
                    f"pull of arm {len(actions)}, got arm {arm}"
                )
            actions.append(arm)
            rewards.append(float(reward))
    if len(actions) < arm_count:
        n = len(actions)
        raise ConfigError(f"{path}:{n + 2}: missing the initialization pull of arm {n}")
    return meta, np.array(actions, dtype=np.int64), np.array(rewards, dtype=np.float64)


def index_argmin_loop(stats, family, cands, mu_star):
    """Reference argmin of the minimum-index rules: every candidate's index
    n KL(mean, mu_star) + log n evaluated exactly, the first minimum kept."""
    counts = stats.counts
    means = stats.means
    best = cands[0]
    best_val = math.inf
    for a in cands:
        n = counts[a]
        x = means[a]
        v = math.log(n)
        if x < mu_star:
            v += n * family.kl(x, mu_star)
        if v < best_val:
            best_val = v
            best = a
    return best


def leader_loop(stats):
    """Reference env.leader: one pass keeping the best mean, fewer pulls
    breaking ties, then the lowest index."""
    stats.require_initialized()
    means = stats.means
    counts = stats.counts
    lead = 0
    best_m = means[0]
    best_c = counts[0]
    for a in range(1, stats.arm_count):
        m = means[a]
        if m > best_m or (m == best_m and counts[a] < best_c):
            lead = a
            best_m = m
            best_c = counts[a]
    return lead


def argmax_lowest_loop(stats):
    """Reference policies._argmax_lowest: the first arm of maximal mean."""
    means = stats.means
    lead = 0
    best = means[0]
    for a in range(1, stats.arm_count):
        if means[a] > best:
            best = means[a]
            lead = a
    return lead


def osub_argmax_loop(stats, family, cands, bonus):
    """Reference arg-max of Osub.select: every candidate's KL upper inverse
    at budget bonus / count solved exactly, the first maximum kept."""
    counts = stats.counts
    means = stats.means
    best = cands[0]
    best_val = -math.inf
    for a in cands:
        v = family.kl_upper_inverse(means[a], bonus / counts[a])
        if v > best_val:
            best_val = v
            best = a
    return best


def osub_select_loop(policy, graph, stats):
    """Reference Osub.select on graph: policy's leader-round schedule, which
    it advances in policy.leader_rounds, with osub_argmax_loop deciding the
    rounds that are not forced."""
    stats.require_initialized()
    lead = argmax_lowest_loop(stats)
    policy.leader_rounds[lead] += 1
    rounds = policy.leader_rounds[lead]
    if (rounds - 1) % (policy.gamma + 1) == 0:
        return lead
    bonus = math.log(rounds) + policy.c * math.log(math.log(max(rounds, math.e)))
    return osub_argmax_loop(stats, policy.family, graph.candidates(lead), bonus)


def oracle_select(rule, family, graph):
    """select() of the rule "imed-ub" or "imed" on graph, built from the
    reference loops above."""
    if rule == "imed-ub":
        def select(stats):
            lead = leader_loop(stats)
            return index_argmin_loop(
                stats, family, graph.candidates(lead), stats.means[lead]
            )
    else:
        def select(stats):
            stats.require_initialized()
            return index_argmin_loop(
                stats, family, range(graph.arm_count), max(stats.means)
            )
    return select


def simulate_loop(bandit, spec, seed_seq, horizon, select=None):
    """Reference runner.simulate_policy_run: the same streams, then one
    select and one PullStats.record per step, with no leader runs. Arm
    a's rewards are the 512-draw blocks of sample_many from its child
    stream, concatenated and served in order. select(policy, stats), when
    given, decides in place of the policy's own select. The log is two
    arrays, int64 arms and float64 rewards."""
    n = bandit.arm_count
    children = [
        np.random.SeedSequence(
            seed_seq.entropy, spawn_key=seed_seq.spawn_key + (i,), pool_size=seed_seq.pool_size
        )
        for i in range(n + 1)
    ]
    rngs = [np.random.default_rng(c) for c in children[:n]]
    drawn = [[] for _ in range(n)]
    policy = make_policy(
        spec, bandit.family, bandit.graph, rng=np.random.default_rng(children[n])
    )
    stats = PullStats(n)
    actions = []
    rewards = []
    for t in range(horizon):
        if t < n:
            arm = t
        elif select is None:
            arm = policy.select(stats)
        else:
            arm = select(policy, stats)
        served = stats.counts[arm]
        if served == len(drawn[arm]):
            drawn[arm] += bandit.family.sample_many(bandit.means[arm], rngs[arm], 512).tolist()
        stats.record(arm, drawn[arm][served])
        actions.append(arm)
        rewards.append(drawn[arm][served])
    return np.array(actions, dtype=np.int64), np.array(rewards, dtype=np.float64)


def make_stats(counts, means):
    """PullStats with the given per-arm counts and empirical means."""
    stats = PullStats(len(counts))
    stats.counts = [int(c) for c in counts]
    stats.means = [float(m) for m in means]
    stats.sums = [c * m for c, m in zip(stats.counts, stats.means)]
    stats.t = sum(stats.counts)
    return stats


@pytest.fixture
def hill_bernoulli():
    return BanditConfig(Bernoulli(), HILL_MEANS, line_graph(9))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
