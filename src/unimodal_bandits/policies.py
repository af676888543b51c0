"""Decision rules: IMED-UB and the IMED, OSUB, UTS baselines.

All policies read shared PullStats and return the arm to pull next from
select(). Call it once per time step: OSUB keeps leader-round counters and
UTS draws from its own stream on every call.
"""

import math
from dataclasses import dataclass

from .env import leader
from .errors import ParameterError


def transport_kl(family, mu_hat, target):
    """Divergence cost of lifting mu_hat up to target; zero at or above it."""
    if mu_hat >= target:
        return 0.0
    return family.kl(mu_hat, target)


def _index_argmin(stats, family, cands, mu_star):
    """Arm of minimal index n KL(mean, mu_star) + log n among cands, lowest
    index on ties."""
    counts = stats.counts
    means = stats.means
    kl = family.kl
    log = math.log
    best = cands[0]
    best_val = math.inf
    for a in cands:
        n = counts[a]
        x = means[a]
        v = log(n)
        if x < mu_star:
            v += n * kl(x, mu_star)
        if v < best_val:
            best_val = v
            best = a
    return best


def _argmax_lowest(stats):
    """Arm of maximal empirical mean, lowest index on ties."""
    means = stats.means
    lead = 0
    best = means[0]
    for a in range(1, stats.arm_count):
        if means[a] > best:
            best = means[a]
            lead = a
    return lead


class ImedUB:
    """Minimum-index rule restricted to the leader and its graph neighbors.

    The leader is an empirically best arm with the fewest pulls (lowest
    index on remaining ties); each step pulls the index-minimizing arm
    among the leader and its neighborhood.
    """

    def __init__(self, family, graph):
        self.family = family
        self._cands = tuple(graph.candidates(a) for a in range(graph.arm_count))

    def select(self, stats):
        lead = leader(stats)
        return _index_argmin(stats, self.family, self._cands[lead], stats.means[lead])


class Imed:
    """Unstructured minimum-index rule over all arms."""

    def __init__(self, family, arm_count):
        self.family = family
        self._cands = tuple(range(arm_count))

    def select(self, stats):
        stats.require_initialized()
        return _index_argmin(stats, self.family, self._cands, max(stats.means))


class Osub:
    """KL upper confidence bounds over the leader's neighborhood with a
    leader-round exploitation schedule.

    The leader is the arm of maximal empirical mean (lowest index on ties)
    and l counts the rounds it has led so far. Every (gamma+1)-th leader
    round the leader itself is pulled; otherwise the eligible arm with the
    largest KL upper inverse at budget (log l + c*loglog max(l, e))/pulls
    is pulled, largest value winning and ties going to the lowest index.
    """

    def __init__(self, family, graph, gamma=None, c=0.0):
        if gamma is None:
            gamma = graph.max_degree()
        if int(gamma) != gamma or gamma < 0:
            raise ParameterError(f"gamma must be a nonnegative integer, got {gamma!r}")
        if not math.isfinite(c) or c < 0:
            raise ParameterError(f"c must be a finite number >= 0, got {c!r}")
        self.family = family
        self.gamma = int(gamma)
        self.c = float(c)
        self._cands = tuple(graph.candidates(a) for a in range(graph.arm_count))
        self.leader_rounds = [0] * graph.arm_count

    def _bonus(self, rounds):
        b = math.log(rounds)
        if self.c != 0.0:
            b += self.c * math.log(math.log(max(rounds, math.e)))
        return b

    def select(self, stats):
        stats.require_initialized()
        lead = _argmax_lowest(stats)
        self.leader_rounds[lead] += 1
        rounds = self.leader_rounds[lead]
        if (rounds - 1) % (self.gamma + 1) == 0:
            return lead
        bonus = self._bonus(rounds)
        inverse = self.family.kl_upper_inverse
        counts = stats.counts
        means = stats.means
        cands = self._cands[lead]
        best = cands[0]
        best_val = -math.inf
        for a in cands:
            v = inverse(means[a], bonus / counts[a])
            if v > best_val:
                best_val = v
                best = a
        return best


class Uts:
    """Thompson sampling over the leader's neighborhood.

    Half the time the leader (arm of maximal empirical mean, lowest index
    on ties) is replayed; otherwise one conjugate posterior draw per
    eligible arm decides, largest sample winning.
    """

    def __init__(self, family, graph, rng):
        if rng is None:
            raise ParameterError("uts requires a random generator")
        self.family = family
        self.rng = rng
        self._cands = tuple(graph.candidates(a) for a in range(graph.arm_count))

    def select(self, stats):
        stats.require_initialized()
        lead = _argmax_lowest(stats)
        if self.rng.random() < 0.5:
            return lead
        draw = self.family.posterior_mean_sample
        counts = stats.counts
        sums = stats.sums
        rng = self.rng
        cands = self._cands[lead]
        best = cands[0]
        best_val = -math.inf
        for a in cands:
            v = draw(counts[a], sums[a], rng)
            if v > best_val:
                best_val = v
                best = a
        return best


@dataclass(frozen=True)
class PolicySpec:
    """Config-level policy selection with hyperparameters."""

    name: str
    gamma: int | None = None
    c: float = 0.0
    label: str = ""

    def display(self):
        return self.label or self.name


def make_policy(spec, family, graph, rng=None):
    """Instantiate the policy a PolicySpec names."""
    key = spec.name.lower()
    if key == "imed-ub":
        return ImedUB(family, graph)
    if key == "imed":
        return Imed(family, graph.arm_count)
    if key == "osub":
        return Osub(family, graph, gamma=spec.gamma, c=spec.c)
    if key == "uts":
        return Uts(family, graph, rng)
    raise ParameterError(f"unknown policy {spec.name!r}")
