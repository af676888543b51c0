"""Simulation environment: true configuration, reward serving, pull statistics."""

import math
import sys

from .errors import ConfigError, ParameterError, StateError
from .graph import validate_unimodal

_BLOCK = 512


class BanditConfig:
    """A bandit instance: reward family, true means, and the arm graph."""

    def __init__(self, family, means, graph):
        means = tuple(float(m) for m in means)
        if len(means) != graph.arm_count:
            raise ConfigError(
                f"means: length {len(means)} != graph arm_count {graph.arm_count}"
            )
        for i, m in enumerate(means):
            try:
                family.require_mean(m)
            except ParameterError as exc:
                raise ConfigError(f"means[{i}]: {exc}") from exc
        report = validate_unimodal(graph, means)
        if not report.ok:
            raise ConfigError(
                f"means: not unimodal on the graph ({report.reason}; arms {list(report.offending)})"
            )
        self.family = family
        self.means = means
        self.graph = graph
        self.optimal_arm = max(range(len(means)), key=means.__getitem__)
        self.optimal_mean = means[self.optimal_arm]
        # the lower-bound constant divides each neighbor's gap by this
        # divergence, so it must not round to 0
        for i in graph.neighbors(self.optimal_arm):
            if means[i] < self.optimal_mean and family.kl(means[i], self.optimal_mean) == 0.0:
                raise ConfigError(
                    f"means[{i}]: {means[i]!r} is below the best mean "
                    f"{self.optimal_mean!r}, but their divergence rounds to 0"
                )
        self.gaps = tuple(self.optimal_mean - m for m in means)

    @property
    def arm_count(self):
        return len(self.means)

    def __repr__(self):
        return (
            f"BanditConfig(family={self.family!r}, means={self.means}, "
            f"graph={self.graph!r})"
        )


class PullStats:
    """Per-arm pull counts, reward sums and empirical means.

    Unpulled arms report an empirical mean of 0 by convention; selection
    rules call require_initialized() so they never actually read it.
    """

    __slots__ = ("arm_count", "counts", "sums", "means", "t")

    def __init__(self, arm_count):
        if arm_count < 1:
            raise ParameterError(f"arm_count must be >= 1, got {arm_count}")
        self.arm_count = arm_count
        self.counts = [0] * arm_count
        self.sums = [0.0] * arm_count
        self.means = [0.0] * arm_count
        self.t = 0

    def record(self, arm, reward):
        n = self.counts[arm] + 1
        s = self.sums[arm] + reward
        self.counts[arm] = n
        self.sums[arm] = s
        self.means[arm] = s / n
        self.t += 1

    def require_initialized(self):
        if self.t < self.arm_count or 0 in self.counts:
            raise StateError("every arm must be pulled once before selection")


def leader(stats):
    """Empirically best arm, preferring fewer pulls, then the lowest index."""
    stats.require_initialized()
    means = stats.means
    best = max(means)
    if means.count(best) == 1:
        return means.index(best)
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


class _ArmStream:
    """Buffered i.i.d. draws for one arm; refills in blocks for speed."""

    __slots__ = ("_family", "_mu", "_rng", "_buf", "_i")

    def __init__(self, family, mu, rng):
        self._family = family
        self._mu = mu
        self._rng = rng
        self._buf = []
        self._i = 0

    def next(self):
        i = self._i
        if i >= len(self._buf):
            self._buf = self._family.sample_many(self._mu, self._rng, _BLOCK).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def peek(self, j):
        """The next j draws, left in the stream. Refills draw the same
        blocks from the same generator as next() would, only earlier."""
        i = self._i
        buf = self._buf
        if i + j > len(buf):
            buf = buf[i:]
            while len(buf) < j:
                buf += self._family.sample_many(self._mu, self._rng, _BLOCK).tolist()
            self._buf = buf
            self._i = i = 0
        return buf[i:i + j]

    def skip(self, k):
        """Consume k draws that peek returned."""
        self._i += k


class BanditEnv:
    """Serves rewards for one run and tracks its pull statistics.

    Each arm owns one of the supplied random generators, so the reward
    sequence an arm produces depends only on its own stream, not on the
    policy's interleaving.
    """

    def __init__(self, config, rngs):
        if len(rngs) != config.arm_count:
            raise ParameterError(
                f"need {config.arm_count} generators, got {len(rngs)}"
            )
        self.stats = PullStats(config.arm_count)
        # the largest finite mean of the family's closed domain
        self._top = min(config.family.mean_hi, sys.float_info.max)
        self._streams = [
            _ArmStream(config.family, mu, rng) for mu, rng in zip(config.means, rngs)
        ]

    def pull(self, arm):
        """Draw one reward from arm and record it in the statistics."""
        if not 0 <= arm < self.stats.arm_count:
            raise ParameterError(f"arm {arm} outside [0, {self.stats.arm_count})")
        x = self._streams[arm].next()
        self.stats.record(arm, x)
        return x

    def pull_leader_run(self, certify, j):
        """Pull the strict leader up to j times in a row, as far as certify
        vouches; returns the leader and the rewards served, or (None, [])
        when no arm's empirical mean is a strict maximum.

        Decision i of the run sees the leader's mean m_i after i more
        pulls, its next rewards added to its sum one at a time, as record
        adds them. The run stops before the first m_i that is not above
        every other mean or not a finite mean of the family's closed
        domain. certify(stats, lead, k, m_min), with m_min the least of
        m_0, ..., m_(k-1), then vouches that the rule picks the leader on
        all k decisions; if it does not, nothing is pulled. The leader's
        count, sum and mean end as k record calls would leave them.
        """
        stats = self.stats
        means = stats.means
        best = max(means)
        lead = means.index(best)
        rival = max(means[:lead] + means[lead + 1:], default=-math.inf)
        if not rival < best:
            return None, []
        stream = self._streams[lead]
        ahead = stream.peek(j)
        n = stats.counts[lead]
        s = stats.sums[lead]
        top = self._top
        m = m_min = best
        k = 0
        for x in ahead:
            if not rival < m <= top:
                break
            if m < m_min:
                m_min = m
            s += x
            k += 1
            m = s / (n + k)
        if k == 0 or not certify(stats, lead, k, m_min):
            return lead, []
        stream.skip(k)
        stats.counts[lead] = n + k
        stats.sums[lead] = s
        means[lead] = m
        stats.t += k
        return lead, ahead[:k]
