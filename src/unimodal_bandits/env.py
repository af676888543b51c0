"""Simulation environment: true configuration, pull statistics, the leader."""

from .errors import ConfigError, ParameterError, StateError
from .graph import validate_unimodal


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

