"""Instance-dependent constants, as theory.json reports them: the
asymptotic lower-bound constant and the minimum half-gap between means."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TheoryReport:
    """Computable constants of one bandit instance.

    c_nu sums gap/KL over the strictly suboptimal neighbors of the optimal
    arm only; arms further away do not contribute.
    """

    c_nu: float
    epsilon_nu: float
    optimal_arm: int
    optimal_mean: float
    neighbors: tuple
    gaps: tuple
    neighbor_kl: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "c_nu": self.c_nu,
            "epsilon_nu": self.epsilon_nu,
            "optimal_arm": self.optimal_arm,
            "optimal_mean": self.optimal_mean,
            "neighbors": list(self.neighbors),
            "gaps": list(self.gaps),
            "neighbor_kl": {str(a): v for a, v in sorted(self.neighbor_kl.items())},
        }


def lower_bound_constant(cfg):
    """Evaluate sum over the optimal arm's suboptimal neighbors of
    gap / KL(neighbor mean, optimal mean), with the rest of the report."""
    a_star = cfg.optimal_arm
    mu_star = cfg.optimal_mean
    neigh = cfg.graph.neighbors(a_star)
    kl = {}
    c = 0.0
    for a in neigh:
        gap = cfg.gaps[a]
        if gap <= 0.0:
            continue
        div = cfg.family.kl(cfg.means[a], mu_star)
        kl[a] = div
        c += gap / div
    return TheoryReport(
        c_nu=c,
        epsilon_nu=epsilon_nu(cfg),
        optimal_arm=a_star,
        optimal_mean=mu_star,
        neighbors=neigh,
        gaps=cfg.gaps,
        neighbor_kl=kl,
    )


def epsilon_nu(cfg):
    """Half the minimum pairwise absolute difference of the true means.

    Zero when two arms share a mean.
    """
    means = cfg.means
    n = len(means)
    best = float("inf")
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(means[i] - means[j])
            if d < best:
                best = d
    return best / 2.0 if n > 1 else 0.0

