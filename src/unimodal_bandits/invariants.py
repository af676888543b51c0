"""Per-step checks of the inequalities the structured minimum-index rule
guarantees by construction.

For every decision the rule makes after initialization, with N the pre-pull
counts, hat-mu the pre-pull empirical means, L the leader, mu* = hat-mu_L
its mean and a+ the chosen arm:

  LB1         log N_{a+} <= N_a KL(hat-mu_a, mu*) + log N_a  for each neighbor a of L
  LB2         N_{a+} <= N_L
  UB          N_{a+} KL(hat-mu_{a+}, mu*) <= log t
  MEMBERSHIP  a+ in {L} | neighbors(L)

Each check reads the pull statistics themselves, not a policy's report of
them, rebuilt from a run's (arm, reward) log. runner.check_log rebuilds
them for many steps at once and clears in bulk every step on which numpy
certifies that all four checks hold; it hands only the other steps to
check_step, which writes every report. These are deterministic facts
about the algorithm, not probabilistic statements: any violation signals
an implementation bug or a doctored history. Real-valued comparisons use
an absolute tolerance of 1e-9 to absorb floating-point noise in index
recomputation.
"""

import math
from dataclasses import dataclass

from .env import leader
from .policies import transport_kl

TOLERANCE = 1e-9


@dataclass(frozen=True)
class ViolationReport:
    run_id: str
    t: int
    check: str
    lhs: float
    rhs: float

    def line(self):
        return (
            f"VIOLATION run={self.run_id} t={self.t} check={self.check} "
            f"lhs={self.lhs!r} rhs={self.rhs!r}"
        )


def check_step(stats, chosen, graph, family, run_id=""):
    """All violations of choosing arm `chosen` on the pre-pull PullStats
    `stats`; empty list when every check holds.

    The leader is env.leader's, an empirically best arm with the fewest
    pulls, so mu*, the leader's mean, is the maximal empirical mean.
    """
    lead = leader(stats)
    counts = stats.counts
    means = stats.means
    t = stats.t
    mu_star = means[lead]
    neigh = graph.neighbors(lead)
    out = []
    n_chosen = counts[chosen]
    n_leader = counts[lead]
    log_n_chosen = math.log(n_chosen)

    if chosen != lead and chosen not in neigh:
        out.append(ViolationReport(run_id, t, "MEMBERSHIP", float(chosen), float(lead)))

    for a in neigh:
        rhs = counts[a] * transport_kl(family, means[a], mu_star) + math.log(counts[a])
        if log_n_chosen > rhs + TOLERANCE:
            out.append(ViolationReport(run_id, t, "LB1", log_n_chosen, rhs))
            break

    if n_chosen > n_leader:
        out.append(ViolationReport(run_id, t, "LB2", float(n_chosen), float(n_leader)))

    ub_lhs = n_chosen * transport_kl(family, means[chosen], mu_star)
    ub_rhs = math.log(t)
    if ub_lhs > ub_rhs + TOLERANCE:
        out.append(ViolationReport(run_id, t, "UB", ub_lhs, ub_rhs))

    return out
