"""The audit of pull logs against the inequalities the structured
minimum-index rule guarantees by construction.

For every decision the rule makes after initialization, with N the pre-pull
counts, hat-mu the pre-pull empirical means, L the leader, mu* = hat-mu_L
its mean and a+ the chosen arm:

  LB1         log N_{a+} <= N_a KL(hat-mu_a, mu*) + log N_a  for each neighbor a of L
  LB2         N_{a+} <= N_L
  UB          N_{a+} KL(hat-mu_{a+}, mu*) <= log t
  MEMBERSHIP  a+ in {L} | neighbors(L)

Each check reads the pull statistics themselves, not a policy's report of
them, rebuilt from a run's (arm, reward) log. check_log rebuilds them for
many steps at once and clears in bulk every step on which numpy certifies
that all four checks hold; it hands only the other steps to check_step,
which writes every report. audit decides which rule's logs are audited
and tallies what check_log finds. These are deterministic facts about the
algorithm, not probabilistic statements: any violation signals an
implementation bug or a doctored history. Real-valued comparisons use an
absolute tolerance of 1e-9 to absorb floating-point noise in index
recomputation. The audit reads expfam and env, never the rules it audits.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .env import PullStats, leader
from .errors import ParameterError
from .expfam import guard_band

TOLERANCE = 1e-9
_VIOLATION_SAMPLE_CAP = 20
# steps check_log audits together: its working memory is a few arrays of
# _AUDIT_BLOCK x arm_count
_AUDIT_BLOCK = 1024
# the one rule whose pull logs run --check-invariants and check audit
AUDITED_RULE = "imed-ub"


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


def transport_kl(family, mu_hat, target):
    """Divergence cost of lifting mu_hat up to target; zero at or above it."""
    if mu_hat >= target:
        return 0.0
    return family.kl(mu_hat, target)


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


def _cleared(lhs, rhs, n):
    """Where check_step's test lhs > rhs + TOLERANCE certainly fails, for
    sides computed with numpy's log and log1p in place of math's; one side
    is n times a divergence, n a pull count. The margin must exceed
    guard_band; an infinite side is the same inf in both, and a NaN margin
    never clears.
    """
    margin = rhs + TOLERANCE - lhs
    return (margin > guard_band(lhs, rhs, n)) | (margin == math.inf)


def check_log(actions, rewards, graph, family, run_id=""):
    """All invariant violations in one run's pull log, in pull order; the
    log's arms and rewards are two arrays, as simulate_policy_run returns
    them.

    Every pull after the initialization (the first arm_count pulls) is
    audited on the statistics before it, as check_step defines. The log
    is read in blocks of _AUDIT_BLOCK pulls, carrying each arm's count
    and sum from block to block, so the working memory is a few arrays
    of _AUDIT_BLOCK x arm_count. A block's pre-pull counts, means and
    leaders are rebuilt at once, exactly: each arm's sums are accumulated
    left to right from the carried sum, as PullStats.record adds them.
    MEMBERSHIP and LB2 are then exact integer tests, and LB1 and UB are
    evaluated with Family.kl_many. A step on which all four hold, LB1 and
    UB by more than a guard band (_cleared), has no violation; every
    other step goes to check_step on a PullStats rebuilt from its row, so
    check_step writes every report. A reward outside expfam's declared
    domain, which read_trace refuses too, raises ParameterError: the
    sums and means the audit compares rest on it.
    """
    k = graph.arm_count
    total = len(actions)
    out = []
    if total <= k:
        return out
    # an arm left unpulled by the initialization makes check_step raise:
    # then only the initialization clears in bulk
    bulk_until = total if np.bincount(actions[:k], minlength=k).all() else k
    # neighborhoods padded to one width; a padding entry always clears
    width = graph.max_degree()
    padded = np.array(
        [[*graph.neighbors(a), *[a] * width][:width] for a in range(k)], dtype=np.intp
    )
    padding = np.arange(width) >= np.array([[len(graph.neighbors(a))] for a in range(k)])
    member = np.zeros((k, k), dtype=bool)
    for a in range(k):
        member[a, list(graph.candidates(a))] = True
    counts = np.zeros(k, dtype=np.intp)
    sums = np.zeros(k)

    for lo in range(0, total, _AUDIT_BLOCK):
        hi = min(lo + _AUDIT_BLOCK, total)
        t = np.arange(lo, hi)
        rows = np.arange(hi - lo)
        chosen = actions[lo:hi]
        inside = family.in_reward_domain(rewards[lo:hi])
        if not inside.all():
            bad = lo + int(inside.argmin())
            raise ParameterError(
                f"pull {bad}: {family.name} reward {float(rewards[bad])!r} outside the "
                f"declared domain, 0 or in [{family.reward_lo}, {family.mean_hi}]"
            )
        # arm a's sums after each of its pulls in the block follow its
        # carried sum in run[seg[a]:seg[a + 1]]; its pull at sorted
        # position p sits at slot p + a + 1
        n_block = np.bincount(chosen, minlength=k)
        seg = np.zeros(k + 1, dtype=np.intp)
        np.cumsum(n_block + 1, out=seg[1:])
        order = np.argsort(chosen, kind="stable")
        slot = np.empty(hi - lo, dtype=np.intp)
        slot[order] = rows + chosen[order] + 1
        run = np.empty(hi - lo + k)
        run[seg[:k]] = sums
        run[slot] = rewards[lo:hi]
        # pre-pull counts and means: c[r] and m[r] are PullStats' lists at step lo + r
        pulled = np.zeros((hi - lo, k), dtype=np.intp)
        pulled[rows, chosen] = 1
        local = np.cumsum(pulled, axis=0) - pulled
        c = counts + local
        for a in np.flatnonzero(n_block).tolist():
            np.add.accumulate(run[seg[a]:seg[a + 1]], out=run[seg[a]:seg[a + 1]])
        pre = run[seg[:k] + local]
        m = pre / np.maximum(c, 1)
        counts = c[-1] + pulled[-1]
        sums = run[seg[1:] - 1]

        mu_star = m.max(axis=1)
        lead = np.where(m == mu_star[:, None], c, total).argmin(axis=1)
        n_chosen = c[rows, chosen]
        nb = padded[lead]
        n_nb = c[rows[:, None], nb]
        with np.errstate(all="ignore"):
            lb1 = n_nb * family.kl_many(m[rows[:, None], nb], mu_star[:, None]) + np.log(n_nb)
            ub = n_chosen * family.kl_many(m[rows, chosen], mu_star)
            # the initialization is not audited
            clear = (t < k) | (
                (t < bulk_until)
                & member[lead, chosen]
                & (n_chosen <= c[rows, lead])
                & (_cleared(np.log(n_chosen)[:, None], lb1, n_nb) | padding[lead]).all(axis=1)
                & _cleared(ub, np.log(t), n_chosen)
            )
        for r in np.flatnonzero(~clear).tolist():
            stats = PullStats(k)
            stats.counts = c[r].tolist()
            stats.sums = pre[r].tolist()
            stats.means = m[r].tolist()
            stats.t = lo + r
            out.extend(check_step(stats, int(chosen[r]), graph, family, run_id))
    return out


@dataclass
class ViolationTally:
    """Invariant violations of many runs, added in (policy, run) order:
    the count per check id and the first _VIOLATION_SAMPLE_CAP reports."""

    per_check: Counter = field(default_factory=Counter)
    first: list = field(default_factory=list)

    @property
    def count(self):
        return sum(self.per_check.values())

    def add(self, other):
        """Count another tally's violations after this one's."""
        self.per_check.update(other.per_check)
        self.first.extend(other.first[: _VIOLATION_SAMPLE_CAP - len(self.first)])


def audit(rule, actions, rewards, graph, family, run_id):
    """(ViolationTally, pulls checked) of one run's pull log under rule.
    The per-step inequalities are guarantees of the structured
    minimum-index rule only; a baseline's log is not audited and checks
    no pull."""
    if rule != AUDITED_RULE:
        return ViolationTally(), 0
    found = check_log(actions, rewards, graph, family, run_id)
    tally = ViolationTally(Counter(v.check for v in found), found[:_VIOLATION_SAMPLE_CAP])
    return tally, len(actions) - graph.arm_count
