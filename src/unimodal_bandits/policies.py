"""Decision rules: IMED-UB and the IMED, OSUB, UTS baselines.

All policies read shared PullStats and return the arm to pull next from
select(). Call it once per time step: OSUB keeps leader-round counters and
UTS draws from its own stream on every call.

IMED-UB and IMED cache per-arm index floors and skip the arms whose floor
proves they cannot win. A floor is keyed on its arm's count and mean, so
it holds for any sequence of PullStats, in any order. Their certify()
proves from the same floors that a run of decisions all pick the leader,
so a simulation can apply the run in bulk.

OSUB solves the KL upper inverse exactly for the leader only. Every other
candidate is skipped when one divergence proves its bound below the best
one so far. Its certify() solves the leader's inverse once, at the run's
lowest mean and budget, less a slack it proves, and checks each other
candidate's bound below that with the same skip test; it then counts the
run's leader rounds, as the run's select calls would.
"""

import math
from dataclasses import dataclass

from .env import leader
from .errors import ParameterError
from .expfam import BISECT_TOL, C_MAX, Family, guard_band


def _argmax_lowest(stats):
    """Arm of maximal empirical mean, lowest index on ties."""
    means = stats.means
    return means.index(max(means))


# leader_floor takes LEADER_SLACK off the leader's KL upper inverse, and
# proves no floor for an inverse of _LEADER_BOUND_MAX or more in size,
# where an ulp exceeds 2^-37 (Osub.certify proves the slack)
LEADER_SLACK = 2.0 * BISECT_TOL
_LEADER_BOUND_MAX = 2.0**16

# an index floor is taken at mu* - _FLOOR_SLACK (mu* - mean), a little below
# the best mean, so that it still holds after the best mean drops a little
_FLOOR_SLACK = 0.002


class _IndexRule:
    """The argmin both minimum-index rules share, with per-arm index floors.

    Per arm the rule keeps the (count, mean) key of an exact evaluation, a
    point ref in [mean, mu*] and the floor log n + n KL(mean, ref), less its
    rounding band (expfam.guard_band). KL(mean, .) does not decrease above
    the mean, so while the key matches and mu* >= ref the arm's index is at
    least the floor.
    """

    def __init__(self, family, cands):
        # cands[a]: the candidates when arm a leads
        arm_count = len(cands)
        self.family = family
        self._cands = cands
        self._key_n = [0] * arm_count
        self._key_m = [0.0] * arm_count
        self._ref = [0.0] * arm_count
        self._cut = [math.nan] * arm_count
        # the candidate that refused certify's last call
        self._refuser = 0

    def _store_floor(self, a, n, x, ref):
        """Store and return the cut of arm a's floor at ref, for the count n
        and the mean x <= ref it is keyed on."""
        floor = math.log(n) + n * self.family.kl(x, ref)
        self._key_n[a] = n
        self._key_m[a] = x
        self._ref[a] = ref
        # for any log count below the floor, the band of (floor, log
        # count) is at most this one
        cut = floor - guard_band(floor, floor, n)
        self._cut[a] = cut
        return cut

    def _index_argmin(self, stats, cands, mu_star, n_lead):
        """Arm of minimal index n KL(mean, mu_star) + log n among cands,
        lowest index on ties. The leader, of count n_lead, is among them,
        so the minimum is at most log n_lead: an arm whose floor clears that
        is skipped, and every other arm is evaluated exactly.
        """
        counts = stats.counts
        means = stats.means
        key_n = self._key_n
        key_m = self._key_m
        refs = self._ref
        cuts = self._cut
        kl = self.family.kl
        log = math.log
        log_lead = log(n_lead)
        best = cands[0]
        best_val = math.inf
        for a in cands:
            n = counts[a]
            x = means[a]
            if cuts[a] > log_lead and mu_star >= refs[a] and key_n[a] == n and key_m[a] == x:
                continue
            v = log(n)
            if x < mu_star:
                v += n * kl(x, mu_star)
                if v > log_lead:
                    # a ref rounded below the mean would overstate the floor
                    self._store_floor(a, n, x, max(x, mu_star - _FLOOR_SLACK * (mu_star - x)))
            if v < best_val:
                best_val = v
                best = a
        return best

    def certify(self, stats, lead, k, m_min):
        """Whether the rule picks lead on each of the next k decisions,
        given that lead keeps a strict maximum of the empirical means
        throughout and that its mean is at least m_min on each of them.

        Proof. On decision i, i < k, lead has count n_L + i and mean
        mu* = m_i >= m_min, and no other arm reaches mu*. So lead is the
        leader, whatever the tie rule, and Imed's count of a best arm is
        lead's. lead's index is log(n_L + i) <= log(n_L + k - 1). Every
        other candidate a has mean x_a < m_min, and KL(x_a, .) does not
        decrease above x_a, so its index log n_a + n_a KL(x_a, mu*) is at
        least its floor at m_min. The check below asks each floor's cut,
        the floor less its rounding band, to clear log(n_L + k - 1), the
        skip test of _index_argmin with this log count: the band covers
        kl evaluated at m_min instead of at mu*, and the ulp by which log
        may fail to rise with the count. So a's index, as _index_argmin
        computes it, is above lead's on every decision: the argmin is
        lead alone, and the rule picks it. A cached floor serves when its
        key matches and its ref is at most m_min; every other floor is
        evaluated at m_min, one divergence, and stored.

        The candidate that refused the last call is tried first if it is
        one of lead's: a refusal usually repeats at the same arm.
        """
        counts = stats.counts
        means = stats.means
        key_n = self._key_n
        key_m = self._key_m
        refs = self._ref
        cuts = self._cut
        log_last = math.log(counts[lead] + k - 1)
        cands = self._cands[lead]
        if self._refuser in cands:
            # a floor it passes is stored, and serves its second visit
            cands = (self._refuser,) + cands
        for a in cands:
            if a == lead:
                continue
            n = counts[a]
            x = means[a]
            if cuts[a] > log_last and m_min >= refs[a] and key_n[a] == n and key_m[a] == x:
                continue
            if not self._store_floor(a, n, x, m_min) > log_last:
                self._refuser = a
                return False
        return True


class ImedUB(_IndexRule):
    """Minimum-index rule restricted to the leader and its graph neighbors.

    The leader is an empirically best arm with the fewest pulls (lowest
    index on remaining ties); each step pulls the index-minimizing arm
    among the leader and its neighborhood.
    """

    def __init__(self, family, graph):
        super().__init__(family, tuple(graph.candidates(a) for a in range(graph.arm_count)))

    def select(self, stats):
        lead = leader(stats)
        return self._index_argmin(
            stats, self._cands[lead], stats.means[lead], stats.counts[lead]
        )


class Imed(_IndexRule):
    """Unstructured minimum-index rule over all arms."""

    def __init__(self, family, arm_count):
        super().__init__(family, (tuple(range(arm_count)),) * arm_count)

    def select(self, stats):
        stats.require_initialized()
        means = stats.means
        mu_star = max(means)
        lead = means.index(mu_star)
        return self._index_argmin(stats, self._cands[lead], mu_star, stats.counts[lead])


class Osub:
    """KL upper confidence bounds over the leader's neighborhood with a
    leader-round exploitation schedule.

    The leader is the arm of maximal empirical mean (lowest index on ties)
    and l counts the rounds it has led so far. Every (gamma+1)-th leader
    round the leader itself is pulled; otherwise the eligible arm with the
    largest KL upper inverse at budget (log l + c*loglog max(l, e))/pulls
    is pulled, largest value winning and ties going to the lowest index.

    Only the winner is needed, not its bound. select solves the leader's
    inverse v first and skips a candidate of mean m < v and budget b
    when d = kl(m, v) > b + guard_band(d, b, 1). By kl_upper_inverse's
    contract the candidate's bound r is m, or has kl(m, r) <= b. KL(m, .)
    does not decrease above m, so r < v strictly: a skipped arm is never a
    maximum, and an exact tie is never skipped. The band covers the
    rounding of kl at r and at v: kl sums at most two terms of size at
    most 1 + kl (Bernoulli: m log(q/m) <= q - m <= 1; Exponential:
    (q - m)/q < 1), each off by a few eps of its size, so the two
    evaluations err by less than about 16 eps (1 + b + d), a quarter of
    the band. An Exponential d that overflows (expfam's module docstring)
    is inf, whose band is inf too: that arm is solved exactly.
    """

    def __init__(self, family, graph, gamma=None, c=0.0):
        if gamma is None:
            gamma = graph.max_degree()
        if int(gamma) != gamma or gamma < 0:
            raise ParameterError(f"gamma must be a nonnegative integer, got {gamma!r}")
        require_c(c)
        self.family = family
        self.gamma = int(gamma)
        self.c = float(c)
        self._cands = tuple(graph.candidates(a) for a in range(graph.arm_count))
        self.leader_rounds = [0] * graph.arm_count
        # the Newton solver's start gives certify its cheap pre-test
        self._newton = type(family).kl_upper_inverse is Family.kl_upper_inverse

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
        family = self.family
        inverse = family.kl_upper_inverse
        kl = family.kl
        counts = stats.counts
        means = stats.means
        best = lead
        best_val = inverse(means[lead], bonus / counts[lead])
        for a in self._cands[lead]:
            if a == lead:
                continue
            x = means[a]
            b = bonus / counts[a]
            if x < best_val:
                d = kl(x, best_val)
                if d > b + guard_band(d, b, 1):
                    continue
            v = inverse(x, b)
            if v > best_val or (v == best_val and a < best):
                best_val = v
                best = a
        return best

    def certify(self, stats, lead, k, m_min):
        """Whether select picks lead on each of the next k decisions,
        given that lead keeps a strict maximum of the empirical means
        throughout and that its mean is at least m_min on each of them.
        If so, it adds k to leader_rounds[lead], as those k select calls
        would; otherwise it changes nothing.

        The run. Decision i < k sees lead with count n_L + i and a mean
        m_i >= m_min that no other arm reaches, so _argmax_lowest returns
        lead and the call raises lead's rounds from l + i to l + i + 1,
        l = leader_rounds[lead] now, and no other arm's. With gamma = 0
        every round is forced and pulls lead. Otherwise lead's bound is
        r_i = kl_upper_inverse(m_i, B_i), B_i = bonus(l + i + 1)/(n_L + i)
        >= B = bonus(l + 1)/(n_L + k - 1), and a candidate a keeps its
        count n_a and its mean x_a < m_min, at a budget of at most b_a =
        bonus(l + k)/n_a. With w = kl_upper_inverse(m_min, B) and v = w -
        LEADER_SLACK (leader_floor), certify asks each candidate for x_a <
        v and d = kl(x_a, v) > b_a + guard_band(d, b_a, 1): select's skip
        test at v (class docstring), so a's bound is below v on every
        decision, whether select skips a or solves it. Then r_i >= v
        makes lead's bound the strict maximum, and select picks lead.

        The slack, LEADER_SLACK = 2 TOL with TOL = BISECT_TOL, gives r_i
        >= v. K is the exact divergence, and e, a few eps (1 + B), bounds
        kl's rounding (class docstring) and the budgets'; guard_band(B, B,
        1) exceeds 2e.
        (1) Bracket. kl_upper_inverse returns the low end r_i of a bracket
        whose top h_i is at most r_i + TOL. Either kl(m_i, h_i) > B_i as
        kl computes it, so K(m_i, h_i) > B_i - e, or h_i is the bracket's
        first top: 1 for Bernoulli, and for Exponential a top that rises
        with the mean and the budget (log, exp and rounding are monotone),
        so h_i is at least w's top, at least w. The solver narrows the
        bracket until it is TOL wide; below 2^16 an ulp is under TOL, so
        it cannot stall wider, and tests/test_expfam.py finds it closed
        within 49 of its BISECT_MAX_ITER steps on sampled inputs.
        Gaussian's closed form steps down an ulp while kl exceeds B_i, so
        its h_i is r_i's next float: kl exceeded B_i there, or the
        unstepped form rounded less than an ulp low. Either way K(m_i,
        h_i) > B_i - e.
        (2) Monotonicity. h_i > m_i >= m_min, and K(m, q) does not increase
        in m below q, so K(m_min, h_i) > B - 2e.
        (3) Flatness. Let p = w - TOL/2. Unless p <= m_min, leader_floor
        asks kl(m_min, p) < B - guard_band(B, B, 1), so K(m_min, p) <
        B - 2e, and K(m_min, .) increases above m_min: p < h_i. Where a
        tiny budget leaves kl's rounding above its rise over TOL/2, the
        check fails and certify refuses.
        (4) Every bound is at least its mean, so r_i >= m_min, which is
        above v if p <= m_min. Otherwise r_i >= h_i - max(TOL, ulp(r_i))
        and h_i > p; where r_i < w, leader_floor's |w| < 2^16 puts r_i
        within about 2^16 of 0, so its ulp is under TOL and r_i > w -
        1.5 TOL. v is w - 2 TOL rounded by half an ulp of w, at most
        2^-38, so it lies below that.

        Before the solve, a cheap point u, _inverse_start plus one Newton
        step, refuses where a candidate already fails against it (not for
        Gaussian, whose inverse is a closed form). u is usually at or
        above w, so such a candidate fails against v too; a refusal is
        always safe, so u needs no proof.
        """
        rounds = self.leader_rounds[lead]
        if self.gamma == 0:
            # every round is forced
            self.leader_rounds[lead] = rounds + k
            return True
        counts = stats.counts
        family = self.family
        budget = self._bonus(rounds + 1) / (counts[lead] + k - 1)
        bonus = self._bonus(rounds + k)
        if self._newton:
            q = family._inverse_start(m_min, budget)
            if m_min < q < family.mean_hi:
                f, s = family._kl_newton(m_min, q)
                u = q - (f - budget) / s
                if m_min < u < family.mean_hi and not self._below(stats, lead, u, bonus):
                    return False
        v = leader_floor(family, m_min, budget)
        if v is None or not self._below(stats, lead, v, bonus):
            return False
        self.leader_rounds[lead] = rounds + k
        return True

    def _below(self, stats, lead, v, bonus):
        """Whether select's skip test, at v and the budget bonus / count,
        proves every candidate but lead below v."""
        counts = stats.counts
        means = stats.means
        kl = self.family.kl
        for a in self._cands[lead]:
            if a == lead:
                continue
            x = means[a]
            if not x < v:
                return False
            b = bonus / counts[a]
            d = kl(x, v)
            if not d > b + guard_band(d, b, 1):
                return False
        return True


def leader_floor(family, mean, budget):
    """kl_upper_inverse(mean, budget) - LEADER_SLACK, below the inverse at
    any mean and budget at least these (Osub.certify proves it), or None
    where that is not proven: at an inverse of size _LEADER_BOUND_MAX or
    more, or where kl is too flat near the root to place it within
    BISECT_TOL / 2."""
    w = family.kl_upper_inverse(mean, budget)
    if not -_LEADER_BOUND_MAX < w < _LEADER_BOUND_MAX:
        return None
    p = w - 0.5 * BISECT_TOL
    if mean < p and not family.kl(mean, p) < budget - guard_band(budget, budget, 1):
        return None
    return w - LEADER_SLACK


def require_c(c):
    """Raise ParameterError unless c, OSUB's loglog weight, lies in [0,
    C_MAX], where kl_upper_inverse takes every budget Osub asks for."""
    if not 0.0 <= c <= C_MAX:
        raise ParameterError(f"c must lie in [0, {C_MAX}], got {c!r}")


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
