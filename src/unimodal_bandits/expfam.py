"""One-dimensional exponential-family reward models identified by their mean.

Three families are supported: Bernoulli, Gaussian with a known shared
variance, and Exponential. Each provides exact Kullback-Leibler divergence
between two members (parameterized by mean), reward sampling, and the KL
upper inverse used by confidence-bound style baselines.

True means live in a domain; empirical means can hit its boundary (a
Bernoulli arm that has only produced zeros, say), so divergence and the
derived helpers accept the closed domain by continuous extension.

The declared numeric domain. Input is checked against it where it enters:
true means and variances (BanditConfig, Gaussian, require_mean), OSUB's c
(policies.require_c), KL-inverse budgets and their means
(kl_upper_inverse, require_mean_closure) and the rewards of a pull log
(Family.in_reward_domain, which read_trace and check_log apply).
Inside it every sum, difference, square and ratio the package computes
stays finite:

- True means: Bernoulli in (0, 1), Gaussian |mu| <= MEAN_MAX = 1e100,
  Exponential in [MEAN_MIN, MEAN_MAX] = [1e-100, 1e100]. A Gaussian
  variance lies in [VARIANCE_MIN, VARIANCE_MAX] = [1e-100, 1e100].
- Rewards: numpy draws no standard normal beyond about 12.3 and no
  standard exponential beyond about 44.4, and a positive standard
  exponential is a 53-bit integer times a ziggurat layer width over 2^53,
  at least about 1e-17. So every reward x has |x| <= 1e100 + 12.3e50 or
  x <= 44.4e100, below REWARD_MAX = 1e102, and a Bernoulli or Exponential
  one is 0 or at least REWARD_MIN = 1e-150: it is 0 or in [reward_lo,
  mean_hi].
- A run pulls fewer than PULLS_MAX = 2^63 times, so a reward sum is below
  2^63 1e102 < 1e121 in size, and an empirical mean is 0 or in [mean_lo,
  mean_hi], the closed domain: a positive Bernoulli or Exponential one
  is at least REWARD_MIN / 2^63 > 1e-170.
- Over the closed domain a Gaussian difference d has |d| <= 2e102, so
  d^2 <= 4e204 and d^2 / (2 sigma^2) <= 2e304. The Exponential ratios d/mu
  and d/mu' are at most 1e102 / 1e-170 = 1e272 in size, the Bernoulli
  ratio mu/mu' at most 1e170, and (mu' - mu) / (1 - mu') at most 2^53.
- OSUB's c is at most C_MAX = 100, so its budget (log l + c log log l) / n
  for l, n < 2^63 is below 421.4, and kl_upper_inverse refuses budgets
  above BUDGET_MAX = 422. Then 2 sigma^2 B <= 8.5e102 in the Gaussian
  closed form, and Exponential's bracket top mu e^(B + 1) <= 1e102 e^423
  < 6e285.

Infinite results remain where they are the value: kl at a boundary mean
(Bernoulli 0 or 1, Exponential 0), and a product n kl past the float
range. Exponential kl(m, v) at an OSUB bound v more than the float range
above m is inf too; its true value exceeds 708 > B, and Osub.select then
solves that arm exactly, so its choice is the one the exact value gives.
"""

import math

import numpy as np

from .errors import ParameterError

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
# relative guard of guard_band, about 64 eps
_GUARD = 1.5e-14
# the declared numeric domain of the module docstring
MEAN_MIN = 1e-100
MEAN_MAX = 1e100
VARIANCE_MIN = 1e-100
VARIANCE_MAX = 1e100
REWARD_MIN = 1e-150
REWARD_MAX = 1e102
PULLS_MAX = 2**63
C_MAX = 100.0
# OSUB's largest budget log t + C_MAX log log t over t < PULLS_MAX, rounded up
BUDGET_MAX = float(math.ceil(math.log(PULLS_MAX) + C_MAX * math.log(math.log(PULLS_MAX))))


def guard_band(lhs, rhs, n):
    """Rounding band of a comparison of lhs with rhs where one side is n
    times a divergence plus logs, n a pull count: a margin wider than the
    band is not an artifact of rounding. Takes floats or numpy arrays.

    Two evaluations of a divergence, with math's or numpy's log and log1p
    (which differ by an ulp at most, measured on 3e6 random inputs each
    with numpy 2.4 on x86-64) or at two nearby second means, differ by a
    few ulps, say 4, of the log terms KL sums. With the means close those
    terms are at most about 2 sqrt(2 KL) in size, and n KL <= s = |lhs| +
    |rhs| in a comparison with a log count, so the sides differ by less
    than 8 eps sqrt(2 n s) <= 6 eps sqrt(n) (1 + s). The band,
    _GUARD sqrt(n) (1 + s), is ten times that.
    """
    return _GUARD * n**0.5 * (1.0 + abs(lhs) + abs(rhs))


class Family:
    """Base reward family. Subclasses fix the law and its part of the
    declared domain (module docstring): true means in [true_lo, true_hi];
    empirical means, the closed domain, 0 or in [mean_lo, mean_hi];
    rewards 0 or in [reward_lo, mean_hi]."""

    name = ""

    def require_mean(self, mu):
        """Raise ParameterError unless mu is a true mean of the domain."""
        if not (self.true_lo <= mu <= self.true_hi):
            raise ParameterError(
                f"{self.name} mean {mu!r} outside [{self.true_lo}, {self.true_hi}]"
            )

    def require_mean_closure(self, mu):
        """Raise ParameterError unless mu is an empirical mean of the
        closed domain."""
        if not (mu == 0.0 or self.mean_lo <= mu <= self.mean_hi):
            raise ParameterError(
                f"{self.name} mean {mu!r} outside the closed domain: 0 or in "
                f"[{self.mean_lo}, {self.mean_hi}]"
            )

    def in_reward_domain(self, x):
        """Whether x, a number or elementwise a numpy array, is a reward of
        the declared domain: 0 or in [reward_lo, mean_hi]. NaN is not."""
        return (x == 0.0) | ((self.reward_lo <= x) & (x <= self.mean_hi))

    def kl(self, mu, mu_prime):
        """KL divergence from the member with mean mu to the one with mu_prime.

        Zero iff the means are equal; nondecreasing in mu_prime above mu.
        Boundary means are handled by continuous extension and may give inf.
        """
        raise NotImplementedError

    def kl_many(self, mu, mu_prime):
        """kl elementwise over numpy arrays of means (broadcast together),
        with kl's inf cases and its clamp of rounding below 0 to 0.

        The means must lie in the closed domain; they are not checked.
        numpy's log and log1p may round an ulp away from math's, so values
        can differ from kl's by a few ulps of its log terms.
        """
        raise NotImplementedError

    def sample_many(self, mu, rng, size):
        """size i.i.d. reward draws from the member with mean mu."""
        raise NotImplementedError

    def posterior_mean_sample(self, count, total, rng):
        """One posterior draw of the mean given count pulls summing to total.

        Uses the family's standard conjugate recipe with an uninformative
        prior; consumed by the Thompson-sampling baseline.
        """
        raise NotImplementedError

    def _check_inverse_args(self, mu_hat, budget):
        if not 0.0 <= budget <= BUDGET_MAX:
            raise ParameterError(f"budget must lie in [0, {BUDGET_MAX}], got {budget!r}")
        self.require_mean_closure(mu_hat)

    def _kl_newton(self, mu, q):
        """kl(mu, q) and its slope d kl(mu, q) / dq, for mu < q inside the
        domain; unchecked, as kl_upper_inverse only asks inside its bracket."""
        raise NotImplementedError

    def _inverse_start(self, mu_hat, budget):
        """First Newton iterate of kl_upper_inverse, at or above the root;
        one outside the bracket makes the solver start from its midpoint."""
        raise NotImplementedError

    def _inverse_top(self, mu_hat, budget):
        """Upper end of kl_upper_inverse's bracket, a mean q with
        kl(mu_hat, q) > budget unless q is the top of the domain."""
        return self.mean_hi

    def kl_upper_inverse(self, mu_hat, budget):
        """Largest mean mu' >= mu_hat with kl(mu_hat, mu') <= budget.

        Safeguarded Newton on kl(mu_hat, q) = budget. The bracket [lo, hi]
        keeps kl(lo) <= budget < kl(hi); a Newton step that leaves it
        falls back to bisection, and steps shorter than half the tolerance
        are lengthened to it so that an iterate converging from one side
        closes the bracket from the other. Stops once the bracket is 1e-10
        wide and returns its lower end. The family's _inverse_top ends the
        bracket: Bernoulli's domain top caps the result. budget == 0
        returns mu_hat exactly.

        Contract, for every family: the result r is finite, and mu_hat or
        has kl(mu_hat, r) <= budget as kl computes it. Osub.select's
        certificate rests on it.
        """
        self._check_inverse_args(mu_hat, budget)
        if budget == 0.0 or mu_hat >= self.mean_hi:
            return mu_hat
        hi = self._inverse_top(mu_hat, budget)
        newton = self._kl_newton
        lo = mu_hat
        half = 0.5 * BISECT_TOL
        q = self._inverse_start(mu_hat, budget)
        if not lo < q < hi:
            q = 0.5 * lo + 0.5 * hi
        for _ in range(BISECT_MAX_ITER):
            if hi - lo <= BISECT_TOL:
                break
            f, s = newton(mu_hat, q)
            f -= budget
            if f > 0.0:
                hi = q
            else:
                lo = q
            step = f / s if s > 0.0 else math.inf
            if abs(step) < half:
                step = half if f > 0.0 else -half
            q -= step
            if not lo < q < hi:
                q = 0.5 * lo + 0.5 * hi
        return lo

    def __repr__(self):
        return f"{type(self).__name__}()"


class Bernoulli(Family):
    """Rewards on {0, 1}; the mean is the success probability."""

    name = "bernoulli"
    # a positive mean sums a reward of at least REWARD_MIN over fewer than
    # PULLS_MAX pulls
    mean_lo = REWARD_MIN / PULLS_MAX
    mean_hi = 1.0
    reward_lo = REWARD_MIN
    # the least and greatest floats of (0, 1)
    true_lo, true_hi = 5e-324, 1.0 - 2**-53

    def kl(self, mu, mu_prime):
        if not (0.0 <= mu <= 1.0 and 0.0 <= mu_prime <= 1.0):
            raise ParameterError(f"bernoulli means must lie in [0, 1]: {mu!r}, {mu_prime!r}")
        if mu == mu_prime:
            return 0.0
        if mu_prime <= 0.0 or mu_prime >= 1.0:
            return math.inf
        # log1p keeps the complement term accurate when the means nearly
        # cancel; true divergences below float resolution clamp to 0
        div = 0.0
        if mu > 0.0:
            div += mu * math.log(mu / mu_prime)
        if mu < 1.0:
            div += (1.0 - mu) * math.log1p((mu_prime - mu) / (1.0 - mu_prime))
        return div if div > 0.0 else 0.0

    def kl_many(self, mu, mu_prime):
        # kl's sum term by term; a mu' of 0 or 1 gives inf through a
        # division by 0 inside the log it enters
        with np.errstate(divide="ignore", invalid="ignore"):
            div = np.where(mu > 0.0, mu * np.log(mu / mu_prime), 0.0) + np.where(
                mu < 1.0, (1.0 - mu) * np.log1p((mu_prime - mu) / (1.0 - mu_prime)), 0.0
            )
        div = np.where(div > 0.0, div, 0.0)
        return np.where(mu == mu_prime, 0.0, div)

    def sample_many(self, mu, rng, size):
        self.require_mean(mu)
        return (rng.random(size) < mu).astype(np.float64)

    def posterior_mean_sample(self, count, total, rng):
        return rng.beta(1.0 + total, 1.0 + count - total)

    def _kl_newton(self, mu, q):
        # kl's sum without its domain checks; a + b == b + a, so the value
        # is bit-identical to kl(mu, q)
        div = (1.0 - mu) * math.log1p((q - mu) / (1.0 - q))
        if mu > 0.0:
            div += mu * math.log(mu / q)
        return div, (q - mu) / (q * (1.0 - q))

    def _inverse_start(self, mu_hat, budget):
        # Pinsker: kl >= 2 (mu' - mu)^2, so this cap lies at or above the
        # root, and kl is convex in mu': Newton comes down monotonically
        return mu_hat + math.sqrt(0.5 * budget)


class Gaussian(Family):
    """Normal rewards with a known variance shared by all members."""

    name = "gaussian"
    true_lo, true_hi = -MEAN_MAX, MEAN_MAX
    mean_lo = reward_lo = -REWARD_MAX
    mean_hi = REWARD_MAX

    def __init__(self, variance=1.0):
        if not VARIANCE_MIN <= variance <= VARIANCE_MAX:
            raise ParameterError(
                f"gaussian variance must lie in [{VARIANCE_MIN}, {VARIANCE_MAX}], got {variance!r}"
            )
        self.sigma2 = float(variance)
        self.sigma = math.sqrt(self.sigma2)

    def kl(self, mu, mu_prime):
        if not (math.isfinite(mu) and math.isfinite(mu_prime)):
            raise ParameterError(f"gaussian means must be finite: {mu!r}, {mu_prime!r}")
        d = mu_prime - mu
        return d * d / (2.0 * self.sigma2)

    def kl_many(self, mu, mu_prime):
        d = mu_prime - mu
        return d * d / (2.0 * self.sigma2)

    def sample_many(self, mu, rng, size):
        self.require_mean(mu)
        return rng.normal(mu, self.sigma, size)

    def posterior_mean_sample(self, count, total, rng):
        return rng.normal(total / count, math.sqrt(self.sigma2 / count))

    def kl_upper_inverse(self, mu_hat, budget):
        # closed form; stepping down an ulp at a time absorbs the rounding
        # that can put kl a hair above the budget
        self._check_inverse_args(mu_hat, budget)
        out = mu_hat + math.sqrt(2.0 * self.sigma2 * budget)
        while self.kl(mu_hat, out) > budget:
            out = math.nextafter(out, mu_hat)
        return out

    def __repr__(self):
        return f"Gaussian(variance={self.sigma2!r})"


class Exponential(Family):
    """Exponential rewards on (0, inf); the mean is the scale."""

    name = "exponential"
    true_lo, true_hi = MEAN_MIN, MEAN_MAX
    mean_lo = REWARD_MIN / PULLS_MAX
    mean_hi = REWARD_MAX
    reward_lo = REWARD_MIN

    def kl(self, mu, mu_prime):
        inf = math.inf
        if not (0.0 <= mu < inf and 0.0 <= mu_prime < inf):
            raise ParameterError(f"exponential means must lie in [0, inf): {mu!r}, {mu_prime!r}")
        if mu == mu_prime:
            return 0.0
        if mu <= 0.0 or mu_prime <= 0.0:
            return math.inf
        # log(mu'/mu) + mu/mu' - 1 arranged so nearby means do not cancel;
        # a precision branch, not an overflow one: mu' below 2^-53 mu
        # rounds d / mu to -1, outside log1p's domain, and takes the logs
        d = mu_prime - mu
        try:
            div = math.log1p(d / mu) - d / mu_prime
        except ValueError:
            div = math.log(mu_prime) - math.log(mu) - d / mu_prime
        return div if div > 0.0 else 0.0

    def kl_many(self, mu, mu_prime):
        # kl's precision branch where x <= -1; a mean of 0 divides by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            d = mu_prime - mu
            x = d / mu
            div = np.log1p(x) - d / mu_prime
            div = np.where(x <= -1.0, np.log(mu_prime) - np.log(mu) - d / mu_prime, div)
        div = np.where(div > 0.0, div, 0.0)
        div = np.where((mu <= 0.0) | (mu_prime <= 0.0), math.inf, div)
        return np.where(mu == mu_prime, 0.0, div)

    def sample_many(self, mu, rng, size):
        self.require_mean(mu)
        return rng.exponential(mu, size)

    def posterior_mean_sample(self, count, total, rng):
        # conjugate Gamma posterior on the rate; invert one rate draw
        return 1.0 / rng.gamma(1.0 + count, 1.0 / (1.0 + total))

    def _kl_newton(self, mu, q):
        d = q - mu
        return math.log1p(d / mu) - d / q, d / q / q

    def _inverse_start(self, mu_hat, budget):
        # kl(mu, q) >= (q - mu)^2 / (2 q^2), the variance bound over [mu, q],
        # so this lies at or above the root whenever it is finite
        r = math.sqrt(2.0 * budget)
        return mu_hat / (1.0 - r) if r < 1.0 else math.inf

    def _inverse_top(self, mu_hat, budget):
        # kl(mu, mu e^(b+1)) = b + e^-(b+1) > b; at mu = 0 every q > 0 has
        # kl = inf, so the bracket is [0, 0] whatever the budget
        if mu_hat == 0.0:
            return 0.0
        return math.exp(math.log(mu_hat) + budget + 1.0)


def make_family(kind, variance=None):
    """Build a family from its config name; variance applies to gaussian only."""
    key = str(kind).strip().lower()
    if key == "bernoulli":
        if variance is not None:
            raise ParameterError("variance is only configurable for the gaussian family")
        return Bernoulli()
    if key == "gaussian":
        return Gaussian(1.0 if variance is None else variance)
    if key == "exponential":
        if variance is not None:
            raise ParameterError("variance is only configurable for the gaussian family")
        return Exponential()
    raise ParameterError(f"unknown family kind {kind!r}")
