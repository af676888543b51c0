"""One-dimensional exponential-family reward models identified by their mean.

Three families are supported: Bernoulli, Gaussian with a known shared
variance, and Exponential. Each provides exact Kullback-Leibler divergence
between two members (parameterized by mean), reward sampling, and the KL
upper inverse used by confidence-bound style baselines.

True means live in an open domain; empirical means can hit its boundary
(a Bernoulli arm that has only produced zeros, say), so divergence and the
derived helpers accept the closed domain by continuous extension.
"""

import math
import sys

import numpy as np

from .errors import ParameterError

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
# relative guard of guard_band, about 64 eps
_GUARD = 1.5e-14
# above this, 2 x overflows
_HALF_MAX = sys.float_info.max / 2
# standard draws of reward_bound, in standard deviations or means
_DRAW_SPAN = 64.0


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
    """Base reward family. Subclasses fix the law and its mean domain."""

    name = ""
    mean_lo = -math.inf
    mean_hi = math.inf

    def require_mean(self, mu):
        """Raise ParameterError unless mu lies in the open mean domain."""
        if not (self.mean_lo < mu < self.mean_hi):
            raise ParameterError(
                f"{self.name} mean {mu!r} outside open domain "
                f"({self.mean_lo}, {self.mean_hi})"
            )

    def require_mean_closure(self, mu):
        """Like require_mean but admits the domain boundary (empirical means)."""
        if not (self.mean_lo <= mu <= self.mean_hi) or math.isinf(mu):
            raise ParameterError(
                f"{self.name} mean {mu!r} outside closed domain "
                f"[{self.mean_lo}, {self.mean_hi}]"
            )

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

    def reward_bound(self, mu):
        """A bound on |x| for every reward x that sample_many draws at mean mu."""
        raise NotImplementedError

    def posterior_mean_sample(self, count, total, rng):
        """One posterior draw of the mean given count pulls summing to total.

        Uses the family's standard conjugate recipe with an uninformative
        prior; consumed by the Thompson-sampling baseline.
        """
        raise NotImplementedError

    def _check_inverse_args(self, mu_hat, budget):
        if math.isnan(budget) or budget < 0.0:
            raise ParameterError(f"budget must be >= 0, got {budget!r}")
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
        kl(mu_hat, q) > budget unless q is the top of the domain; inf when
        no float has kl(mu_hat, q) > budget."""
        return self.mean_hi

    def kl_upper_inverse(self, mu_hat, budget):
        """Largest mean mu' >= mu_hat with kl(mu_hat, mu') <= budget.

        Safeguarded Newton on kl(mu_hat, q) = budget. The bracket [lo, hi]
        keeps kl(lo) <= budget < kl(hi); a Newton step that leaves it, or
        an infinite divergence, falls back to bisection, and steps shorter
        than half the tolerance are lengthened to it so that an iterate
        converging from one side closes the bracket from the other. Stops
        once the bracket is 1e-10 wide and returns its lower end. A finite
        upper domain boundary caps the result; on an unbounded domain the
        family's _inverse_top ends the bracket. budget == 0 returns mu_hat
        exactly; budget == inf, or a bracket end that overflows, the top
        of the domain.

        Contract, for every family: the result r is mu_hat, or has
        kl(mu_hat, r) <= budget as kl computes it, or is inf, and inf only
        when kl(mu_hat, q) <= budget, up to rounding, at every float q where
        kl is finite. Osub.select's certificate rests on it.
        """
        self._check_inverse_args(mu_hat, budget)
        if budget == 0.0 or mu_hat >= self.mean_hi:
            return mu_hat
        if budget == math.inf:
            return self.mean_hi
        hi = self._inverse_top(mu_hat, budget)
        if hi == math.inf:
            return self.mean_hi
        newton = self._kl_newton
        lo = mu_hat
        half = 0.5 * BISECT_TOL
        q = self._inverse_start(mu_hat, budget)
        # halves first: lo + hi can overflow near the largest float
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
    mean_lo = 0.0
    mean_hi = 1.0

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

    def reward_bound(self, mu):
        return 1.0

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

    def __init__(self, variance=1.0):
        if not (variance > 0.0 and math.isfinite(variance)):
            raise ParameterError(f"gaussian variance must be positive, got {variance!r}")
        self.sigma2 = float(variance)
        self.sigma = math.sqrt(self.sigma2)

    def kl(self, mu, mu_prime):
        if not (math.isfinite(mu) and math.isfinite(mu_prime)):
            raise ParameterError(f"gaussian means must be finite: {mu!r}, {mu_prime!r}")
        d = mu_prime - mu
        div = d * d / (2.0 * self.sigma2)
        if 0.0 < div < math.inf or (div == 0.0 and self.sigma2 <= _HALF_MAX):
            return div
        # d * d or 2 var overflowed: scaled by sigma first, a finite
        # divergence stays finite and a positive one positive; where d
        # itself overflowed, each mean is scaled before subtracting
        s = self.sigma
        e = d / s if abs(d) < math.inf else mu_prime / s - mu / s
        return 0.5 * e * e

    def kl_many(self, mu, mu_prime):
        # an overflow here falls back as kl does; the means scaled by sigma
        # count only where d overflowed, and inf - inf elsewhere is dropped
        with np.errstate(over="ignore", invalid="ignore"):
            d = mu_prime - mu
            if self.sigma2 <= _HALF_MAX:
                div = d * d / (2.0 * self.sigma2)
                finite = np.isfinite(div)
                if finite.all():
                    return div
            s = self.sigma
            e = np.where(np.isinf(d), mu_prime / s - mu / s, d / s)
            scaled = 0.5 * e * e
        return scaled if self.sigma2 > _HALF_MAX else np.where(finite, div, scaled)

    def sample_many(self, mu, rng, size):
        self.require_mean(mu)
        return rng.normal(mu, self.sigma, size)

    def reward_bound(self, mu):
        # numpy's ziggurat draws no standard normal beyond about 12.3
        return abs(mu) + _DRAW_SPAN * self.sigma

    def posterior_mean_sample(self, count, total, rng):
        return rng.normal(total / count, math.sqrt(self.sigma2 / count))

    def kl_upper_inverse(self, mu_hat, budget):
        # closed form; stepping down an ulp at a time absorbs the rounding
        # that can put kl a hair above the budget
        self._check_inverse_args(mu_hat, budget)
        width = 2.0 * self.sigma2 * budget
        # where that product overflows, sigma sqrt(2 budget) may be finite
        step = math.sqrt(width) if width < math.inf else 2.0 * self.sigma * math.sqrt(0.5 * budget)
        out = mu_hat + step
        while out < math.inf and self.kl(mu_hat, out) > budget:
            out = math.nextafter(out, mu_hat)
        return out

    def __repr__(self):
        return f"Gaussian(variance={self.sigma2!r})"


class Exponential(Family):
    """Exponential rewards on (0, inf); the mean is the scale."""

    name = "exponential"
    mean_lo = 0.0
    mean_hi = math.inf

    def kl(self, mu, mu_prime):
        inf = math.inf
        if not (0.0 <= mu < inf and 0.0 <= mu_prime < inf):
            raise ParameterError(f"exponential means must lie in [0, inf): {mu!r}, {mu_prime!r}")
        if mu == mu_prime:
            return 0.0
        if mu <= 0.0 or mu_prime <= 0.0:
            return math.inf
        # log(mu'/mu) + mu/mu' - 1 arranged so nearby means do not cancel;
        # means more than a float range apart overflow d / mu and take it
        # above 1e308, and mu' below 2^-53 mu rounds d / mu to -1, outside
        # log1p's domain: both fall back to the logs
        d = mu_prime - mu
        try:
            div = math.log1p(d / mu) - d / mu_prime
        except ValueError:
            div = inf
        if div > 1e308:
            div = math.log(mu_prime) - math.log(mu) - d / mu_prime
        return div if div > 0.0 else 0.0

    def kl_many(self, mu, mu_prime):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = mu_prime - mu
            x = d / mu
            div = np.log1p(x) - d / mu_prime
            div = np.where(
                (div > 1e308) | (x <= -1.0), np.log(mu_prime) - np.log(mu) - d / mu_prime, div
            )
        div = np.where(div > 0.0, div, 0.0)
        div = np.where((mu <= 0.0) | (mu_prime <= 0.0), math.inf, div)
        return np.where(mu == mu_prime, 0.0, div)

    def sample_many(self, mu, rng, size):
        self.require_mean(mu)
        return rng.exponential(mu, size)

    def reward_bound(self, mu):
        # numpy's ziggurat draws no standard exponential beyond about 44.4
        return _DRAW_SPAN * mu

    def posterior_mean_sample(self, count, total, rng):
        # conjugate Gamma posterior on the rate; invert one rate draw
        return 1.0 / rng.gamma(1.0 + count, 1.0 / (1.0 + total))

    def _kl_newton(self, mu, q):
        if mu <= 0.0:
            return math.inf, 0.0
        d = q - mu
        f = math.log1p(d / mu) - d / q
        if f > 1e308:
            f = math.log(q) - math.log(mu) - d / q
        return f, d / q / q

    def _inverse_start(self, mu_hat, budget):
        # kl(mu, q) >= (q - mu)^2 / (2 q^2), the variance bound over [mu, q],
        # so this lies at or above the root whenever it is finite
        r = math.sqrt(2.0 * budget)
        return mu_hat / (1.0 - r) if r < 1.0 else math.inf

    def _inverse_top(self, mu_hat, budget):
        # kl(mu, mu e^(b+1)) = b + e^-(b+1) > b; at mu = 0 every q > 0 has
        # kl = inf, so the bracket is [0, 0] whatever the budget. When
        # mu e^(b+1) overflows the root may still be a float: kl at the
        # largest float decides
        if mu_hat == 0.0:
            return 0.0
        try:
            return math.exp(math.log(mu_hat) + budget + 1.0)
        except OverflowError:
            top = sys.float_info.max
            return top if self.kl(mu_hat, top) > budget else math.inf


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
