"""Reward-family tests: closed-form divergences against independent numeric
oracles, sampling laws, variance envelopes, and the KL upper inverse."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from unimodal_bandits import (
    Bernoulli,
    Exponential,
    Gaussian,
    ParameterError,
    make_family,
)
from unimodal_bandits.expfam import (
    BISECT_MAX_ITER,
    BISECT_TOL,
    BUDGET_MAX,
    MEAN_MAX,
    MEAN_MIN,
    PULLS_MAX,
    REWARD_MAX,
    REWARD_MIN,
    VARIANCE_MAX,
    VARIANCE_MIN,
    guard_band,
)
from unimodal_bandits.policies import LEADER_SLACK, leader_floor

from conftest import FAMILIES, bisect_kl_upper_inverse, variance_sup

EPS = sys.float_info.epsilon
# the least positive empirical mean of Bernoulli and Exponential: one
# reward of REWARD_MIN among fewer than 2^63 pulls
LEAST = REWARD_MIN / PULLS_MAX
# the Gaussian variances at the edges of the declared domain
NARROW = Gaussian(VARIANCE_MIN)
WIDE = Gaussian(VARIANCE_MAX)
KL_FAMILIES = [*FAMILIES, NARROW, WIDE]
KL_IDS = [*(f.name for f in FAMILIES), "gaussian-min-variance", "gaussian-max-variance"]


def mean_grid(family, n=12, pad=0.0):
    if family.name == "bernoulli":
        return np.linspace(0.02 + pad, 0.98 - pad, n)
    if family.name == "gaussian":
        return np.linspace(-2.0, 2.0, n)
    return np.linspace(0.05 + pad, 4.0, n)


def kl_oracle(family, mu, mu_prime):
    """Divergence straight from densities: a two-point sum for Bernoulli,
    adaptive quadrature of the log-likelihood ratio otherwise."""
    if family.name == "bernoulli":

        def pmf(x, m):
            return m if x == 1 else 1.0 - m

        total = 0.0
        for x in (0, 1):
            p = pmf(x, mu)
            if p > 0.0:
                total += p * math.log(p / pmf(x, mu_prime))
        return total
    if family.name == "gaussian":
        s2 = family.sigma2

        def density(x, m):
            return math.exp(-((x - m) ** 2) / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)

        def log_ratio(x):
            # log(f(x, mu) / f(x, mu_prime)) expanded to avoid tail underflow
            return ((x - mu_prime) ** 2 - (x - mu) ** 2) / (2.0 * s2)

        val, _ = integrate.quad(
            lambda x: density(x, mu) * log_ratio(x),
            -np.inf,
            np.inf,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return val

    def density(x, m):
        return math.exp(-x / m) / m

    def log_ratio(x):
        return math.log(mu_prime / mu) + x * (1.0 / mu_prime - 1.0 / mu)

    val, _ = integrate.quad(
        lambda x: density(x, mu) * log_ratio(x),
        0.0,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


# ---------------------------------------------------------------------------
# divergence closed forms


def test_kl_gaussian_unit_variance_half():
    assert Gaussian(1.0).kl(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kl_gaussian_uses_configured_variance():
    # at the domain's edges: the widest means over the narrowest variance,
    # and means far apart over the widest one, stay finite
    assert NARROW.kl(-REWARD_MAX, REWARD_MAX) == pytest.approx(2e304, rel=1e-15)
    assert WIDE.kl(0.0, REWARD_MAX) == pytest.approx(5e103, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = NARROW.kl_many(np.array([-REWARD_MAX]), np.array([REWARD_MAX]))
    assert got[0] == NARROW.kl(-REWARD_MAX, REWARD_MAX)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_kl_zero_at_equal_means(family):
    assert family.kl(0.3, 0.3) == 0.0


def test_kl_bernoulli_against_two_point_oracle():
    got = Bernoulli().kl(0.2, 0.25)
    assert got == pytest.approx(kl_oracle(Bernoulli(), 0.2, 0.25), abs=1e-12)
    assert got == pytest.approx(0.007002106647214991, abs=1e-15)


def test_kl_exponential_closed_form():
    expo = Exponential()
    assert expo.kl(0.2, 0.25) == pytest.approx(math.log(1.25) + 0.8 - 1.0, abs=1e-15)
    # the widest ratio of the closed domain, about 1e271
    far = math.log(REWARD_MAX / LEAST) - 1.0
    assert expo.kl(LEAST, REWARD_MAX) == pytest.approx(far, rel=1e-14)
    assert expo._kl_newton(LEAST, REWARD_MAX)[0] == expo.kl(LEAST, REWARD_MAX)
    # the precision branch: a second mean below 2^-53 of the first rounds
    # d / mu to -1, outside log1p's domain
    assert expo.kl(2.0**60, 1.0) == pytest.approx(2.0**60 - 1.0 - 60.0 * math.log(2.0), rel=1e-15)
    assert expo.kl(1.0, 1e-20) == pytest.approx(1e20 - 1.0 - 20.0 * math.log(10.0), rel=1e-15)
    assert expo.kl(REWARD_MAX, LEAST) == pytest.approx(REWARD_MAX / LEAST, rel=1e-15)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_kl_matches_oracle_on_grid(family):
    grid = mean_grid(family, 8)
    for mu in grid:
        for mu_prime in grid:
            assert family.kl(mu, mu_prime) == pytest.approx(
                kl_oracle(family, mu, mu_prime), abs=1e-8
            )


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_kl_nonnegative_and_zero_iff_equal(family):
    grid = mean_grid(family, 10)
    for mu in grid:
        for mu_prime in grid:
            val = family.kl(mu, mu_prime)
            assert val >= 0.0
            if mu == mu_prime:
                assert val <= 1e-12
            else:
                assert val > 1e-12


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_kl_nondecreasing_above_first_argument(family):
    grid = mean_grid(family, 10)
    for mu in grid:
        targets = sorted(t for t in grid if t >= mu)
        vals = [family.kl(mu, t) for t in targets]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_pinsker_lower_bound(family):
    grid = mean_grid(family, 10)
    for mu in grid:
        for mu_prime in grid:
            if mu >= mu_prime:
                continue
            bound = (mu_prime - mu) ** 2 / (2.0 * variance_sup(family, mu, mu_prime))
            assert family.kl(mu, mu_prime) - bound >= -1e-12


def test_kl_boundary_extensions():
    bern = Bernoulli()
    assert bern.kl(0.0, 0.5) == pytest.approx(-math.log(0.5), abs=1e-15)
    assert bern.kl(1.0, 0.5) == pytest.approx(-math.log(0.5), abs=1e-15)
    assert bern.kl(0.3, 1.0) == math.inf
    assert bern.kl(0.3, 0.0) == math.inf
    assert bern.kl(0.0, 0.0) == 0.0
    assert bern.kl(1.0, 1.0) == 0.0
    expo = Exponential()
    assert expo.kl(0.0, 1.0) == math.inf
    assert expo.kl(1.0, 0.0) == math.inf
    assert expo.kl(0.0, 0.0) == 0.0


def test_kl_rejects_out_of_domain():
    with pytest.raises(ParameterError):
        Bernoulli().kl(1.2, 0.5)
    with pytest.raises(ParameterError):
        Bernoulli().kl(0.5, -0.1)
    with pytest.raises(ParameterError):
        Exponential().kl(-1.0, 2.0)
    with pytest.raises(ParameterError):
        Gaussian(1.0).kl(math.inf, 0.0)


def test_mean_domain_checks():
    with pytest.raises(ParameterError):
        Bernoulli().require_mean(0.0)
    with pytest.raises(ParameterError):
        Bernoulli().require_mean(1.0)
    with pytest.raises(ParameterError):
        Exponential().require_mean(0.0)
    Gaussian(1.0).require_mean(-3.5)
    Bernoulli().require_mean_closure(0.0)
    with pytest.raises(ParameterError):
        Bernoulli().require_mean_closure(-0.01)


@pytest.mark.parametrize(
    "family, check, inside, outside",
    [
        (Bernoulli(), "require_mean", [5e-324, 1.0 - EPS / 2], [0.0, 1.0, -5e-324, math.nan]),
        (Gaussian(1.0), "require_mean", [-MEAN_MAX, MEAN_MAX], [-1.01 * MEAN_MAX, 1.01 * MEAN_MAX]),
        (Exponential(), "require_mean", [MEAN_MIN, MEAN_MAX], [0.99 * MEAN_MIN, 1.01 * MEAN_MAX]),
        (Bernoulli(), "require_mean_closure", [0.0, LEAST, 1.0], [LEAST / 2, 1.0 + EPS]),
        (Gaussian(1.0), "require_mean_closure", [-REWARD_MAX, 5e-324, REWARD_MAX],
         [-1.01 * REWARD_MAX, 1.01 * REWARD_MAX, math.inf, math.nan]),
        (Exponential(), "require_mean_closure", [0.0, LEAST, REWARD_MAX],
         [5e-324, LEAST / 2, 1.01 * REWARD_MAX, math.inf]),
    ],
    ids=["bernoulli-true", "gaussian-true", "exponential-true", "bernoulli-closed", "gaussian-closed",
         "exponential-closed"],
)
def test_mean_checks_hold_the_declared_domain(family, check, inside, outside):
    for mu in inside:
        getattr(family, check)(mu)
    for mu in outside:
        with pytest.raises(ParameterError):
            getattr(family, check)(mu)


def test_gaussian_requires_positive_variance():
    with pytest.raises(ParameterError):
        Gaussian(0.0)
    with pytest.raises(ParameterError):
        Gaussian(-1.0)
    # the declared domain's edges
    assert NARROW.sigma2 == VARIANCE_MIN and WIDE.sigma2 == VARIANCE_MAX
    for variance in (0.99 * VARIANCE_MIN, 1.01 * VARIANCE_MAX, math.inf, math.nan):
        with pytest.raises(ParameterError):
            Gaussian(variance)


def test_make_family():
    assert make_family("bernoulli").name == "bernoulli"
    assert make_family("Gaussian", 0.25).sigma2 == 0.25
    assert make_family("gaussian").sigma2 == 1.0
    assert make_family("exponential").name == "exponential"
    with pytest.raises(ParameterError):
        make_family("poisson")
    with pytest.raises(ParameterError):
        make_family("bernoulli", 0.3)


# ---------------------------------------------------------------------------
# sampling


def test_bernoulli_sample_support(rng):
    draws = set(Bernoulli().sample_many(0.5, rng, 1000).tolist())
    assert draws <= {0.0, 1.0}
    assert draws == {0.0, 1.0}


def test_exponential_sample_mean_lln():
    rng = np.random.default_rng(2024)
    draws = Exponential().sample_many(2.0, rng, 10**6)
    assert draws.min() > 0.0
    assert abs(draws.mean() - 2.0) < 0.01


def test_gaussian_sample_variance_lln():
    rng = np.random.default_rng(99)
    draws = Gaussian(0.25).sample_many(0.25, rng, 10**6)
    assert abs(draws.var() - 0.25) < 0.005


def test_sample_rejects_out_of_domain(rng):
    with pytest.raises(ParameterError):
        Bernoulli().sample_many(1.5, rng, 4)
    with pytest.raises(ParameterError):
        Exponential().sample_many(-2.0, rng, 4)


# ---------------------------------------------------------------------------
# variance envelope


def test_variance_sup_gaussian_constant():
    assert variance_sup(Gaussian(0.25), -10.0, 10.0) == 0.25


def test_variance_sup_exponential_right_endpoint():
    assert variance_sup(Exponential(), 1.0, 2.0) == 4.0


def test_variance_sup_bernoulli_cases():
    bern = Bernoulli()
    assert variance_sup(bern, 0.15, 0.25) == pytest.approx(0.1875, abs=1e-15)
    assert variance_sup(bern, 0.4, 0.6) == 0.25
    assert variance_sup(bern, 0.7, 0.9) == pytest.approx(0.21, abs=1e-15)


def test_variance_sup_bernoulli_grid_search_oracle():
    bern = Bernoulli()
    rng = np.random.default_rng(31)
    for _ in range(50):
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        dense = np.linspace(lo, hi, 20001)
        oracle = float(np.max(dense * (1.0 - dense)))
        assert variance_sup(bern, lo, hi) == pytest.approx(oracle, abs=1e-8)


def test_variance_sup_rejects_empty_interval():
    with pytest.raises(ParameterError):
        variance_sup(Bernoulli(), 0.6, 0.4)


# ---------------------------------------------------------------------------
# KL upper inverse


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_inverse_zero_budget_is_identity(family):
    assert family.kl_upper_inverse(0.4, 0.0) == 0.4


def test_inverse_gaussian_analytic():
    assert Gaussian(1.0).kl_upper_inverse(0.0, 0.5) == pytest.approx(1.0, abs=1e-9)
    # the widest variance at the largest budget
    out = WIDE.kl_upper_inverse(0.0, BUDGET_MAX)
    assert out == pytest.approx(math.sqrt(2.0 * VARIANCE_MAX * BUDGET_MAX), rel=1e-15)
    assert WIDE.kl(0.0, out) <= BUDGET_MAX


def test_inverse_bernoulli_round_trip_of_kl():
    bern = Bernoulli()
    budget = bern.kl(0.2, 0.25)
    assert bern.kl_upper_inverse(0.2, budget) == pytest.approx(0.25, abs=1e-8)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_inverse_rejects_budgets_outside_the_domain(family):
    for budget in (-1e-9, math.nextafter(BUDGET_MAX, math.inf), math.inf, math.nan):
        with pytest.raises(ParameterError):
            family.kl_upper_inverse(0.5, budget)


def test_inverse_at_domain_top():
    assert Bernoulli().kl_upper_inverse(1.0, 3.0) == 1.0


def inverse_inputs(family, rng, n=3000):
    """Random (mu_hat, budget) pairs plus the edge cases of each family."""
    if family.name == "bernoulli":
        mus = rng.uniform(0.0, 1.0, n)
        edge_mus = [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]
    elif family.name == "gaussian":
        mus = rng.normal(0.0, 2.0, n)
        edge_mus = [0.0, -1e3, 1e3]
    else:
        mus = rng.exponential(1.0, n)
        edge_mus = [0.0, 1e-12, 1.0, 1e6]
    budgets = 10.0 ** rng.uniform(-12.0, 1.5, n)
    pairs = list(zip(mus.tolist(), budgets.tolist()))
    edge_budgets = [0.0, 1e-12, 1e-9, 1e-6, 0.01, 1.0, 10.0, BUDGET_MAX]
    if family.name == "exponential":
        # roots far above mu_hat
        edge_budgets += [50.0, 200.0]
    pairs += [(m, b) for m in edge_mus for b in edge_budgets]
    return pairs


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_inverse_matches_bisection_oracle(family):
    rng = np.random.default_rng(17)
    for mu, budget in inverse_inputs(family, rng):
        out = family.kl_upper_inverse(mu, budget)
        oracle = bisect_kl_upper_inverse(family, mu, budget)
        # where the root is far above mu_hat, kl computed to an ulp of the
        # budget pins it only to about budget ulps relative
        tol = max(1e-10, 4.0 * EPS * budget * oracle)
        assert abs(out - oracle) <= tol, (mu, budget, out, oracle)
        assert family.kl(mu, out) <= budget, (mu, budget, out)


# each family's closed mean domain, its edge means drawn often
DOMAIN_MEANS = {
    "bernoulli": st.sampled_from([0.0, 1.0, LEAST, 1.0 - EPS / 2, 0.5]) | st.floats(LEAST, 1.0),
    "gaussian": st.sampled_from([0.0, -5e-324, REWARD_MAX, -REWARD_MAX])
    | st.floats(-REWARD_MAX, REWARD_MAX),
    "exponential": st.sampled_from([0.0, LEAST, REWARD_MAX / 2, REWARD_MAX, 1.0])
    | st.floats(LEAST, REWARD_MAX),
}


INVERSES = [
    *((name, f, f.kl_upper_inverse) for name, f in zip(KL_IDS, KL_FAMILIES)),
    *(
        (f"{name}-bisection", f, lambda mu, b, f=f: bisect_kl_upper_inverse(f, mu, b))
        for name, f in zip(KL_IDS, KL_FAMILIES)
    ),
]


@pytest.mark.parametrize("name, family, inverse", INVERSES, ids=[i[0] for i in INVERSES])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_inverse_contract(name, family, inverse, data):
    # what Osub.select's certificate rests on: the result is finite, and
    # mu_hat or within the budget
    mu = data.draw(DOMAIN_MEANS[family.name])
    budget = data.draw(st.one_of(st.sampled_from([0.0, BUDGET_MAX]), st.floats(1e-12, BUDGET_MAX)))
    r = inverse(mu, budget)
    assert math.isfinite(r), (mu, budget)
    assert r == mu or family.kl(mu, r) <= budget, (mu, budget, r)


CORNER_MEANS = {
    "bernoulli": [0.0, LEAST, 0.5, 1.0 - EPS / 2, 1.0],
    "gaussian": [-REWARD_MAX, -MEAN_MAX, 0.0, MEAN_MAX, REWARD_MAX],
    "exponential": [0.0, LEAST, MEAN_MIN, 1.0, MEAN_MAX, REWARD_MAX],
}


@pytest.mark.parametrize("family", KL_FAMILIES, ids=KL_IDS)
def test_inverse_at_the_domain_corners(family):
    # edge means, edge variances and the largest budget: the solvers end,
    # with a finite result that meets the contract. A kl that overflowed
    # at such a corner could hold Gaussian's ulp-by-ulp descent forever
    for mu in CORNER_MEANS[family.name]:
        for budget in (0.0, 1e-12, 1.0, BUDGET_MAX):
            r = family.kl_upper_inverse(mu, budget)
            assert math.isfinite(r) and r >= mu, (mu, budget, r)
            assert r == mu or family.kl(mu, r) <= budget, (mu, budget, r)


# means where an inverse stays below the leader bound Osub.certify takes,
# and budgets from 1e-300, where kl is too flat to place the root, to the
# largest
SMALL_MEANS = {
    "bernoulli": DOMAIN_MEANS["bernoulli"],
    "gaussian": st.floats(-100.0, 100.0),
    "exponential": st.floats(LEAST, 100.0),
}
BUDGETS = st.sampled_from([1e-300, 1e-14, BUDGET_MAX]) | st.floats(1e-12, BUDGET_MAX) | st.floats(
    -300.0, math.log10(BUDGET_MAX)
).map(lambda e: min(10.0**e, BUDGET_MAX))


def at_least(x, top):
    """Values of [x, top], x itself, its next float and x + 1 among them."""
    return st.sampled_from([x, min(math.nextafter(x, math.inf), top)]) | st.floats(
        x, min(x + 1.0, top)
    ) | st.floats(x, top)


@pytest.mark.parametrize("family", KL_FAMILIES, ids=KL_IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_inverse_is_monotone_within_the_leader_slack(family, data):
    # what Osub.certify's slack rests on: wherever leader_floor proves a
    # floor at (mu, budget), the inverse at a mean and a budget at least
    # these is at least the inverse at (mu, budget) less LEADER_SLACK
    mu = data.draw(SMALL_MEANS[family.name] | DOMAIN_MEANS[family.name])
    budget = data.draw(BUDGETS)
    mu2 = data.draw(at_least(mu, family.mean_hi))
    if 0.0 < mu2 < family.mean_lo:
        mu2 = family.mean_lo
    budget2 = data.draw(at_least(budget, BUDGET_MAX))
    if leader_floor(family, mu, budget) is not None:
        inverse = family.kl_upper_inverse
        assert inverse(mu2, budget2) >= inverse(mu, budget) - LEADER_SLACK, (mu, budget)


def test_leader_floor_refuses_where_kl_is_flat_or_the_inverse_large():
    bern = Bernoulli()
    assert leader_floor(bern, 0.2, 0.01) == bern.kl_upper_inverse(0.2, 0.01) - LEADER_SLACK
    # below kl's rounding, a few eps, the solver's result is rounding
    # noise, up to about 1e-9 above the mean: no floor above the mean is
    # proven, and where the noise lifts the result, none at all
    floors = [
        (mean, leader_floor(bern, mean, budget))
        for mean in (0.2, 0.625, 0.999)
        for budget in (1e-300, 1e-30, 1e-20, 1e-17)
    ]
    assert any(f is None for _, f in floors)
    assert all(f is None or f < mean for mean, f in floors)
    assert leader_floor(Gaussian(0.25), 1e5, 1.0) is None
    assert leader_floor(Exponential(), 1e5, 1.0) is None


@pytest.mark.parametrize("family", [Bernoulli(), Exponential()], ids=lambda f: f.name)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_inverse_closes_its_bracket_below_the_leader_bound(family, data):
    # step (1) of Osub.certify's proof: for a result r below 2^16 in size
    # the Newton solver stops with its bracket at most BISECT_TOL wide,
    # its top an evaluated point of kl above the budget or its first top
    seen = []

    class Spy(type(family)):
        def _kl_newton(self, mu, q):
            f, s = super()._kl_newton(mu, q)
            seen.append((q, f))
            return f, s

    mu = data.draw(SMALL_MEANS[family.name])
    budget = data.draw(BUDGETS)
    r = Spy().kl_upper_inverse(mu, budget)
    top = family._inverse_top(mu, budget)
    if abs(r) < 2.0**16 and mu < top:
        assert len(seen) < BISECT_MAX_ITER
        h = min([q for q, f in seen if f > budget] + [top])
        assert r < h <= r + BISECT_TOL, (mu, budget, r, h)


def kl_target_slope(family, mu, out):
    """d KL(mu, y) / dy at y = out; it diverges toward a finite domain cap."""
    if family.name == "bernoulli":
        return (out - mu) / (out * (1.0 - out)) if 0.0 < out < 1.0 else math.inf
    if family.name == "gaussian":
        return (out - mu) / family.sigma2
    return (out - mu) / (out * out)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_inverse_consistency_on_random_inputs(family):
    rng = np.random.default_rng(8)
    for _ in range(200):
        mu = float(rng.choice(mean_grid(family, 40)))
        budget = float(rng.exponential(0.3))
        out = family.kl_upper_inverse(mu, budget)
        assert out >= mu
        # the returned point never overshoots the budget
        assert family.kl(mu, out) <= budget + 1e-12
        # a 1e-10 tolerance on the mean maps to slope * 1e-10 on the budget,
        # which swamps 1e-8 only when the result crowds a finite domain cap
        slack = max(1e-8, 4e-10 * kl_target_slope(family, mu, out))
        if math.isfinite(slack):
            assert family.kl(mu, out) == pytest.approx(budget, abs=slack)


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(0.0, 1.0),
    mu_prime=st.floats(0.0, 1.0),
)
def test_bernoulli_kl_nonnegative_property(mu, mu_prime):
    val = Bernoulli().kl(mu, mu_prime)
    assert val >= 0.0
    if mu == mu_prime:
        assert val == 0.0


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(-5.0, 5.0),
    budget=st.floats(0.0, 10.0),
)
def test_gaussian_inverse_consistency_property(mu, budget):
    fam = Gaussian(0.5)
    out = fam.kl_upper_inverse(mu, budget)
    assert out >= mu
    assert fam.kl(mu, out) == pytest.approx(budget, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(0.05, 3.0),
    lift=st.floats(0.0, 3.0),
    extra=st.floats(0.0, 2.0),
)
def test_exponential_kl_monotone_property(mu, lift, extra):
    fam = Exponential()
    a = fam.kl(mu, mu + lift)
    b = fam.kl(mu, mu + lift + extra)
    assert b >= a - 1e-15


@pytest.mark.parametrize("family", KL_FAMILIES, ids=KL_IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kl_many_matches_kl(family, data):
    # kl_many has kl's inf cases and its 0 at equal means, never goes
    # below 0, overflows nowhere in the closed domain, and elsewhere agrees
    # with kl within check_log's guard band for a single pull
    means = DOMAIN_MEANS[family.name]
    lo, hi = family.mean_lo, family.mean_hi
    close = st.tuples(means, st.floats(-1e-6, 1e-6)).map(
        lambda p: (p[0], min(max(p[0] * (1.0 + p[1]), lo), hi))
    )
    pairs = data.draw(
        st.lists(
            st.tuples(means, means) | close | means.map(lambda m: (m, m)), min_size=1, max_size=8
        )
    )
    mu, q = (np.array(side) for side in zip(*pairs))
    with np.errstate(over="raise"):
        got = family.kl_many(mu, q)
    assert got.shape == mu.shape
    for m, p, g in zip(mu.tolist(), q.tolist(), got.tolist()):
        want = family.kl(m, p)
        assert (g == math.inf) == (want == math.inf), (m, p, g, want)
        assert g >= 0.0
        if m == p:
            assert g == 0.0
        if want != math.inf:
            assert abs(g - want) <= guard_band(g, want, 1), (m, p, g, want)
