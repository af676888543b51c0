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
from unimodal_bandits.expfam import guard_band

from conftest import FAMILIES, bisect_kl_upper_inverse, variance_sup

EPS = sys.float_info.epsilon
# a variance at which the squared difference of two means overflows long
# before their divergence does
WIDE = Gaussian(1e300)
# and one at which twice the variance overflows
HUGE = Gaussian(1.5e308)
KL_FAMILIES = [*FAMILIES, WIDE, HUGE]
KL_IDS = [*(f.name for f in FAMILIES), "gaussian-1e300", "gaussian-1.5e308"]


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
    assert Gaussian(0.25).kl(0.20, 0.25) == pytest.approx(0.05**2 / 0.5, abs=1e-15)
    # the difference squared overflows, the divergence does not
    assert WIDE.kl(0.0, 1e155) == pytest.approx(5e9, rel=1e-15)
    # twice the variance overflows, the divergence does not round to 0
    assert HUGE.kl(0.0, 1e150) == pytest.approx(1e-8 / 3.0, rel=1e-15)
    assert HUGE.kl_many(np.array([0.0]), np.array([1e150]))[0] == HUGE.kl(0.0, 1e150)


def test_kl_gaussian_where_the_mean_difference_overflows():
    # 1e308 - (-1e308) overflows, but each mean over sigma does not, and
    # neither does the divergence (2e308 / sigma)^2 / 2
    top = Gaussian(sys.float_info.max)
    half = 1e308 / top.sigma
    want = 0.5 * (2.0 * half) * (2.0 * half)
    assert want == pytest.approx(1.1125369292536e308, rel=1e-12)
    assert top.kl(-1e308, 1e308) == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = top.kl_many(np.array([-1e308, 0.0]), np.array([1e308, 1e150]))
        # at unit variance the divergence itself overflows
        unit = Gaussian(1.0).kl_many(np.array([-1e308, 0.0]), np.array([1e308, 0.5]))
    assert got.tolist() == [want, top.kl(0.0, 1e150)]
    assert unit.tolist() == [math.inf, 0.125] == [Gaussian(1.0).kl(-1e308, 1e308), 0.125]


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
    # means whose ratio 1e312 overflows a float
    far = 312.0 * math.log(10.0) - 1.0
    assert expo.kl(1e-12, 1e300) == pytest.approx(far, rel=1e-14)
    assert expo._kl_newton(1e-12, 1e300)[0] == expo.kl(1e-12, 1e300)
    # a second mean below 2^-53 of the first, which rounds d / mu to -1
    assert expo.kl(2.0**60, 1.0) == pytest.approx(2.0**60 - 1.0 - 60.0 * math.log(2.0), rel=1e-15)
    assert expo.kl(1e300, 1e-10) == math.inf


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


def test_gaussian_requires_positive_variance():
    with pytest.raises(ParameterError):
        Gaussian(0.0)
    with pytest.raises(ParameterError):
        Gaussian(-1.0)


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
    # 2 variance budget overflows, the root does not
    out = WIDE.kl_upper_inverse(0.0, 1e10)
    assert out == pytest.approx(math.sqrt(2.0) * 1e155, rel=1e-15)
    assert WIDE.kl(0.0, out) <= 1e10
    # and where 2 budget itself overflows
    out = Gaussian(1.0).kl_upper_inverse(0.0, 1e308)
    assert out == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    # and where 2 variance itself overflows: kl at the root is the budget
    out = HUGE.kl_upper_inverse(0.0, 1.0)
    assert out == pytest.approx(math.sqrt(2.0) * HUGE.sigma, rel=1e-15)
    assert HUGE.kl(0.0, out) == pytest.approx(1.0, rel=1e-15)


def test_inverse_bernoulli_round_trip_of_kl():
    bern = Bernoulli()
    budget = bern.kl(0.2, 0.25)
    assert bern.kl_upper_inverse(0.2, budget) == pytest.approx(0.25, abs=1e-8)


def test_inverse_rejects_negative_budget():
    with pytest.raises(ParameterError):
        Bernoulli().kl_upper_inverse(0.5, -1e-9)


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
    edge_budgets = [0.0, 1e-12, 1e-9, 1e-6, 0.01, 1.0, 10.0, math.inf]
    if family.name == "exponential":
        # roots far above mu_hat; from a budget of about 708 on they leave
        # float range
        edge_budgets += [50.0, 200.0, 1e3, 1e6]
    pairs += [(m, b) for m in edge_mus for b in edge_budgets]
    return pairs


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_inverse_matches_bisection_oracle(family):
    rng = np.random.default_rng(17)
    for mu, budget in inverse_inputs(family, rng):
        out = family.kl_upper_inverse(mu, budget)
        if budget == math.inf:
            # every mean fits an infinite budget
            assert out == family.mean_hi, (mu, out)
            continue
        oracle = bisect_kl_upper_inverse(family, mu, budget)
        if oracle == math.inf:
            # a root past float range gives the top of the domain
            assert out == oracle, (mu, budget, out)
            continue
        # where the root is far above mu_hat, kl computed to an ulp of the
        # budget pins it only to about budget ulps relative
        tol = max(1e-10, 4.0 * EPS * budget * oracle)
        assert abs(out - oracle) <= tol, (mu, budget, out, oracle)
        assert family.kl(mu, out) <= budget, (mu, budget, out)


def test_exponential_inverse_finds_a_root_past_the_bracket_overflow():
    # mu e^(b+1), the bracket's top, overflows, yet kl(mu, q) passes b below
    # the largest float: the root is a float, pinned to an ulp
    expo = Exponential()
    for mu, budget in [(sys.float_info.max / 2, 0.1), (sys.float_info.max / 4, 0.5)]:
        assert expo.kl(mu, sys.float_info.max) > budget
        out = expo.kl_upper_inverse(mu, budget)
        assert out < math.inf
        assert expo.kl(mu, out) <= budget < expo.kl(mu, math.nextafter(out, math.inf))


def contract_means(family):
    """Means of family's closed domain, its edges drawn often: Bernoulli 0
    and 1, Exponential 0 and the largest floats, Gaussian any finite one."""
    top = sys.float_info.max
    if family.name == "bernoulli":
        edges, inner = [0.0, 1.0, 5e-324, 1.0 - EPS / 2], st.floats(0.0, 1.0)
    elif family.name == "gaussian":
        edges, inner = [0.0, -top, top], st.floats(allow_nan=False, allow_infinity=False)
    else:
        edges, inner = [0.0, 5e-324, top / 2, top], st.floats(0.0, top)
    return st.one_of(st.sampled_from(edges), inner)


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
    # what Osub.select's certificate rests on: the result is mu_hat, or kl
    # at it is within the budget, or inf only when kl at the largest float
    # is within the budget too
    mu = data.draw(contract_means(family))
    budget = data.draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e3)))
    r = inverse(mu, budget)
    if r == math.inf:
        assert family.kl(mu, sys.float_info.max) <= budget, (mu, budget)
    else:
        assert r == mu or family.kl(mu, r) <= budget, (mu, budget, r)


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


MAX = sys.float_info.max
# each family's closed mean domain, its boundary means drawn often
DOMAIN_MEANS = {
    "bernoulli": st.sampled_from([0.0, 1.0, 5e-324, 1.0 - EPS / 2, 0.5]) | st.floats(0.0, 1.0),
    "gaussian": st.sampled_from([0.0, -5e-324, MAX, -MAX]) | st.floats(-MAX, MAX),
    "exponential": st.sampled_from([0.0, 5e-324, MAX, 1.0]) | st.floats(0.0, MAX),
}


@pytest.mark.parametrize("family", KL_FAMILIES, ids=KL_IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kl_many_matches_kl(family, data):
    # kl_many has kl's inf cases and its 0 at equal means, never goes
    # below 0, and elsewhere agrees with kl within check_log's guard band
    # for a single pull
    means = DOMAIN_MEANS[family.name]
    lo, hi = max(family.mean_lo, -MAX), min(family.mean_hi, MAX)
    close = st.tuples(means, st.floats(-1e-6, 1e-6)).map(
        lambda p: (p[0], min(max(p[0] * (1.0 + p[1]), lo), hi))
    )
    pairs = data.draw(
        st.lists(
            st.tuples(means, means) | close | means.map(lambda m: (m, m)), min_size=1, max_size=8
        )
    )
    mu, q = (np.array(side) for side in zip(*pairs))
    with np.errstate(over="ignore"):
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
