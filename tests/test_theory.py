"""Instance-constant tests: the lower-bound constant against a
high-precision oracle and the minimum half-gap."""

import mpmath
import pytest

from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    Exponential,
    Gaussian,
    epsilon_nu,
    line_graph,
    lower_bound_constant,
)

from conftest import HILL_MEANS

mpmath.mp.dps = 50


def mp_kl(family, mu, mu_prime):
    mu, mu_prime = mpmath.mpf(repr(mu)), mpmath.mpf(repr(mu_prime))
    if family.name == "bernoulli":
        return mu * mpmath.log(mu / mu_prime) + (1 - mu) * mpmath.log(
            (1 - mu) / (1 - mu_prime)
        )
    if family.name == "gaussian":
        return (mu_prime - mu) ** 2 / (2 * mpmath.mpf(repr(family.sigma2)))
    return mpmath.log(mu_prime / mu) + mu / mu_prime - 1


def mp_lower_bound(family, means, graph):
    a_star = max(range(len(means)), key=means.__getitem__)
    total = mpmath.mpf(0)
    for a in graph.neighbors(a_star):
        gap = mpmath.mpf(repr(means[a_star])) - mpmath.mpf(repr(means[a]))
        if gap > 0:
            total += gap / mp_kl(family, means[a], means[a_star])
    return total


HILL_CASES = [
    (Bernoulli(), 14.2855),
    (Gaussian(0.25), 20.0),
    (Exponential(), 4.3213),
]


@pytest.mark.parametrize("family,quoted", HILL_CASES, ids=lambda c: getattr(c, "name", c))
def test_lower_bound_constant_hill(family, quoted):
    cfg = BanditConfig(family, HILL_MEANS, line_graph(9))
    report = lower_bound_constant(cfg)
    oracle = float(mp_lower_bound(family, HILL_MEANS, line_graph(9)))
    assert report.c_nu == pytest.approx(oracle, rel=1e-12)
    assert report.c_nu == pytest.approx(quoted, rel=1e-3)


def test_lower_bound_constant_gaussian_exact():
    cfg = BanditConfig(Gaussian(0.25), HILL_MEANS, line_graph(9))
    assert lower_bound_constant(cfg).c_nu == pytest.approx(20.0, abs=1e-9)


def test_report_contents(hill_bernoulli):
    report = lower_bound_constant(hill_bernoulli)
    assert report.optimal_arm == 4
    assert report.neighbors == (3, 5)
    assert set(report.neighbor_kl) == {3, 5}
    assert report.neighbor_kl[3] == pytest.approx(Bernoulli().kl(0.20, 0.25))
    assert report.gaps[0] == pytest.approx(0.20)
    d = report.as_dict()
    assert d["c_nu"] == report.c_nu
    assert d["neighbors"] == [3, 5]


def test_constant_ignores_arms_outside_neighborhood():
    # removing a suboptimal arm far from the peak leaves the constant alone
    fam = Bernoulli()
    means5 = (0.05, 0.10, 0.25, 0.20, 0.15)
    means4 = (0.10, 0.25, 0.20, 0.15)
    c5 = lower_bound_constant(BanditConfig(fam, means5, line_graph(5))).c_nu
    c4 = lower_bound_constant(BanditConfig(fam, means4, line_graph(4))).c_nu
    assert c5 == pytest.approx(c4, rel=1e-12)


def test_constant_sums_only_strictly_suboptimal_neighbors():
    fam = Gaussian(1.0)
    means = (0.0, 1.0)
    cfg = BanditConfig(fam, means, line_graph(2))
    report = lower_bound_constant(cfg)
    assert report.c_nu == pytest.approx(1.0 / fam.kl(0.0, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# epsilon_nu


def test_epsilon_nu_examples():
    fam = Gaussian(1.0)
    assert epsilon_nu(BanditConfig(fam, (0.1, 0.3, 0.2), line_graph(3))) == pytest.approx(
        0.05
    )
    assert epsilon_nu(BanditConfig(fam, (0.0, 1.0), line_graph(2))) == 0.5


def test_epsilon_nu_zero_on_duplicate_means(hill_bernoulli):
    assert epsilon_nu(hill_bernoulli) == 0.0
