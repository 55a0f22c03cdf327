import math

import numpy as np
import pytest

from eigencop import (Bernoulli, Exponential, Uniform, chi2_statistic,
                      cosine_copula, estimate_mu, fgm,
                      generate_chain_bank, indicator_zero_effect_closed,
                      indicator_zero_effect_threshold, long_run_variance,
                      mean_ci, piecewise_sign, shifted_legendre_copula,
                      sigma2_exponential, sigma2_indicator, sigma2_uniform_mean,
                      sine_cosine_copula, two_sine_model, two_value_step,
                      wald_interval, weighted_mu, zero_association_model)
from eigencop.basis import jump_points
from eigencop.quadrature import composite_rule

from conftest import CLT_N, CLT_R


def _phi(k, x):
    return math.sqrt(2.0) * np.sin(2.0 * math.pi * k * np.asarray(x))


def test_estimate_mu_matches_hand_computation():
    u = np.array([0.1, 0.7, 0.3, 0.9, 0.5])
    est = estimate_mu(u)
    m1 = np.mean(_phi(1, u[:-1]) * _phi(1, u[1:]))
    m2 = np.mean(_phi(2, u[:-1]) * _phi(2, u[1:]))
    assert est.mu1 == pytest.approx(m1, abs=1e-15)
    assert est.mu2 == pytest.approx(m2, abs=1e-15)
    assert est.n_pairs == 4
    cov = np.array(est.covariance)
    assert cov[0, 0] == pytest.approx(0.25)
    assert cov[0, 1] == pytest.approx(-m1 * m2 / 4.0)
    assert cov[0, 1] == cov[1, 0]


def test_estimate_mu_rejects_short_input():
    with pytest.raises(ValueError):
        estimate_mu([0.5])
    with pytest.raises(ValueError):
        estimate_mu(np.ones((3, 3)))


def test_chi2_forms_differ_by_stated_factor():
    u = np.linspace(0.05, 0.95, 40) ** 1.3
    est = estimate_mu(u)
    mu0 = (0.05, -0.2)
    base = chi2_statistic(est, mu0)
    paper = chi2_statistic(est, mu0, paper_form=True)
    prod = mu0[0] * mu0[1]
    # divisors 1-p^2 and 1-p differ by exactly 1+p
    assert paper == pytest.approx(base * (1.0 + prod), rel=1e-12)
    plug = chi2_statistic(est, mu0, plug_in=True)
    prod_hat = est.mu1 * est.mu2
    d1, d2 = est.mu1 - mu0[0], est.mu2 - mu0[1]
    want = est.n_pairs * (d1 * d1 + d2 * d2 + 2 * prod_hat * d1 * d2) / (1 - prod_hat ** 2)
    assert plug == pytest.approx(want, rel=1e-12)


def test_chi2_zero_at_null():
    u = np.linspace(0.01, 0.99, 30)
    est = estimate_mu(u)
    assert chi2_statistic(est, (est.mu1, est.mu2)) == pytest.approx(0.0, abs=1e-12)


def test_sigma2_indicator_values():
    # no dependence: pure Bernoulli variance
    assert sigma2_indicator(0.3, 0.0) == pytest.approx(0.21, abs=1e-15)
    # hand evaluation of the correction at a = 1/4
    a, mu1 = 0.25, 0.05
    s1 = math.sin(math.pi * a) ** 4
    s2 = math.sin(2 * math.pi * a) ** 4
    want = a * (1 - a) + (4 * mu1 / math.pi ** 2) * (s1 / (1 - mu1) - s2 / (1 + 4 * mu1))
    assert sigma2_indicator(a, mu1) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        sigma2_indicator(0.0, 0.05)


def test_zero_effect_threshold_frozen_values():
    assert indicator_zero_effect_threshold(0.02) == pytest.approx(0.3287957484, abs=1e-9)
    assert indicator_zero_effect_threshold(0.05) == pytest.approx(0.3221650965, abs=1e-9)
    assert indicator_zero_effect_threshold(0.10) == pytest.approx(0.3114174343, abs=1e-9)


def test_zero_effect_root_matches_closed_form():
    for mu1 in (0.01, 0.02, 0.05, 0.1, 0.15):
        root = indicator_zero_effect_threshold(mu1)
        closed = indicator_zero_effect_closed(mu1)
        assert abs(root - closed) < 1e-12
        # at the root the dependent variance collapses to the iid one
        assert abs(sigma2_indicator(root, mu1) - root * (1 - root)) < 1e-10


def test_sigma2_exponential_frozen_factor():
    assert sigma2_exponential(1.0, 0.05) == pytest.approx(0.9907403502921212, abs=1e-12)
    # variance scales with rate^2
    assert sigma2_exponential(3.0, 0.05) == pytest.approx(9.0 * sigma2_exponential(1.0, 0.05))
    assert sigma2_exponential(2.0, 0.0) == pytest.approx(4.0, abs=1e-15)
    # a rate as sampling.Exponential takes it: 0 < rate < inf
    for rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="0 < rate < inf"):
            sigma2_exponential(rate, 0.05)


def test_sigma2_uniform_mean_values():
    assert sigma2_uniform_mean(0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert sigma2_uniform_mean(0.05) == pytest.approx(0.08444431122414843, abs=1e-14)


def test_long_run_variance_agrees_with_closed_forms():
    c = zero_association_model(0.05)
    got = long_run_variance(c, Uniform())
    assert got == pytest.approx(sigma2_uniform_mean(0.05), abs=1e-15)
    got = long_run_variance(c, Exponential(1.0))
    assert got == pytest.approx(sigma2_exponential(1.0, 0.05), rel=1e-14)
    got = long_run_variance(c, Bernoulli(0.3))
    assert got == pytest.approx(sigma2_indicator(0.3, 0.05), abs=1e-15)


@pytest.mark.parametrize("mu1", np.linspace(-0.11, 0.11, 23))
def test_long_run_variance_equals_zero_association_formulas(mu1):
    mu1 = float(mu1)
    c = zero_association_model(mu1)
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert abs(long_run_variance(c, Bernoulli(a)) - sigma2_indicator(a, mu1)) <= 1e-15
    assert abs(long_run_variance(c, Uniform()) - sigma2_uniform_mean(mu1)) <= 1e-15
    for rate in (0.5, 1.0, 2.0):
        closed = sigma2_exponential(rate, mu1)
        assert abs(long_run_variance(c, Exponential(rate)) - closed) <= 1e-14 * closed


def _reference_long_run_variance(c, transform):
    """Var f + 2 sum lam a^2 / (1 - lam) with a_k = int f phi_k taken
    directly on 1024 composite panels split at the family's jumps (and the
    threshold); the exponential integral runs in s = 1 - x, with dyadic
    panels toward s = 0 resolving log s."""
    cuts = set(jump_points(c.family)) | set(np.linspace(0.0, 1.0, 1025)[1:-1])
    if isinstance(transform, Exponential):
        cuts = {1.0 - q for q in cuts} | {0.5 ** j for j in range(11, 200)}
        s, w = composite_rule(tuple(sorted(cuts)), 16)
        x, f = 1.0 - s, -transform.rate * np.log(s)
        total = transform.rate ** 2
    else:
        if isinstance(transform, Bernoulli):
            cuts.add(transform.threshold)
        x, w = composite_rule(tuple(sorted(cuts)), 16)
        f = x if isinstance(transform, Uniform) else (x <= transform.threshold) * 1.0
        total = float(np.dot(w, (f - np.dot(w, f)) ** 2))
    for lam, p in zip(c.coeffs.values, c.terms.phi(x)):
        a = float(np.dot(w, f * p))
        total += 2.0 * lam * a * a / (1.0 - lam)
    return total


@pytest.mark.parametrize("c", [
    fgm(0.8),
    cosine_copula({1: 0.4, 2: -0.2, 3: 0.1}),
    # 16 periods: a handful of 16-point panels does not resolve them
    cosine_copula({32: 0.3}),
    shifted_legendre_copula({1: 0.3, 2: -0.2, 3: 0.1}),
    sine_cosine_copula(sin={1: 0.2}, cos={1: -0.15, 2: 0.1}),
    two_value_step(2.0, 0.5),
    # a jump close to 1: the pole of 1/(1-x) sits near the end of a panel
    two_value_step(0.02, 0.5),
    piecewise_sign([0.0, 0.3, 0.7, 1.0], [0.5, -0.4, 0.6]),
], ids=["fgm", "cosine", "cosine_high", "legendre", "sine_cosine", "step", "step_near_one",
        "sign"])
def test_long_run_variance_against_composite_rule(c):
    for t in (Uniform(), Bernoulli(0.3), Bernoulli(0.62), Exponential(1.0),
              Exponential(2.5)):
        assert abs(long_run_variance(c, t) - _reference_long_run_variance(c, t)) <= 1e-12


@pytest.mark.parametrize("c", [two_value_step(1.0, 1.0),
                               piecewise_sign([0.0, 0.5, 1.0], [2.0, 0.5]),
                               two_value_step(1.0, -1.0)])
def test_long_run_variance_refuses_non_mixing_chain(c):
    for t in (Uniform(), Bernoulli(0.5), Exponential(1.0)):
        with pytest.raises(ValueError, match="does not mix"):
            long_run_variance(c, t)


def test_weighted_estimator_degenerates_at_full_weight():
    u = np.linspace(0.02, 0.98, 60) ** 1.1
    est = estimate_mu(u)
    w1 = weighted_mu(est.mu1, est.mu2, 1.0, est.n_pairs)
    assert w1.estimate == pytest.approx(est.mu1, abs=1e-15)
    assert w1.variance == pytest.approx(1.0, abs=1e-15)
    assert w1.variance_delta == pytest.approx(1.0, abs=1e-15)
    w0 = weighted_mu(est.mu1, est.mu2, 0.0, est.n_pairs)
    assert w0.estimate == pytest.approx(-est.mu2 / 4.0, abs=1e-15)
    assert w0.variance_delta == pytest.approx(1.0 / 16.0, abs=1e-12)
    with pytest.raises(ValueError):
        weighted_mu(est.mu1, est.mu2, 1.5, est.n_pairs)


def test_weighted_variance_forms_coincide_only_at_endpoints():
    u = np.linspace(0.02, 0.98, 60) ** 1.1
    est = estimate_mu(u)
    mid = weighted_mu(est.mu1, est.mu2, 0.5, est.n_pairs)
    assert abs(mid.variance - mid.variance_delta) > 1e-3


def test_pair_averages_are_unbiased(pair_means):
    m1, m2 = pair_means
    se = 1.0 / math.sqrt((CLT_N - 1) * CLT_R)
    assert abs(m1.mean() - 0.05) < 4 * se
    assert abs(m2.mean() - (-0.2)) < 4 * se


def test_pair_average_scaled_variance_is_unit(pair_means):
    m1, m2 = pair_means
    scale = CLT_N - 1
    assert scale * m1.var() == pytest.approx(1.0, rel=0.1)
    assert scale * m2.var() == pytest.approx(1.0, rel=0.1)


def test_weighted_delta_variance_matches_monte_carlo(model_bank, pair_means):
    m1, m2 = pair_means
    first = estimate_mu(model_bank[0])
    for w in (0.3, 0.7):
        est = w * m1 - (1.0 - w) * m2 / 4.0
        mc_var = (CLT_N - 1) * est.var()
        predicted = weighted_mu(first.mu1, first.mu2, w, first.n_pairs).variance_delta
        assert mc_var == pytest.approx(predicted, rel=0.1)


def test_replicate_covariance_sign_tracks_coefficient_product():
    # off-diagonal of the replicate covariance carries the sign of -mu1*mu2;
    # the shared model's product 0.01 sits below replicate noise, so check
    # the sign on stronger copulas in both directions
    for mu2, want in ((-0.3, 0.06), (0.3, -0.06)):
        c = two_sine_model(0.2, mu2)
        rows = generate_chain_bank(c, 400, [(321, 0, 0, r) for r in range(1200)])
        a, b = rows[:, :-1], rows[:, 1:]
        p1 = np.mean(_phi(1, a) * _phi(1, b), axis=1)
        p2 = np.mean(_phi(2, a) * _phi(2, b), axis=1)
        off = np.cov(p1, p2)[0, 1] * 399
        assert off * want > 0.0
        assert abs(off - want) < 0.05


def test_chi2_statistic_distribution_matches_reference(model_bank):
    stats = np.array([chi2_statistic(estimate_mu(row), (0.05, -0.2))
                      for row in model_bank])
    # chi-square with 2 degrees has cdf 1 - exp(-x/2)
    for x in (2.0, 4.0, 5.991):
        emp = np.mean(stats <= x)
        assert abs(emp - (1.0 - math.exp(-x / 2.0))) < 0.02


def test_variance_formulas_positive_over_parameter_sweep():
    for mu1 in np.linspace(-0.11, 0.11, 23):
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert sigma2_indicator(a, mu1) > 0.0
        assert sigma2_exponential(1.0, mu1) > 0.0
        assert sigma2_exponential(5.0, mu1) > 0.0
        assert sigma2_uniform_mean(mu1) > 0.0


def test_mean_ci_covers_and_misses():
    x = np.full(100, 0.5)
    ci = mean_ci(x, sigma2=1.0 / 12.0, level=0.95)
    assert ci.covers(0.5)
    assert ci.covers(0.5 + 0.9 * (ci.upper - ci.estimate))
    assert not ci.covers(0.9)
    assert ci.n == 100 and ci.level == 0.95
    half = ci.upper - ci.estimate
    assert half == pytest.approx(1.959963985 * math.sqrt(1.0 / 12.0 / 100), abs=1e-8)


def test_wald_interval_validates():
    with pytest.raises(ValueError):
        wald_interval(0.0, 1.0, 10, 1.0)
    with pytest.raises(ValueError):
        wald_interval(0.0, -1.0, 10, 0.95)
    lo, hi = wald_interval(2.0, 0.0, 10, 0.95)
    assert lo == hi == 2.0
