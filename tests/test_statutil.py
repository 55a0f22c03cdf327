import math

import numpy as np

from eigencop.statutil import chi2_cdf, normal_cdf, normal_quantile

from stat_helpers import (binomial_central_band, chi2_gof, chi2_quantile,
                          kolmogorov_sf, ks_two_sample, ks_uniform,
                          lag1_autocorrelation)


def test_normal_quantile_known_values():
    assert abs(normal_quantile(0.975) - 1.959963985) < 1e-8
    assert abs(normal_quantile(0.5)) < 1e-15
    assert abs(normal_quantile(0.995) - 2.575829304) < 1e-8


def test_normal_roundtrip():
    for p in np.linspace(0.001, 0.999, 57):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-12


def test_chi2_quantile_df2_closed_form():
    # df=2 is exponential: quantile is -2*log(1-p)
    for p in (0.5, 0.9, 0.95, 0.99):
        assert abs(chi2_quantile(p, 2) - (-2.0 * math.log1p(-p))) < 1e-10
    assert abs(chi2_quantile(0.95, 2) - 5.991464547) < 1e-8


def test_chi2_cdf_roundtrip():
    for df in (1, 2, 3, 10):
        for p in (0.05, 0.5, 0.95):
            assert abs(chi2_cdf(chi2_quantile(p, df), df) - p) < 1e-9


def test_chi2_gof_flat():
    stat, df, p = chi2_gof([10, 10, 10, 10], [10, 10, 10, 10])
    assert stat == 0.0 and df == 3 and abs(p - 1.0) < 1e-12


def test_kolmogorov_sf_known_values():
    # classical table: Q(1.36) ~ 0.049
    assert abs(kolmogorov_sf(1.36) - 0.049) < 5e-4
    assert kolmogorov_sf(0.1) == 1.0
    assert kolmogorov_sf(6.0) == 0.0


def test_ks_uniform_calibration():
    rng = np.random.default_rng(5)
    u = rng.random(4000)
    d, p = ks_uniform(u)
    assert p > 0.05
    d2, p2 = ks_uniform(u * 0.9)  # compressed: clearly not uniform
    assert p2 < 1e-6


def test_ks_two_sample_same_law():
    rng = np.random.default_rng(6)
    x = rng.random(3000)
    y = rng.random(3000)
    _, p = ks_two_sample(x, y)
    assert p > 0.05
    _, p2 = ks_two_sample(x, y**2)
    assert p2 < 1e-6


def test_binomial_band_frozen():
    lo, hi = binomial_central_band(1000, 0.95, 0.99)
    assert (lo, hi) == (931, 967)
    lo2, hi2 = binomial_central_band(10, 0.5, 0.95)
    assert 0 <= lo2 <= 5 <= hi2 <= 10


def test_lag1_autocorrelation_alternating():
    x = np.array([1.0, -1.0] * 50)
    assert lag1_autocorrelation(x) < -0.9
