"""Statistical helpers that only the tests use: chi-square quantiles and
goodness of fit, Kolmogorov-Smirnov distances, binomial bands and lag-1
autocorrelation.  Implemented directly, with no external statistics
dependency, and validated in test_statutil.py.
"""

from __future__ import annotations

import math

import numpy as np

from eigencop.statutil import chi2_cdf


def chi2_quantile(p: float, df: float) -> float:
    """Inverse chi-square CDF. df=2 has the closed form -2 log(1-p);
    other degrees of freedom are solved by bisection on the CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("chi2_quantile requires 0 < p < 1")
    if df == 2:
        return -2.0 * math.log1p(-p)
    lo, hi = 0.0, df + 1.0
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_gof(observed, expected) -> tuple[float, float, float]:
    """Pearson goodness-of-fit statistic, its degrees of freedom
    (cells - 1) and the upper-tail p-value."""
    obs = np.asarray(observed, dtype=float).ravel()
    exp = np.asarray(expected, dtype=float).ravel()
    if obs.shape != exp.shape:
        raise ValueError("observed and expected shapes differ")
    if np.any(exp <= 0.0):
        raise ValueError("expected counts must be positive")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    df = obs.size - 1
    return stat, float(df), 1.0 - chi2_cdf(stat, df)


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution."""
    if t <= 0.18:
        return 1.0
    if t > 5.0:
        return 0.0
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * t * t)
        total += term if j % 2 == 1 else -term
        if term < 1e-18:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_uniform(values) -> tuple[float, float]:
    """One-sample KS distance of `values` against Uniform(0,1) and the
    asymptotic p-value (with the usual small-sample correction factor)."""
    u = np.sort(np.asarray(values, dtype=float))
    n = u.size
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - u)
    d_minus = np.max(u - (i - 1.0) / n)
    d = float(max(d_plus, d_minus))
    root = math.sqrt(n)
    return d, kolmogorov_sf((root + 0.12 + 0.11 / root) * d)


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample KS distance and asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n, m = x.size, y.size
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / n
    cdf_y = np.searchsorted(y, pooled, side="right") / m
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = n * m / (n + m)
    root = math.sqrt(n_eff)
    return d, kolmogorov_sf((root + 0.12 + 0.11 / root) * d)


def binomial_central_band(trials: int, p: float, conf: float) -> tuple[int, int]:
    """Central binomial acceptance band: the pair of counts (lo, hi) with
    lo the conf-level lower quantile and hi the upper quantile of
    Binomial(trials, p), computed from the exact pmf."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    alpha = 1.0 - conf
    log_pmf = np.empty(trials + 1)
    lp, lq = math.log(p), math.log1p(-p)
    lgn = math.lgamma(trials + 1)
    for k in range(trials + 1):
        log_pmf[k] = (lgn - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                      + k * lp + (trials - k) * lq)
    cdf = np.cumsum(np.exp(log_pmf))
    lo = int(np.searchsorted(cdf, alpha / 2.0))
    hi = int(np.searchsorted(cdf, 1.0 - alpha / 2.0))
    return lo, min(hi, trials)


def lag1_autocorrelation(x) -> float:
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x[:-1], x[1:]) / denom)
