"""Estimators and central-limit machinery for copula-driven chains.

For the two-sine family (density 1 + mu1*phi1(u)phi1(v) + mu2*phi2(u)phi2(v)
with phi_k(x) = sqrt(2)*sin(2*pi*k*x)) the pair averages

    mu_hat_k = (1/(n-1)) * sum_i phi_k(U_i) * phi_k(U_{i+1})

are asymptotically normal with covariance [[1, -mu1*mu2], [-mu1*mu2, 1]],
which yields a two-degree chi-square statistic for joint hypotheses.
`long_run_variance` gives the variance behind Wald intervals for the mean
of a marginal transform along the chain of any copula; the
zero-association closed forms (indicator, exponential, plain mean) stay
as the published formulas it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SineCosine, _count, _unit_array, jump_points, moment_table, term_table
from .copula import Record, SpectralCopula
from .quadrature import composite_rule, log_weighted_sine_integral
from .sampling import Bernoulli, Exponential, MarginalTransform, Uniform
from .statutil import normal_quantile

_PI2 = math.pi ** 2

# squared projections of log(1-t) on the first two sine eigenfunctions,
# re-derived at import time by singularity-splitting quadrature
_LOG_SIN_1_SQ = log_weighted_sine_integral(1) ** 2
_LOG_SIN_2_SQ = log_weighted_sine_integral(2) ** 2


# phi_1 and phi_2, the two sine functions of the model
_SINES = term_table(SineCosine(), (("sin", 1), ("sin", 2)))


@dataclass(frozen=True)
class MuEstimate(Record):
    mu1: float
    mu2: float
    n_pairs: int
    covariance: tuple  # 2x2 plug-in covariance of the estimator pair


def sine_pair_means(values) -> tuple:
    """The pair averages (mu_hat_1, mu_hat_2) along the last axis: numpy
    scalars for one chain, one value per row for a bank of chains."""
    p1, p2 = _SINES.phi(np.asarray(values, dtype=float))
    return (np.mean(p1[..., :-1] * p1[..., 1:], axis=-1),
            np.mean(p2[..., :-1] * p2[..., 1:], axis=-1))


def estimate_mu(values) -> MuEstimate:
    """Pairwise coefficient estimates from one chain of uniforms."""
    u = _unit_array(values, "chain values")
    if u.ndim != 1 or u.size < 2:
        raise ValueError("need a 1-d chain with at least two values")
    m = u.size - 1
    mu1, mu2 = (float(mu) for mu in sine_pair_means(u))
    off = -mu1 * mu2 / m
    cov = ((1.0 / m, off), (off, 1.0 / m))
    return MuEstimate(mu1, mu2, m, cov)


def chi2_statistic(est: MuEstimate, mu0: tuple, paper_form: bool = False,
                   plug_in: bool = False) -> float:
    """Two-degree chi-square statistic for the joint null (mu1, mu2) = mu0.

    The default divisor 1 - (mu1*mu2)^2 comes from inverting the full
    asymptotic covariance; `paper_form` selects the variant with divisor
    1 - mu1*mu2 instead (the two differ by the factor 1 + mu1*mu2).
    `plug_in` evaluates the coefficient product at the estimates rather
    than at the null, for confidence-set use.
    """
    mu01, mu02 = float(mu0[0]), float(mu0[1])
    d1 = est.mu1 - mu01
    d2 = est.mu2 - mu02
    prod = est.mu1 * est.mu2 if plug_in else mu01 * mu02
    num = d1 * d1 + d2 * d2 + 2.0 * prod * d1 * d2
    div = (1.0 - prod) if paper_form else (1.0 - prod * prod)
    return est.n_pairs * num / div


# -- long-run variances of chain functionals ------------------------------


def sigma2_indicator(a: float, mu1: float) -> float:
    """Long-run variance of the mean of 1(U_i <= a) under the chain with
    coefficients (mu1, -4*mu1)."""
    if not 0.0 < a < 1.0:
        raise ValueError("threshold a must be in (0,1)")
    s1 = math.sin(math.pi * a) ** 4
    s2 = math.sin(2.0 * math.pi * a) ** 4
    return a * (1.0 - a) + (4.0 * mu1 / _PI2) * (s1 / (1.0 - mu1) - s2 / (1.0 + 4.0 * mu1))


def indicator_zero_effect_threshold(mu1: float) -> float:
    """Threshold a* where the chain dependence adds nothing to the
    indicator variance, found by bisection on the correction bracket."""

    def bracket(a: float) -> float:
        return (math.sin(math.pi * a) ** 4 / (1.0 - mu1)
                - math.sin(2.0 * math.pi * a) ** 4 / (1.0 + 4.0 * mu1))

    lo, hi = 1e-6, 0.5
    if not bracket(lo) < 0.0 < bracket(hi):
        raise ValueError("no sign change on (0, 1/2) for this mu1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bracket(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def indicator_zero_effect_closed(mu1: float) -> float:
    """Closed form of the zero-effect threshold: the correction vanishes
    where cos^4(pi*a) = (1+4*mu1) / (16*(1-mu1))."""
    r = ((1.0 + 4.0 * mu1) / (16.0 * (1.0 - mu1))) ** 0.25
    return math.acos(r) / math.pi


def sigma2_exponential(rate: float, mu1: float) -> float:
    """Long-run variance of the mean of -rate*log(1-U_i) under the chain
    with coefficients (mu1, -4*mu1)."""
    if not 0.0 < rate < math.inf:
        raise ValueError("sigma2_exponential requires 0 < rate < inf")
    corr = 4.0 * mu1 * (_LOG_SIN_1_SQ / (1.0 - mu1)
                        - 4.0 * _LOG_SIN_2_SQ / (1.0 + 4.0 * mu1))
    return rate * rate * (1.0 + corr)


def sigma2_uniform_mean(mu1: float) -> float:
    """Long-run variance of the plain mean of the chain itself."""
    return 1.0 / 12.0 + 5.0 * mu1 * mu1 / (_PI2 * (1.0 - mu1) * (1.0 + 4.0 * mu1))


# panel edges 1 - 2^-j: no panel below the last lies nearer to 1 than its width
_TOWARD_ONE = tuple(1.0 - 0.5 ** j for j in range(1, 25))


def _series(var: float, lams, a2) -> float:
    return math.fsum([var] + [2.0 * lam * sq / (1.0 - lam) for lam, sq in zip(lams, a2)])


def long_run_variance(c: SpectralCopula, transform: MarginalTransform) -> float:
    """Long-run variance of the mean of f(U_i), f the transform, along the
    chain of c: Var f + 2 sum_k lambda_k a_k^2 / (1 - lambda_k), a_k = int f phi_k.
    Uniform: a_k^2 = r_k / 12 (`basis.moment_table`).  Bernoulli(a):
    a_k = Phi_k(a).  Exponential(rate): a_k = -rate int Phi_k / (1 - x) by
    parts, bounded as Phi_k(1) = 0, on 16-point Gauss panels split at the
    jumps, at _TOWARD_ONE (the pole of 1/(1-x)) and at 2^m uniform cuts, m
    growing until two rules agree.  ValueError when some |lambda_k| >= 1:
    that chain does not mix and has no finite long-run variance."""
    lams = c.coeffs.values
    if any(abs(lam) >= 1.0 for lam in lams):
        raise ValueError("a coefficient with |lambda| >= 1: the chain does not "
                         "mix and has no finite long-run variance")
    if isinstance(transform, Uniform):
        r = moment_table(c.family)[0]
        return _series(1.0 / 12.0, lams, [r(k) / 12.0 for k, _ in c.coeffs.entries])
    if isinstance(transform, Bernoulli):
        a = float(transform.threshold)
        return _series(a * (1.0 - a), lams, [p * p for p in c.terms.Phi(a)])
    if not isinstance(transform, Exponential):
        raise TypeError(f"unknown transform {transform!r}")
    rate, last, cuts = transform.rate, math.nan, jump_points(c.family) + _TOWARD_ONE
    for m in range(3, 13):
        x, w = composite_rule(cuts + tuple(np.arange(1, 2 ** m) / 2 ** m), 16)
        ws = rate * w / (1.0 - x)
        s2 = _series(rate * rate, lams, [float(np.dot(ws, p)) ** 2 for p in c.terms.Phi(x)])
        if abs(s2 - last) <= 1e-14 * abs(s2):
            return s2
        last = s2
    raise ArithmeticError("the exponential projections did not converge")


# -- weighted coefficient estimator ---------------------------------------


@dataclass(frozen=True)
class WeightedMuEstimate(Record):
    """Convex reweighting of the two pair averages targeting mu1 on the
    zero-association family (where mu2 = -4*mu1).

    `variance` is the plug-in variance the interval construction uses,
    1 - 2*(1 - 4*mu^2)*(w - w^2); `variance_delta` is the delta-method
    variance of the same statistic from the joint CLT of the two pair
    averages, w^2 + (1-w)^2/16 - 2*w*(1-w)*mu^2.  The two coincide at
    w = 1 and disagree elsewhere; Monte Carlo matches the delta form.
    """

    weight: float
    estimate: float
    variance: float
    variance_delta: float
    n_pairs: int


def weighted_mu(mu1_hat, mu2_hat, weight: float, n_pairs: int) -> WeightedMuEstimate:
    """The weighted estimate and both its variances from the two pair
    averages, given as floats for one chain or as arrays with one value
    per replicate (the estimate and variances then are arrays too)."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be in [0,1]")
    w = float(weight)
    mu = w * mu1_hat - (1.0 - w) * mu2_hat / 4.0
    ww = w - w * w
    variance = 1.0 - 2.0 * (1.0 - 4.0 * mu * mu) * ww
    variance_delta = w * w + (1.0 - w) ** 2 / 16.0 - 2.0 * ww * mu * mu
    return WeightedMuEstimate(w, mu, variance, variance_delta, n_pairs)


# -- Wald intervals --------------------------------------------------------


@dataclass(frozen=True)
class MeanCI(Record):
    estimate: float
    variance: float
    level: float
    lower: float
    upper: float
    n: int

    def covers(self, target: float) -> bool:
        return self.lower <= target <= self.upper


def wald_interval(estimate: float, sigma2: float, n: int, level: float) -> tuple[float, float]:
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0,1)")
    if not (0.0 <= sigma2):
        raise ValueError("variance must be nonnegative")
    half = normal_quantile(0.5 * (1.0 + level)) * math.sqrt(sigma2 / _count(n, "n", 1))
    return estimate - half, estimate + half


def mean_ci(values, sigma2: float, level: float = 0.95) -> MeanCI:
    """Wald interval for the mean of a series given a long-run variance."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("need a 1-d series")
    est = float(x.mean())
    lo, hi = wald_interval(est, sigma2, x.size, level)
    return MeanCI(est, sigma2, level, lo, hi, int(x.size))
