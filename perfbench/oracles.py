"""The benchmark's own reference formulas, written without eigencop.

A copula is described here by a spec, plain data that both this module and
the workloads read:

    ("sine_cosine", {}, [(("sin", 1), 0.05), (("sin", 2), -0.2)])
    ("cosine", {}, [(3, 0.4)])
    ("shifted_legendre", {}, [(1, 0.2), (2, 0.05)])
    ("two_value_step", {"alpha": 1.0}, [(1, 0.5)])
    ("piecewise_sign", {"breakpoints": (0.0, 0.4, 1.0)}, [(1, 0.24), (2, -0.3)])

The coefficients are the lambda_k of c(u, v) = 1 + sum lambda_k phi_k(u) phi_k(v).
Legendre indices are limited to 1..3, where the extrema have closed forms.
"""

from __future__ import annotations

import math

import numpy as np

S2 = math.sqrt(2.0)


def _legendre(n: int, y):
    # explicit polynomials; degree 4 is needed for the antiderivative of P_3
    return (np.ones_like(y), y, (3.0 * y * y - 1.0) / 2.0,
            (5.0 * y ** 3 - 3.0 * y) / 2.0,
            (35.0 * y ** 4 - 30.0 * y * y + 3.0) / 8.0)[n]


def phi_Phi(family: str, params: dict, k, x):
    """(phi_k(x), Phi_k(x)) for an array x in [0, 1]; Phi_k(0) = Phi_k(1) = 0."""
    if family == "sine_cosine":
        part, m = k
        w = 2.0 * math.pi * m
        if part == "sin":
            return S2 * np.sin(w * x), S2 * (1.0 - np.cos(w * x)) / w
        return S2 * np.cos(w * x), S2 * np.sin(w * x) / w
    if family == "cosine":
        w = k * math.pi
        return S2 * np.cos(w * x), S2 * np.sin(w * x) / w
    if family == "shifted_legendre":
        y = 2.0 * x - 1.0
        s = math.sqrt(2 * k + 1)
        return s * _legendre(k, y), (_legendre(k + 1, y) - _legendre(k - 1, y)) / (2.0 * s)
    if family == "two_value_step":
        ra = math.sqrt(params["alpha"])
        c = 1.0 / (params["alpha"] + 1.0)
        low = x < c
        return np.where(low, ra, -1.0 / ra), np.where(low, ra * x, ra * c - (x - c) / ra)
    if family == "piecewise_sign":
        bp = params["breakpoints"]
        a, b = bp[k - 1], bp[k]
        inv = 1.0 / math.sqrt(b - a)
        mid = 0.5 * (a + b)
        last = k == len(bp) - 1
        inside = (x >= a) & ((x < b) | (last & (x == 1.0)))
        phi = np.where(inside, np.where(x < mid, -inv, inv), 0.0)
        Phi = np.where((x > a) & (x < mid), -(x - a) * inv,
                       np.where((x >= mid) & (x < b), (x - b) * inv, 0.0))
        return phi, Phi
    raise ValueError(f"unknown family {family!r}")


def d1C(spec, u, v):
    """Conditional distribution function v + sum lambda_k phi_k(u) Phi_k(v)."""
    family, params, terms = spec
    out = np.array(v, dtype=float, copy=True)
    for k, lam in terms:
        out += lam * phi_Phi(family, params, k, u)[0] * phi_Phi(family, params, k, v)[1]
    return out


def extrema(family: str, params: dict, k) -> tuple[float, float]:
    """(min, max) of phi_k over [0, 1], in closed form."""
    if family in ("sine_cosine", "cosine"):
        return -S2, S2
    if family == "shifted_legendre":
        s = math.sqrt(2 * k + 1)
        return {1: (-s, s), 2: (-0.5 * s, s), 3: (-s, s)}[k]
    if family == "two_value_step":
        ra = math.sqrt(params["alpha"])
        return -1.0 / ra, ra
    bp = params["breakpoints"]
    inv = 1.0 / math.sqrt(bp[k] - bp[k - 1])
    return -inv, inv


def single_term_range(lo: float, hi: float, lam: float) -> tuple[float, float]:
    """Exact (min, max) of 1 + lam phi(u) phi(v) when phi spans [lo, hi], lo < 0 < hi."""
    big = max(lo * lo, hi * hi)
    if lam >= 0.0:
        return 1.0 + lam * lo * hi, 1.0 + lam * big
    return 1.0 - abs(lam) * big, 1.0 + abs(lam) * abs(lo * hi)


def analytic_margin(spec) -> float:
    """Lower bound on the density; the exact minimum for one term and for
    the disjointly supported sign-flip family."""
    family, params, terms = spec
    if family == "piecewise_sign":
        bp = params["breakpoints"]
        return 1.0 - max(abs(lam) / (bp[k] - bp[k - 1]) for k, lam in terms)
    margin = 1.0
    for k, lam in terms:
        lo, hi = extrema(family, params, k)
        margin += lam * lo * hi if lam > 0.0 else lam * max(lo * lo, hi * hi)
    return margin


def envelope(spec, n: int) -> float:
    """sup |c_n - 1| <= sum |lambda_k|^n sup phi_k^2 for the n-step density."""
    family, params, terms = spec
    return sum(abs(lam) ** n * max(x * x for x in extrema(family, params, k))
               for k, lam in terms)


def expected_verdict(spec) -> str:
    """validate() verdict that the exact range of a single-term copula implies."""
    family, params, ((k, lam),) = spec
    lo_d = single_term_range(*extrema(family, params, k), lam)[0]
    if abs(lo_d) <= 1e-12:
        return "valid_boundary"
    return "valid" if lo_d > 0.0 else "invalid"


def fold_ranges(spec, max_n: int):
    """Exact density range of each fold n = 1..max_n of a single-term copula."""
    family, params, ((k, lam),) = spec
    lo, hi = extrema(family, params, k)
    return [single_term_range(lo, hi, lam ** n) for n in range(1, max_n + 1)]


def expected_certificate(spec, max_n: int) -> tuple[str, int | None]:
    """(certificate, first certifying fold) that the exact fold ranges imply:
    sup c_n < 2 certifies outright, else the first n with inf c_n > 0.
    A range within 1e-12 of a threshold counts as touching it: fgm(1.0) has
    sup c_1 = 2 exactly, which rounding may put one ulp below 2."""
    lam = spec[2][0][1]
    if abs(lam) >= 1.0 - 1e-12:
        return "boundary_non_mixing", None
    bounded = None
    for n, (lo_d, hi_d) in enumerate(fold_ranges(spec, max_n), start=1):
        if hi_d < 2.0 - 1e-12:
            return "certified_less_than_two", n
        if bounded is None and lo_d > 1e-12:
            bounded = n
    if bounded is not None:
        return "certified_bounded_density", bounded
    return "inconclusive", None


def near_threshold(spec, max_n: int, delta: float) -> bool:
    """True when some fold's exact range lies within delta of a certificate
    threshold (inf = 0 or sup = 2), where a grid observation and the exact
    range can legitimately disagree."""
    return any(abs(lo_d) < delta or abs(hi_d - 2.0) < delta
               for lo_d, hi_d in fold_ranges(spec, max_n))


def piecewise_association(spec) -> tuple[float, float]:
    """Spearman rho and Kendall tau of a sign-flip copula:
    (3/4) sum lambda_k w_k^3 and (1/2) sum lambda_k w_k^3."""
    _, params, terms = spec
    bp = params["breakpoints"]
    s = sum(lam * (bp[k] - bp[k - 1]) ** 3 for k, lam in terms)
    return 0.75 * s, 0.5 * s


def binomial_band(trials: int, p: float, tail: float) -> tuple[int, int]:
    """Smallest lo and largest hi with P(X < lo) <= tail and P(X > hi) <= tail,
    X ~ Binomial(trials, p), from the exact pmf."""
    pmf = [math.comb(trials, j) * p ** j * (1.0 - p) ** (trials - j)
           for j in range(trials + 1)]
    lo, acc = 0, 0.0
    while acc + pmf[lo] <= tail:
        acc += pmf[lo]
        lo += 1
    hi, acc = trials, 0.0
    while acc + pmf[hi] <= tail:
        acc += pmf[hi]
        hi -= 1
    return lo, hi
