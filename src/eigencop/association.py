"""Spearman and Kendall association measures for eigen-expansion copulas.

Each measure has two independent routes: a closed form per basis family,
and a quadrature route working from the CDF alone,

    rho = 12 * int int C(u,v) du dv - 3
    tau = 1 - 4 * int int d1C(u,v) * d2C(u,v) du dv.

The closed forms and the quadrature must agree to tight tolerance; the
test suite enforces that on random valid copulas of every family.  The
sign-flip family has no tabulated closed form, so "closed" mode falls
back to quadrature there and reports are flagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (Cosine, PiecewiseSign, ShiftedLegendre, SineCosine,
                    TwoValueStep, jump_points)
from .copula import SpectralCopula
from .quadrature import composite_rule, gauss_legendre_01

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4


def _family_rule(family, n_nodes: int = 64):
    cuts = jump_points(family)
    if cuts:
        return composite_rule(cuts, points_per_cell=8)
    return gauss_legendre_01(n_nodes)


def has_closed_forms(c: SpectralCopula) -> bool:
    return not isinstance(c.family, PiecewiseSign)


def _rho_closed(c: SpectralCopula) -> float:
    fam = c.family
    if isinstance(fam, SineCosine):
        # only the sine waves carry Spearman weight
        total = 0.0
        for k, lam in c.coeffs.entries:
            part, m = k
            if part == "sin":
                total += lam / m**2
        return 6.0 / _PI2 * total
    if isinstance(fam, Cosine):
        total = sum(lam / k**4 for k, lam in c.coeffs.entries if k % 2 == 1)
        return 96.0 / _PI4 * total
    if isinstance(fam, ShiftedLegendre):
        return c.coeffs.get(1)
    if isinstance(fam, TwoValueStep):
        a = fam.alpha
        return 3.0 * a * c.coeffs.get(1) / (1.0 + a) ** 2
    raise NotImplementedError


def _tau_closed(c: SpectralCopula) -> float:
    fam = c.family
    if isinstance(fam, SineCosine):
        sin_c = {k[1]: lam for k, lam in c.coeffs.entries if k[0] == "sin"}
        cos_c = {k[1]: lam for k, lam in c.coeffs.entries if k[0] == "cos"}
        total = 0.0
        for m, mu in sin_c.items():
            total += (4.0 * mu + 2.0 * cos_c.get(m, 0.0) * mu) / m**2
        return total / _PI2
    if isinstance(fam, Cosine):
        entries = dict(c.coeffs.entries)
        total = sum(lam / k**4 for k, lam in entries.items() if k % 2 == 1)
        ks = sorted(entries)
        for i, k in enumerate(ks):
            for j in ks[i + 1:]:
                if (k + j) % 2 == 1:
                    total += 2.0 * entries[k] * entries[j] / (j**2 - k**2) ** 2
        return 64.0 / _PI4 * total
    if isinstance(fam, ShiftedLegendre):
        # only adjacent indices couple: the antiderivative of one Legendre
        # function lives on its two polynomial neighbours
        entries = dict(c.coeffs.entries)
        total = (2.0 / 3.0) * entries.get(1, 0.0)
        for k in sorted(entries):
            nxt = entries.get(k + 1)
            if nxt is not None:
                total += 2.0 * entries[k] * nxt / ((2 * k + 1) * (2 * k + 3))
        return total
    if isinstance(fam, TwoValueStep):
        a = fam.alpha
        return 2.0 * a * c.coeffs.get(1) / (1.0 + a) ** 2
    raise NotImplementedError


def _rho_numeric(c: SpectralCopula, n_nodes: int = 64) -> float:
    x, w = _family_rule(c.family, n_nodes)
    vals = c.cdf(x[:, None], x[None, :])
    return 12.0 * float(w @ vals @ w) - 3.0


def _tau_numeric(c: SpectralCopula, n_nodes: int = 64) -> float:
    x, w = _family_rule(c.family, n_nodes)
    d1 = c.conditional_cdf(x[:, None], x[None, :])
    # the construction is symmetric, so d2C(u,v) = d1C(v,u): the transpose
    # holds the same floats a second evaluation would
    return 1.0 - 4.0 * float(w @ (d1 * d1.T) @ w)


def spearman_rho(c: SpectralCopula, method: str = "closed") -> float:
    """Spearman rank correlation of the copula.

    method "closed" uses the per-family formula (quadrature fallback for
    the sign-flip family); "numeric" always integrates the CDF.
    """
    if method == "numeric" or not has_closed_forms(c):
        return _rho_numeric(c)
    if method != "closed":
        raise ValueError("method must be 'closed' or 'numeric'")
    return _rho_closed(c)


def kendall_tau(c: SpectralCopula, method: str = "closed") -> float:
    """Kendall rank correlation, same method conventions as spearman_rho."""
    if method == "numeric" or not has_closed_forms(c):
        return _tau_numeric(c)
    if method != "closed":
        raise ValueError("method must be 'closed' or 'numeric'")
    return _tau_closed(c)


@dataclass(frozen=True)
class AssociationReport:
    rho_closed: float
    tau_closed: float
    rho_numeric: float
    tau_numeric: float
    rho_gap: float
    tau_gap: float
    closed_fallback: bool

    def as_dict(self) -> dict:
        return {
            "rho_closed": self.rho_closed,
            "tau_closed": self.tau_closed,
            "rho_numeric": self.rho_numeric,
            "tau_numeric": self.tau_numeric,
            "rho_gap": self.rho_gap,
            "tau_gap": self.tau_gap,
            "closed_fallback": self.closed_fallback,
        }


def associate(c: SpectralCopula) -> AssociationReport:
    """Both association measures by both routes, with their gaps."""
    rho_n = _rho_numeric(c)
    tau_n = _tau_numeric(c)
    if has_closed_forms(c):
        rho_c = _rho_closed(c)
        tau_c = _tau_closed(c)
        fallback = False
    else:
        rho_c, tau_c = rho_n, tau_n
        fallback = True
    return AssociationReport(rho_c, tau_c, rho_n, tau_n,
                             abs(rho_c - rho_n), abs(tau_c - tau_n), fallback)
