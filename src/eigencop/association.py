"""Spearman and Kendall association measures for eigen-expansion copulas.

Each measure has two independent routes.  The quadrature route works from
the CDF alone,

    rho = 12 * int int C(u,v) du dv - 3
    tau = 1 - 4 * int int d1C(u,v) * d2C(u,v) du dv.

The closed route puts the expansion of C into these integrals, which gives
one spectral formula for every family,

    rho = 12 * sum_k lambda_k m_k^2
    tau = (2/3) rho + 4 * sum_kj lambda_k lambda_j G_kj^2,

with m_k = int Phi_k and G_kj = int phi_k Phi_j read from the family's
moment table (`basis.moment_table`).  The two routes must agree to
tight tolerance; the test suite enforces that on random valid copulas of
every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import jump_points, moment_table
from .copula import Record, SpectralCopula
from .quadrature import split_rule


def _closed(c: SpectralCopula) -> tuple[float, float]:
    # fsum gives 0.0 when there are no terms and rounds each sum once
    r, g = moment_table(c.family)
    e = c.coeffs.entries
    rho = math.fsum(lam * r(k) for k, lam in e)
    cross = math.fsum(a * b * g(k, j) ** 2 for k, a in e for j, b in e)
    return rho, (2.0 / 3.0) * rho + 4.0 * cross


def _rho_numeric(c: SpectralCopula, n_nodes: int = 64) -> float:
    x, w = split_rule(jump_points(c.family), 8, n_nodes)
    vals = c.cdf(x[:, None], x[None, :])
    return 12.0 * float(w @ vals @ w) - 3.0


def _tau_numeric(c: SpectralCopula, n_nodes: int = 64) -> float:
    x, w = split_rule(jump_points(c.family), 8, n_nodes)
    d1 = c.conditional_cdf(x[:, None], x[None, :])
    # the construction is symmetric, so d2C(u,v) = d1C(v,u): the transpose
    # holds the same floats a second evaluation would
    return 1.0 - 4.0 * float(w @ (d1 * d1.T) @ w)


def spearman_rho(c: SpectralCopula, method: str = "closed") -> float:
    """Spearman rank correlation of the copula.

    method "closed" evaluates the spectral formula 12 * sum lambda_k m_k^2,
    the same for every family; "numeric" integrates the CDF.
    """
    if method == "numeric":
        return _rho_numeric(c)
    if method != "closed":
        raise ValueError("method must be 'closed' or 'numeric'")
    return _closed(c)[0]


def kendall_tau(c: SpectralCopula, method: str = "closed") -> float:
    """Kendall rank correlation, same method conventions as spearman_rho."""
    if method == "numeric":
        return _tau_numeric(c)
    if method != "closed":
        raise ValueError("method must be 'closed' or 'numeric'")
    return _closed(c)[1]


@dataclass(frozen=True)
class AssociationReport(Record):
    rho_closed: float
    tau_closed: float
    rho_numeric: float
    tau_numeric: float
    rho_gap: float
    tau_gap: float


def associate(c: SpectralCopula) -> AssociationReport:
    """Both association measures by both routes, with their gaps."""
    rho_n = _rho_numeric(c)
    tau_n = _tau_numeric(c)
    rho_c, tau_c = _closed(c)
    return AssociationReport(rho_c, tau_c, rho_n, tau_n,
                             abs(rho_c - rho_n), abs(tau_c - tau_n))
