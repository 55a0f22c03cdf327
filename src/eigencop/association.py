"""Spearman and Kendall association measures for eigen-expansion copulas.

`spearman_rho` and `kendall_tau` put the expansion of C into the rank
integrals, which gives one spectral formula for every family,

    rho = 12 * sum_k lambda_k m_k^2
    tau = (2/3) rho + 4 * sum_kj lambda_k lambda_j G_kj^2,

with m_k = int Phi_k and G_kj = int phi_k Phi_j read from the family's
moment table (`basis.moment_table`).  `associate` reports these next to
an independent quadrature route, which works from the CDF alone,

    rho = 12 * int int C(u,v) du dv - 3
    tau = 1 - 4 * int int d1C(u,v) * d2C(u,v) du dv,

and the gaps between them.  The two routes must agree to tight tolerance;
the test suite enforces that on random valid copulas of every family.

The quadrature rule is split at the family's jump points.  Its nodes and
weights, and phi and Phi at the nodes, depend on the term table alone, so
the table keeps them (`TermTable.on_rule`); each call forms the full node
grid matrices of C and d1C from them, with the expansion sum that
`SpectralCopula.cdf` and `conditional_cdf` use, so the floats are those of
a call to either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import moment_table
from .copula import Record, SpectralCopula, _expansion


def _closed(c: SpectralCopula) -> tuple[float, float]:
    # fsum gives 0.0 when there are no terms and rounds each sum once
    r, g = moment_table(c.family)
    e = c.coeffs.entries
    rho = math.fsum(lam * r(k) for k, lam in e)
    cross = math.fsum(a * b * g(k, j) ** 2 for k, a in e for j, b in e)
    return rho, (2.0 / 3.0) * rho + 4.0 * cross


def spearman_rho(c: SpectralCopula) -> float:
    """Spearman rank correlation of the copula, 12 * sum lambda_k m_k^2,
    the same formula for every family."""
    return _closed(c)[0]


def kendall_tau(c: SpectralCopula) -> float:
    """Kendall rank correlation of the copula by its spectral formula."""
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
    x, w, phi, Phi = c.terms.on_rule(8, 64)
    u, v, shape, lams = x[:, None], x[None, :], (x.size, x.size), c.coeffs.values
    # C and d1C on the node grid, summed as `cdf` and `conditional_cdf` sum them
    cdf = _expansion(u * v, shape, lams, [a[:, None] for a in Phi], [b[None, :] for b in Phi])
    rho_n = 12.0 * float(w @ cdf @ w) - 3.0
    d1 = _expansion(v, shape, lams, [a[:, None] for a in phi], [b[None, :] for b in Phi])
    # the construction is symmetric, so d2C(u,v) = d1C(v,u): the transpose
    # holds the same floats a second evaluation would
    tau_n = 1.0 - 4.0 * float(w @ (d1 * d1.T) @ w)
    rho_c, tau_c = _closed(c)
    return AssociationReport(rho_c, tau_c, rho_n, tau_n,
                             abs(rho_c - rho_n), abs(tau_c - tau_n))
