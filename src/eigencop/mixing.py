"""Mixing certificates for stationary chains driven by spectral copulas.

The n-step transition copula of such a chain is the same copula with each
coefficient raised to the n-th power, so the mixing coefficient of the
chain is controlled by sup_k |lambda_k|^n.  A chain is certifiably
psi-mixing once some n-step density is uniformly below 2 (psi' route) or
uniformly above 0 (psi* route); with all coefficients strictly inside the
unit interval either bound eventually holds, and the certificate records
the first n where the range of the folded density on a 512x512 midpoint
grid lands strictly inside the requisite half-space with numerical
headroom.  That is an observation on the grid, not a proof: the density
between grid points, and at the corners, is not looked at.

The range is the exact min and max of the grid's floats, computed without
building the grid: with one nonzero term it is read off the extremes of
phi on the grid, with several it is accumulated over 64-row blocks of the
upper triangle of the (exactly symmetric) matrix.  Every fold's range is
the one that validate() computes and memoises for the folded copula, from
phi on the grid, which the folds share: the term table keeps it once per
grid size.

Beside the grid ranges the report carries, for every family, the analytic
envelope |c_n - 1| <= E_n = sum_k |lambda_k|^n sup phi_k^2, with sup phi_k^2
from `basis.extrema` (for even-index shifted Legendre that is phi_k(1)^2 =
2k+1, not the estimated interior minimum).  No verdict uses it yet.

Coefficients on the unit circle (|lambda_k| = 1) keep every fold at sup 1
and the chain is not mixing; that case is reported as a boundary verdict
rather than searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import _count, extrema
from .copula import DENSITY_GRID_N, Record, SpectralCopula

SUP_BOUNDARY_TOL = 1e-12
DENSITY_HEADROOM = 1e-9
DEFAULT_MAX_N = 20


class Certificate(Enum):
    CERTIFIED_LESS_THAN_TWO = "certified_less_than_two"
    CERTIFIED_BOUNDED_DENSITY = "certified_bounded_density"
    BOUNDARY_NON_MIXING = "boundary_non_mixing"
    INCONCLUSIVE = "inconclusive"


def rho_sequence(c: SpectralCopula, n_max: int):
    """Geometric envelope sup_k|lambda_k|^n for n = 1..n_max."""
    n = np.arange(1, _count(n_max, "n_max", 1) + 1, dtype=float)
    return c.coeffs.sup_abs ** n


@dataclass(frozen=True)
class MixingReport(Record):
    sup_coefficient: float
    rho_sequence: tuple
    certificate: Certificate
    certified_n: int | None
    fold_density_ranges: tuple  # ((n, grid_min, grid_max), ...)
    decomp_bounds: tuple  # ((n, 1 - E_n, 1 + E_n), ...), () on the boundary
    grid_n: int
    max_n: int


def certify_psi(c: SpectralCopula, max_n: int = DEFAULT_MAX_N,
                grid_n: int = DENSITY_GRID_N) -> MixingReport:
    """Search folds n = 1..max_n for a uniform density bound certifying
    psi-mixing of the stationary chain."""
    max_n = _count(max_n, "max_n", 1)
    grid_n = _count(grid_n, "grid_n", 2)
    sup = c.coeffs.sup_abs
    rho = tuple(float(r) for r in rho_sequence(c, max_n))

    if sup >= 1.0 - SUP_BOUNDARY_TOL:
        return MixingReport(sup, rho, Certificate.BOUNDARY_NON_MIXING, None,
                            (), (), grid_n, max_n)

    ranges = []
    cert = Certificate.INCONCLUSIVE
    cert_n = None
    bounded_n = None
    for n in range(1, max_n + 1):
        # fold n's range on the grid, which validate() computes and memoises
        rep = c.fold(n).validate(grid_n)
        gmin, gmax = rep.grid_min_density, rep.grid_max_density
        ranges.append((n, gmin, gmax))
        if gmax < 2.0 - DENSITY_HEADROOM:
            cert = Certificate.CERTIFIED_LESS_THAN_TWO
            cert_n = n
            break
        if bounded_n is None and gmin > DENSITY_HEADROOM:
            bounded_n = n
    if cert is Certificate.INCONCLUSIVE and bounded_n is not None:
        cert = Certificate.CERTIFIED_BOUNDED_DENSITY
        cert_n = bounded_n

    # (|lambda_k|, sup phi_k^2); every |lambda_k| < 1 past the boundary
    # return, so the powers below cannot overflow
    w = [(abs(lam), max(x * x for x in extrema(c.family, k)))
         for k, lam in c.coeffs.entries]
    decomp = []
    for n in range(1, max_n + 1):
        e = math.fsum([a ** n * s for a, s in w])
        decomp.append((n, 1.0 - e, 1.0 + e))

    return MixingReport(sup, rho, cert, cert_n, tuple(ranges), tuple(decomp),
                        grid_n, max_n)
