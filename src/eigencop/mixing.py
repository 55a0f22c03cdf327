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
phi on the grid, with several it is found from the tiles of the upper
triangle of the (exactly symmetric) matrix: one entry per tile, its probe,
is computed, and only the tiles whose bounds on the computed floats reach
outside the probes' range are scanned, in one vectorized pass (see
`copula._density_range`).  Fold 1's range is the one that validate()
computes and memoises; every later fold's comes from the same range
routine (`copula._grid_range`) applied to the coefficients that fold(n)
takes, with no copula, validity report or memo entry built per fold.  What
that range reads apart from the coefficients, phi on the grid, each term's
extremes there for a one-term table and, for several terms, phi in blocks
with the tiles' corner bounds and probe products, is shared by the folds:
the term table keeps it for the last grid size asked for, the walk fetches
it once, and each fold forms only its tile bounds and probe entries, one
product per bound and term: 1 + sum lambda * (least corner) for the low
bound and 1 + sum lambda * (greatest corner) for the high one, the two
corners swapped for lambda < 0.

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
from .copula import DENSITY_GRID_N, Record, SpectralCopula, _grid_range

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


def _fold_ranges(c: SpectralCopula, max_n: int, grid_n: int):
    """Grid ranges of folds 1..max_n of c, with no copula built past the
    first: fold 1's from validate(), fold n's from the coefficients that
    fold(n) takes, on the base's indices (an entry that underflowed in c may
    be missing from c's own entries).  A power that underflows to 0.0 leaves
    the sum, as it leaves fold(n)'s entries, so that a one-term remainder
    takes the one-term range; every |lambda| < 1, so it stays out."""
    rep = c.validate(grid_n)
    yield rep.grid_min_density, rep.grid_max_density
    base = c.fold_base if c.fold_base is not None else c.coeffs.entries
    grid_range = _grid_range(c.family, [k for k, _ in base], grid_n)
    for n in range(2, max_n + 1):
        lams = [lam ** (c.fold_power * n) for _, lam in base]
        if 0.0 in lams:
            base = [e for e, lam in zip(base, lams) if lam != 0.0]
            lams = [lam for lam in lams if lam != 0.0]
            grid_range = _grid_range(c.family, [k for k, _ in base], grid_n)
        yield grid_range(lams)


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
    for n, (gmin, gmax) in enumerate(_fold_ranges(c, max_n, grid_n), start=1):
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
