"""Orthonormal function families on [0,1] used as copula eigenfunctions.

Every family consists of mean-zero, unit-norm functions orthogonal to the
constant 1 (which is always an implicit member of the system).  Each
function comes with a closed-form antiderivative vanishing at both
endpoints, plus exact or numerically certified extrema, which the validity
and mixing checks rely on.

Families
--------
SineCosine      sqrt(2)*sin(2*pi*k*x) and sqrt(2)*cos(2*pi*k*x), k >= 1,
                indexed by ("sin", k) / ("cos", k)
Cosine          sqrt(2)*cos(k*pi*x), k >= 1
ShiftedLegendre sqrt(2k+1) * P_k(2x-1), k >= 1
TwoValueStep    one two-valued step function with jump at 1/(alpha+1)
PiecewiseSign   one sign flip per cell of a partition of [0,1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

Index = Union[int, tuple]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SineCosine:
    """Full trigonometric system: both sine and cosine waves of whole
    periods.  Indices are ("sin", k) or ("cos", k) with k >= 1."""


@dataclass(frozen=True)
class Cosine:
    """Half-period cosine system sqrt(2)*cos(k*pi*x), k >= 1."""


@dataclass(frozen=True)
class ShiftedLegendre:
    """Normalized Legendre polynomials shifted to [0,1]."""


@dataclass(frozen=True)
class TwoValueStep:
    """Single step function taking value sqrt(alpha) on [0, 1/(alpha+1))
    and -1/sqrt(alpha) on [1/(alpha+1), 1].  Only index 1 exists."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("TwoValueStep requires alpha > 0")

    @property
    def breakpoint(self) -> float:
        return 1.0 / (self.alpha + 1.0)


@dataclass(frozen=True)
class PiecewiseSign:
    """One normalized sign function per cell of a partition of [0,1].

    `breakpoints` lists all cell edges a_1 < ... < a_{s+1} with a_1 = 0 and
    a_{s+1} = 1.  Function k lives on [a_k, a_{k+1}), equals -1/sqrt(w_k)
    on the left half of its cell and +1/sqrt(w_k) on the right half, where
    w_k is the cell width.  Indices run 1..s.
    """

    breakpoints: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b2 <= b1 for b1, b2 in zip(bp[:-1], bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    def cell(self, k: int) -> tuple[float, float]:
        return self.breakpoints[k - 1], self.breakpoints[k]


Family = Union[SineCosine, Cosine, ShiftedLegendre, TwoValueStep, PiecewiseSign]


def check_index(family: Family, k: Index) -> None:
    """Raise ValueError unless k is a valid function index for the family."""
    if isinstance(family, SineCosine):
        ok = (isinstance(k, tuple) and len(k) == 2 and k[0] in ("sin", "cos")
              and isinstance(k[1], int) and k[1] >= 1)
        if not ok:
            raise ValueError("SineCosine indices are ('sin', k) or ('cos', k) with k >= 1")
        return
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("indices are integers >= 1")
    if isinstance(family, TwoValueStep) and k != 1:
        raise ValueError("TwoValueStep has a single function, index 1")
    if isinstance(family, PiecewiseSign) and k > family.n_cells:
        raise ValueError(f"PiecewiseSign with {family.n_cells} cells has no index {k}")


def is_step(family: Family) -> bool:
    return isinstance(family, (TwoValueStep, PiecewiseSign))


def jump_points(family: Family) -> tuple:
    """Interior discontinuity locations of the family (and of the
    antiderivatives' kinks), used to split quadrature panels."""
    if isinstance(family, TwoValueStep):
        return (family.breakpoint,)
    if isinstance(family, PiecewiseSign):
        cuts = []
        bp = family.breakpoints
        for a, b in zip(bp[:-1], bp[1:]):
            cuts.append(a)
            cuts.append(0.5 * (a + b))
        cuts.append(1.0)
        return tuple(c for c in cuts if 0.0 < c < 1.0)
    return ()


def _legendre(n: int, y):
    """Legendre polynomial P_n by the three-term recurrence."""
    y = np.asarray(y, dtype=float)
    if n == 0:
        return np.ones_like(y)
    p_prev = np.ones_like(y)
    p = y.copy()
    for m in range(1, n):
        p_prev, p = p, ((2 * m + 1) * y * p - m * p_prev) / (m + 1)
    return p


@lru_cache(maxsize=128)
def _legendre_even_min(k: int) -> float:
    """Interior minimum of P_k on [-1,1] for even k.

    Located on a 4096-point grid, then sharpened by 50 bisection steps on
    the derivative sign change inside the bracketing grid cell.
    """
    grid = np.linspace(-1.0, 1.0, 4096)
    vals = _legendre(k, grid)
    j = int(np.argmin(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]

    def deriv(y: float) -> float:
        if abs(y) >= 1.0:
            y = math.copysign(1.0 - 1e-12, y)
        pk = float(_legendre(k, y))
        pk1 = float(_legendre(k - 1, y))
        return k * (pk1 - y * pk) / (1.0 - y * y)

    dlo, dhi = deriv(lo), deriv(hi)
    if dlo < 0.0 < dhi:
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if deriv(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    y_star = 0.5 * (lo + hi)
    return float(_legendre(k, y_star))


def eval_phi(family: Family, k: Index, x):
    """Evaluate basis function k at x (scalar or array), vectorized."""
    check_index(family, k)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("basis functions are defined on [0,1]")

    if isinstance(family, SineCosine):
        part, m = k
        w = 2.0 * math.pi * m
        out = _SQRT2 * (np.sin(w * arr) if part == "sin" else np.cos(w * arr))
    elif isinstance(family, Cosine):
        out = _SQRT2 * np.cos(k * math.pi * arr)
    elif isinstance(family, ShiftedLegendre):
        out = math.sqrt(2 * k + 1) * _legendre(k, 2.0 * arr - 1.0)
    elif isinstance(family, TwoValueStep):
        a = family.alpha
        out = np.where(arr < family.breakpoint, math.sqrt(a), -1.0 / math.sqrt(a))
    else:
        a, b = family.cell(k)
        w = b - a
        inv = 1.0 / math.sqrt(w)
        mid = 0.5 * (a + b)
        inside = (arr >= a) & ((arr < b) | ((k == family.n_cells) & (arr == 1.0)))
        out = np.where(inside, np.where(arr < mid, -inv, inv), 0.0)

    return float(out[0]) if scalar else out


def eval_Phi(family: Family, k: Index, x):
    """Closed-form antiderivative of basis function k, zero at 0 and 1."""
    check_index(family, k)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("antiderivatives are defined on [0,1]")

    if isinstance(family, SineCosine):
        part, m = k
        w = 2.0 * math.pi * m
        if part == "sin":
            out = _SQRT2 * (1.0 - np.cos(w * arr)) / w
        else:
            out = _SQRT2 * np.sin(w * arr) / w
    elif isinstance(family, Cosine):
        w = k * math.pi
        out = _SQRT2 * np.sin(w * arr) / w
    elif isinstance(family, ShiftedLegendre):
        y = 2.0 * arr - 1.0
        out = (_legendre(k + 1, y) - _legendre(k - 1, y)) / (2.0 * math.sqrt(2 * k + 1))
    elif isinstance(family, TwoValueStep):
        a = family.alpha
        c = family.breakpoint
        ra = math.sqrt(a)
        out = np.where(arr < c, ra * arr, ra * c - (arr - c) / ra)
    else:
        a, b = family.cell(k)
        w = b - a
        inv = 1.0 / math.sqrt(w)
        mid = 0.5 * (a + b)
        out = np.select(
            [arr < a, arr < mid, arr < b],
            [0.0, -(arr - a) * inv, (arr - b) * inv],
            default=0.0,
        )

    return float(out[0]) if scalar else out


def extrema(family: Family, k: Index) -> tuple[float, float]:
    """(min, max) of basis function k over [0,1].

    Exact for every family except even-index ShiftedLegendre, whose
    interior minimum is certified numerically.
    """
    check_index(family, k)
    if isinstance(family, (SineCosine, Cosine)):
        return (-_SQRT2, _SQRT2)
    if isinstance(family, ShiftedLegendre):
        scale = math.sqrt(2 * k + 1)
        if k % 2 == 1:
            return (-scale, scale)
        return (scale * _legendre_even_min(k), scale)
    if isinstance(family, TwoValueStep):
        a = family.alpha
        return (-1.0 / math.sqrt(a), math.sqrt(a))
    a, b = family.cell(k)
    inv = 1.0 / math.sqrt(b - a)
    return (-inv, inv)
