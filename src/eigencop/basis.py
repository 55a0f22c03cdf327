"""Orthonormal function families on [0,1] used as copula eigenfunctions.

Every family consists of mean-zero, unit-norm functions orthogonal to the
constant 1 (which is always an implicit member of the system).  Each
function comes with a closed-form antiderivative vanishing at both
endpoints, plus extrema, which the validity and mixing checks rely on.
The extrema are exact except the minimum of an even-index shifted
Legendre function, which is located on a 4096-point grid and sharpened by
bisection: an estimate, not a proven bound.

The formulas for phi_k and Phi_k are written once, in the per-family term
builders behind `TermTable`, which evaluates all of a copula's terms at x
in one call, as plain floats or as arrays.  `eval_phi`/`eval_Phi` and every
other module read them from there.  A step function is a list of pieces
(left edge, value, anchor), phi = value and Phi(x) = value * (x - anchor)
on a piece; one memoised table per step family (`_piece_table`) gives
its terms, extrema and jump points.  Next to each builder sits the
family's moment table (`moment_table`), r_k = 12 (int Phi_k)^2 and
G_kj = int phi_k Phi_j, and its slope bound D_k = sup |phi_k'|
(`TermTable.slopes`), which the sampler's stopping rule reads; the step
families have none, since their functions jump.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
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
        # for alpha below about 1.1e-16 the breakpoint rounds to 1, and phi_1
        # would be the constant sqrt(alpha), which is not mean-zero
        if not 0.0 < self.breakpoint < 1.0:
            raise ValueError(f"TwoValueStep requires 0 < 1/(alpha+1) < 1; alpha = "
                             f"{self.alpha!r} rounds it to {self.breakpoint!r}")

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


def jump_points(family: Family) -> tuple:
    """Interior discontinuity locations of the family (and of the
    antiderivatives' kinks), used to split quadrature panels."""
    if isinstance(family, (TwoValueStep, PiecewiseSign)):
        return _piece_table(family)[0]
    return ()


def _legendre_P(y, n: int) -> list:
    """[P_0(y), ..., P_n(y)], Legendre polynomials by the three-term
    recurrence, for a float or an array y (P_0 is the float 1.0)."""
    P = [1.0, y]
    for m in range(1, n):
        P.append(((2 * m + 1) * y * P[m] - m * P[m - 1]) / (m + 1))
    return P


@lru_cache(maxsize=128)
def _legendre_even_min(k: int) -> float:
    """Interior minimum of P_k on [-1,1] for even k.

    Located on a 4096-point grid, then sharpened by 50 bisection steps on
    the derivative sign change inside the bracketing grid cell.  This is
    a numerical estimate, not an enclosure: nothing bounds P_k between
    the grid points outside that cell.
    """
    grid = np.linspace(-1.0, 1.0, 4096)
    vals = _legendre_P(grid, k)[k]
    j = int(np.argmin(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]

    def deriv(y: float) -> float:
        if abs(y) >= 1.0:
            y = math.copysign(1.0 - 1e-12, y)
        P = _legendre_P(y, k)
        return k * (P[k - 1] - y * P[k]) / (1.0 - y * y)

    dlo, dhi = deriv(lo), deriv(hi)
    if dlo < 0.0 < dhi:
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if deriv(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    y_star = 0.5 * (lo + hi)
    return float(_legendre_P(y_star, k)[k])


# -- the term table: every phi/Phi formula, written once -------------------
#
# A builder turns (family, indices, ops) into (common, terms): common(x) is
# the work all terms share at x (the Legendre recurrence, the step piece
# lookup), None when they share none, and terms holds one (phi_k, Phi_k)
# pair of closures per index, each taking common(x), or x itself when common
# is None.  ops is math for the float form and numpy for the array form.
# The scalar chain step calls these closures directly, once per term and
# Newton iteration: in that loop a Python call costs about as much as a
# transcendental, and a list built per call costs more.
#
# A moment builder turns a family into the (r, g) pair `moment_table`
# returns.  Integrating by parts, g(j, k) = -g(k, j), so g(k, k) = 0.
#
# A slope builder gives D_k = sup |phi_k'| over [0, 1] for (family, k).


def _trig_terms(family, indices, ops):
    sin, cos = ops.sin, ops.cos

    def wave(is_sin, w):
        # sqrt(2) sin(w x) or sqrt(2) cos(w x), with its antiderivative
        if is_sin:
            return (lambda x: _SQRT2 * sin(w * x),
                    lambda x: _SQRT2 * (1.0 - cos(w * x)) / w)
        return (lambda x: _SQRT2 * cos(w * x),
                lambda x: _SQRT2 * sin(w * x) / w)

    if isinstance(family, Cosine):
        return None, [wave(False, k * math.pi) for k in indices]
    return None, [wave(part == "sin", 2.0 * math.pi * m) for part, m in indices]


def _trig_moments(family):
    if isinstance(family, Cosine):
        # int Phi_k = 2 sqrt(2) / (k pi)^2 for odd k and 0 for even k;
        # phi_k and Phi_j are orthogonal unless k + j is odd
        return (lambda k: 96.0 / (math.pi ** 4 * k**4) if k % 2 else 0.0,
                lambda k, j: 4.0 / (math.pi ** 2 * (j * j - k * k)) if (k + j) % 2 else 0.0)
    # int Phi = sqrt(2) / (2 pi m) for a sine wave and 0 for a cosine wave;
    # only a sine and a cosine wave of the same frequency m couple
    return (lambda k: 6.0 / (math.pi ** 2 * k[1] ** 2) if k[0] == "sin" else 0.0,
            lambda k, j: ((1.0 if k[0] == "sin" else -1.0) / (2.0 * math.pi * k[1])
                          if k[1] == j[1] and k[0] != j[0] else 0.0))


def _trig_slope(family, k):
    # sqrt(2) w for a wave of angular frequency w
    return _SQRT2 * (k * math.pi if isinstance(family, Cosine) else 2.0 * math.pi * k[1])


def _legendre_terms(family, indices, ops):
    # P_0..P_{K+1} at y = 2x - 1 from one recurrence pass serve every term
    top = max(indices, default=0) + 1

    def common(x):
        return _legendre_P(2.0 * x - 1.0, top)

    def term(k):
        # phi_k = sqrt(2k+1) P_k, Phi_k = (P_{k+1} - P_{k-1}) / (2 sqrt(2k+1))
        s = math.sqrt(2 * k + 1)
        return (lambda P: s * P[k]), (lambda P: (P[k + 1] - P[k - 1]) / (2.0 * s))

    return common, [term(k) for k in indices]


def _legendre_moments(family):
    # int Phi_1 = -1 / (2 sqrt 3) and int Phi_k = 0 for k >= 2; Phi_j lives
    # on P_{j-1} and P_{j+1}, so only neighbouring indices couple
    return (lambda k: 1.0 if k == 1 else 0.0,
            lambda k, j: ((k - j) / (2.0 * math.sqrt((2 * k + 1) * (2 * j + 1)))
                          if abs(k - j) == 1 else 0.0))


def _legendre_slope(family, k):
    # |P_k'| peaks at y = +-1, where it is k(k+1)/2, and dy/dx = 2
    return math.sqrt(2 * k + 1) * k * (k + 1)


def _pieces(family, k):
    # phi_k of a step family as (left edge, value, anchor), in edge order
    if isinstance(family, TwoValueStep):
        ra = math.sqrt(family.alpha)
        return [(0.0, ra, 0.0), (family.breakpoint, -1.0 / ra, 1.0)]
    # cell [a, b) of width w: -1/sqrt(w) on its left half, +1/sqrt(w) on its
    # right half, 0 outside
    a, b = family.cell(k)
    inv = 1.0 / math.sqrt(b - a)
    return [(0.0, 0.0, 0.0), (a, -inv, a), (0.5 * (a + b), inv, b), (b, 0.0, 0.0)]


@lru_cache(maxsize=64)
def _piece_table(family):
    """(cuts, rows) of a step family.  cuts are the interior edges of all
    its functions' pieces, so x lies on piece bisect_right(cuts, x) of every
    function, and rows[k - 1] holds phi_k's (values, anchors) on those
    pieces.  Edges at 1 are dropped: the last piece owns x = 1."""
    n = family.n_cells if isinstance(family, PiecewiseSign) else 1
    own = [_pieces(family, k) for k in range(1, n + 1)]
    edges = sorted({e for p in own for e, _, _ in p if e < 1.0})
    rows = []
    for p in own:
        # each edge takes the value and anchor of p's last piece that starts
        # at or before it
        left = [e for e, _, _ in p]
        rows.append(tuple(zip(*[p[bisect_right(left, e) - 1] for e in edges]))[1:])
    return tuple(edges[1:]), tuple(rows)


def _step_terms(family, indices, ops):
    # one search per evaluation finds x's piece, and every term indexes it
    cuts, rows = _piece_table(family)
    if ops is math:
        form, find = tuple, partial(bisect_right, cuts)
    else:
        form, find = np.array, partial(np.searchsorted, np.array(cuts), side="right")

    def common(x):
        return x, find(x)

    def term(k):
        values, anchors = map(form, rows[k - 1])
        return (lambda c: values[c[1]]), (lambda c: values[c[1]] * (c[0] - anchors[c[1]]))

    return common, [term(k) for k in indices]


def _two_value_moments(family):
    # int Phi_1 = sqrt(alpha) / (2 (1 + alpha)); G_11 = 0
    a = family.alpha
    return (lambda k: 3.0 * a / (1.0 + a) ** 2), (lambda k, j: 0.0)


def _sign_moments(family):
    # int Phi_k = -w^(3/2) / 4 on a cell of width w; the cells are disjoint,
    # so G = 0
    bp = family.breakpoints
    return (lambda k: 0.75 * (bp[k] - bp[k - 1]) ** 3), (lambda k, j: 0.0)


# per family: (term builder, moment builder, slope builder or None)
_BUILDERS = {SineCosine: (_trig_terms, _trig_moments, _trig_slope),
             Cosine: (_trig_terms, _trig_moments, _trig_slope),
             ShiftedLegendre: (_legendre_terms, _legendre_moments, _legendre_slope),
             TwoValueStep: (_step_terms, _two_value_moments, None),
             PiecewiseSign: (_step_terms, _sign_moments, None)}


def moment_table(family: Family):
    """(r, g) for the family: r(k) = 12 (int Phi_k)^2 and
    g(k, j) = int phi_k Phi_j, the entries of an antisymmetric matrix G.
    Vanishing entries are exact zeros.  Indices are not checked."""
    return _BUILDERS[type(family)][1](family)


class TermTable:
    """phi_k and Phi_k of a fixed list of basis functions of one family.

    `floats` and `arrays` are the two forms of the table, each a
    (common, terms) pair as the builders above return it: the float form
    runs on plain floats (math functions, bisect), the array form on numpy
    arrays (ufuncs, searchsorted), with the same formulas in the same
    order, so both give the same floats.  The methods evaluate every term
    at x, taking the float form for a plain float x, and return one value
    or array per index, in index order.  No domain check is made: x must
    lie in [0, 1].
    """

    def __init__(self, family: Family, indices):
        self.family = family
        self.indices = tuple(indices)
        for k in self.indices:
            check_index(family, k)
        self.arrays = _BUILDERS[type(family)][0](family, self.indices, np)

    @cached_property
    def floats(self):
        # only the samplers' scalar path and plain-float calls need it
        return _BUILDERS[type(self.family)][0](self.family, self.indices, math)

    @cached_property
    def slopes(self):
        """(D_k, ...) with D_k = sup |phi_k'| over [0, 1], in index order, or
        None for a step family."""
        slope = _BUILDERS[type(self.family)][2]
        return None if slope is None else tuple(slope(self.family, k) for k in self.indices)

    def _at(self, x):
        common, terms = self.floats if isinstance(x, float) else self.arrays
        return (x if common is None else common(x)), terms

    def phi(self, x) -> list:
        c, terms = self._at(x)
        return [phi(c) for phi, _ in terms]

    def Phi(self, x) -> list:
        c, terms = self._at(x)
        return [Phi(c) for _, Phi in terms]


def _eval_one(values, x, what: str):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{what} are defined on [0,1]")
    out = values(arr)[0]
    return float(out[0]) if scalar else out


@lru_cache(maxsize=256)
def _one_term(family: Family, k: Index) -> TermTable:
    # families are frozen dataclasses; k is checked before the lookup, so
    # the cache never equates an invalid index with a valid one (1.0 == 1)
    return TermTable(family, (k,))


def eval_phi(family: Family, k: Index, x):
    """Evaluate basis function k at x (scalar or array), vectorized."""
    check_index(family, k)
    return _eval_one(_one_term(family, k).phi, x, "basis functions")


def eval_Phi(family: Family, k: Index, x):
    """Closed-form antiderivative of basis function k, zero at 0 and 1."""
    check_index(family, k)
    return _eval_one(_one_term(family, k).Phi, x, "antiderivatives")


def extrema(family: Family, k: Index) -> tuple[float, float]:
    """(min, max) of basis function k over [0,1].

    Exact for every family except even-index ShiftedLegendre, whose
    interior minimum is a grid-plus-bisection estimate (see
    `_legendre_even_min`), not a proven bound.
    """
    check_index(family, k)
    if isinstance(family, (SineCosine, Cosine)):
        return (-_SQRT2, _SQRT2)
    if isinstance(family, ShiftedLegendre):
        scale = math.sqrt(2 * k + 1)
        if k % 2 == 1:
            return (-scale, scale)
        return (scale * _legendre_even_min(k), scale)
    values, _ = _piece_table(family)[1][k - 1]
    return (min(values), max(values))
