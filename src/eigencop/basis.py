"""Orthonormal function families on [0,1] used as copula eigenfunctions.

Every family consists of mean-zero, unit-norm functions orthogonal to the
constant 1 (which is always an implicit member of the system).  Each
function comes with a closed-form antiderivative vanishing at both
endpoints, plus extrema, which the validity and mixing checks rely on.
The extrema are exact except the minimum of an even-index shifted
Legendre function, which is located on a 4096-point grid and sharpened by
bisection: an estimate, not a proven bound.

The formulas for phi_k and Phi_k are written once, as expression text in
the per-family term builders behind `TermTable` (`TermText`), with every
constant bound by name.  The text is evaluated in a `math` namespace and
in a `numpy` namespace, which gives the table's float and array forms with
the same operations in the same order, and the samplers compile the same
text into their plain-float chain stepper; the text and its compiled forms
are memoised per (family, indices).  `TermTable` evaluates all of a
copula's terms at x in one call, as plain floats or as arrays, and
`eval_phi`/`eval_Phi` and every other module read them from there.  A step
function is a list of pieces (left edge, value, anchor), phi = value and
Phi(x) = value * (x - anchor) on a piece; one memoised table per step
family (`_piece_table`) gives its terms, extrema and jump points.  Next to
each builder sits the family's moment table (`moment_table`),
r_k = 12 (int Phi_k)^2 and G_kj = int phi_k Phi_j, and its slope bound
D_k = sup |phi_k'| (`TermTable.slopes`), which the sampler's stopping rule
reads; the step families have none, since their functions jump.

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
# A term builder turns (family, indices) into a `TermText`: phi_k and Phi_k
# of each index as expression text in x, and the work all terms share at x
# (the Legendre recurrence P, the step piece index j) as one assignment.
# The constants the text names (the frequencies W, sqrt(2k+1), the piece
# values, anchors and cuts) are bound by name, so no float is ever written
# as text; an index enters the text only as the digits of a checked int,
# written by int.__repr__, which no subclass can change.  The text is
# evaluated in a namespace of math functions and bisect for plain floats
# and of numpy ufuncs and searchsorted for arrays, which gives the table's
# two closure forms, and the samplers compile the same text into a
# plain-float chain stepper.
#
# A moment builder turns a family into the (r, g) pair `moment_table`
# returns.  Integrating by parts, g(j, k) = -g(k, j), so g(k, k) = 0.
#
# A slope builder gives D_k = sup |phi_k'| over [0, 1] for (family, k).

_int = int.__repr__

# the functions the term text calls, in each form
_OPS = {math: {"sin": math.sin, "cos": math.cos, "bisect_right": bisect_right,
               "_legendre_P": _legendre_P},
        np: {"sin": np.sin, "cos": np.cos,
             "bisect_right": partial(np.searchsorted, side="right"),
             "_legendre_P": _legendre_P}}


@dataclass(frozen=True)
class TermText:
    """phi_k and Phi_k of a list of basis functions as expression text.

    `terms` holds one (phi_k, Phi_k) pair of expressions in x per index;
    `shared` is None or (name, expression in x), an assignment that every
    term reads by that name; `constants` maps the other names the text uses
    to floats or tuples of floats.  `floats` and `arrays` are the two
    closure forms, each a (common, terms) pair: common(x) is the shared
    work, None when there is none, and terms holds one (phi_k, Phi_k) pair
    of functions, each taking common(x), or x itself when common is None.
    """

    shared: tuple | None
    terms: tuple
    constants: dict

    def namespace(self, ops) -> dict:
        """The globals that evaluate the text: ops is math for plain floats
        or numpy for arrays, whose constants are arrays."""
        if ops is math:
            return {**_OPS[math], **self.constants}
        return {**_OPS[np], **{name: np.array(v) if isinstance(v, tuple) else v
                               for name, v in self.constants.items()}}

    def closures(self, ns: dict):
        """The (common, terms) form of the text, compiled in namespace ns."""
        if self.shared is None:
            arg, head, src = "x", "", []
        else:
            name, expr = self.shared
            arg, head = "_c", f"    x, {name} = _c\n"
            src = [f"def _common(x):\n    return x, {expr}\n"]
        for i, pair in enumerate(self.terms):
            src += [f"def _{tag}{i}({arg}):\n{head}    return {expr}\n"
                    for tag, expr in zip(("phi", "Phi"), pair)]
        exec("".join(src), ns)
        return (ns.get("_common"),
                [(ns[f"_phi{i}"], ns[f"_Phi{i}"]) for i in range(len(self.terms))])

    @cached_property
    def floats(self):
        return self.closures(self.namespace(math))

    @cached_property
    def arrays(self):
        return self.closures(self.namespace(np))


def _trig_terms(family, indices):
    # sqrt(2) sin(w x) or sqrt(2) cos(w x), with its antiderivative
    constants, terms = {"SQRT2": _SQRT2}, []
    for i, k in enumerate(indices):
        part, w = (("cos", k * math.pi) if isinstance(family, Cosine)
                   else (k[0], 2.0 * math.pi * k[1]))
        constants[f"W{i}"] = w
        if part == "sin":
            terms.append((f"SQRT2 * sin(W{i} * x)", f"SQRT2 * (1.0 - cos(W{i} * x)) / W{i}"))
        else:
            terms.append((f"SQRT2 * cos(W{i} * x)", f"SQRT2 * sin(W{i} * x) / W{i}"))
    return TermText(None, tuple(terms), constants)


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


def _legendre_terms(family, indices):
    # P_0..P_{K+1} at y = 2x - 1 from one recurrence pass serve every term:
    # phi_k = sqrt(2k+1) P_k, Phi_k = (P_{k+1} - P_{k-1}) / (2 sqrt(2k+1))
    top = max(indices, default=0) + 1
    constants, terms = {}, []
    for i, k in enumerate(indices):
        constants[f"S{i}"] = math.sqrt(2 * k + 1)
        terms.append((f"S{i} * P[{_int(k)}]",
                      f"(P[{_int(k + 1)}] - P[{_int(k - 1)}]) / (2.0 * S{i})"))
    return TermText(("P", f"_legendre_P(2.0 * x - 1.0, {_int(top)})"), tuple(terms), constants)


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


def _step_terms(family, indices):
    # one search per evaluation finds x's piece j, and every term indexes it
    cuts, rows = _piece_table(family)
    constants, terms = {"CUTS": cuts}, []
    for i, k in enumerate(indices):
        constants[f"V{i}"], constants[f"A{i}"] = rows[k - 1]
        terms.append((f"V{i}[j]", f"V{i}[j] * (x - A{i}[j])"))
    return TermText(("j", "bisect_right(CUTS, x)"), tuple(terms), constants)


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


@lru_cache(maxsize=256)
def _term_text(family: Family, indices: tuple) -> TermText:
    # families are frozen dataclasses; TermTable checks the indices before
    # the lookup, so the text and its compiled forms are shared by every
    # table of the same (family, indices)
    return _BUILDERS[type(family)][0](family, indices)


class TermTable:
    """phi_k and Phi_k of a fixed list of basis functions of one family.

    `text` is the table's `TermText`, and `floats` and `arrays` its two
    closure forms: the float form runs on plain floats (math functions,
    bisect), the array form on numpy arrays (ufuncs, searchsorted), with
    the same formulas in the same order, so both give the same floats.  The
    methods evaluate every term at x, taking the float form for a plain
    float x, and return one value or array per index, in index order.  No
    domain check is made: x must lie in [0, 1].
    """

    def __init__(self, family: Family, indices):
        self.family = family
        self.indices = tuple(indices)
        for k in self.indices:
            check_index(family, k)
        self.text = _term_text(family, self.indices)

    @property
    def floats(self):
        return self.text.floats

    @property
    def arrays(self):
        return self.text.arrays

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
