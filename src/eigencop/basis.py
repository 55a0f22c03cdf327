"""Orthonormal function families on [0,1] used as copula eigenfunctions.

Every family consists of mean-zero, unit-norm functions orthogonal to the
constant 1 (which is always an implicit member of the system).  Each
function comes with a closed-form antiderivative vanishing at both
endpoints, plus extrema, which the validity and mixing checks rely on.
The extrema are exact except the minimum of an even-index shifted
Legendre function, the least value of P_k at the computed roots of P_k':
accurate to rounding, but not a proven bound.

The formulas for phi_k and Phi_k are written once, as expression text in
the per-family term builders, with every constant bound by name.
`term_table` gives the one `TermTable` of each (family, indices): that
text, its compiled forms and its values on the validity grid, memoised on
the table.  The work all terms share at x is written into the text as
well: for the trigonometric families, each term's argument w x, formed
once for phi and Phi; for shifted Legendre, y = 2x - 1 and the three-term
recurrence unrolled into one assignment per P_m (`_legendre_recurrence`),
so no form makes a call or builds a list per evaluation; for a step
family, the index of x's piece.  One routine,
`TermTable.compile`, fills a template with the text and runs it in a
`math` or a `numpy` namespace, so that every form has the same operations
in the same order: the list forms `phi(x)` and `Phi(x)`, which evaluate
all of a copula's terms at x in one call, as plain floats or as arrays,
and the sampler's chain stepper and term sums.  `eval_phi`/`eval_Phi` and
every other module read the terms from there.  A step function is a list
of pieces (left edge, value, anchor), phi = value and
Phi(x) = value * (x - anchor) on a piece; one memoised table per step
family (`_piece_table`) gives its terms, extrema and jump points.  Next to
each builder sits the family's moment table (`moment_table`),
r_k = 12 (int Phi_k)^2 and G_kj = int phi_k Phi_j, and its slope bound
D_k = sup |phi_k'| (`TermTable.slopes`), which the sampler's early-stop
rule for a smooth family reads; the step families have none, since their
functions jump, and their rule (`TermTable.stop`) asks instead whether a
Newton step stays on its iterate's piece.

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
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
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
        # a bool alpha would echo as a JSON true, which no record reads
        if isinstance(self.alpha, bool):
            raise ValueError("TwoValueStep alpha must be a number, not bool")
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
        # `not b1 < b2` also catches NaN; with both ends fixed, every edge
        # is then finite
        if any(not b1 < b2 for b1, b2 in zip(bp[:-1], bp[1:])):
            raise ValueError("breakpoints must be finite and strictly increasing")

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    def cell(self, k: int) -> tuple[float, float]:
        return self.breakpoints[k - 1], self.breakpoints[k]


Family = Union[SineCosine, Cosine, ShiftedLegendre, TwoValueStep, PiecewiseSign]


# the one check of values in [0, 1] and the one of counts: every public
# entry point reads such arguments through these two
def _unit_array(x, name: str) -> np.ndarray:
    """x as a float array; ValueError unless all of it lies in [0, 1] (NaN does not)."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0,1]")
    return arr


def _count(n, name: str, least: int) -> int:
    """operator.index(n) as a plain int; ValueError unless n is integral
    (numpy integers are), not a bool, and at least `least`."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"{name} must be an integer, not {type(n).__name__}")
    n = int(operator.index(n))
    if n < least:
        raise ValueError(f"{name} must be at least {least}")
    return n


def _whole(k, message: str) -> int:
    # k itself when it is a plain int >= 1, else read through _count
    if type(k) is int and k >= 1:
        return k
    try:
        return _count(k, "index", 1)
    except ValueError:
        raise ValueError(message) from None


def check_index(family: Family, k: Index) -> Index:
    """k as the family stores it, its integer read through `_count` as a
    plain int, which the term text relies on (`_int`); k itself when it
    already is one.  ValueError unless k is a valid function index for the
    family: numpy integers are, bools are not."""
    if isinstance(family, SineCosine):
        message = "SineCosine indices are ('sin', k) or ('cos', k) with k >= 1"
        if not (isinstance(k, tuple) and len(k) == 2 and k[0] in ("sin", "cos")):
            raise ValueError(message)
        n = _whole(k[1], message)
        return k if n is k[1] else (k[0], n)
    k = _whole(k, "indices are integers >= 1")
    if isinstance(family, TwoValueStep) and k != 1:
        raise ValueError("TwoValueStep has a single function, index 1")
    if isinstance(family, PiecewiseSign) and k > family.n_cells:
        raise ValueError(f"PiecewiseSign with {family.n_cells} cells has no index {k}")
    return k


def jump_points(family: Family) -> tuple:
    """Interior discontinuity locations of the family (and of the
    antiderivatives' kinks), used to split quadrature panels."""
    if isinstance(family, (TwoValueStep, PiecewiseSign)):
        return _piece_table(family)[0]
    return ()


@lru_cache(maxsize=128)
def _legendre_even_min(k: int) -> float:
    """Interior minimum of P_k on [-1,1] for even k: the least value of P_k
    at the roots of P_k' that numpy computes.  Accurate to rounding, but not
    an enclosure: nothing bounds the error of the computed roots."""
    p = np.polynomial.Legendre.basis(k)
    return float(min(p(p.deriv().roots().real)))


# -- the term table: every phi/Phi formula, written once -------------------
#
# A term builder turns (family, indices) into the text of a `TermTable`:
# phi_k and Phi_k of each index as expression text in x; the work all terms
# share at x as statements on one line, with no call for the smooth
# families: the trigonometric arguments a{i} = W{i} * x, y = 2x - 1 and the
# unrolled Legendre recurrence P0, P1, ..., P{K+1}, or the step piece index
# j; and the sampler's early-stop rule (see `sampling`): bound * q * q <= tol
# where a slope bound exists, and for a step family the test that the
# Newton step z lies on the iterate's piece j.
# The constants the text names (the frequencies W, sqrt(2k+1), the piece
# values, anchors and cuts) are bound by name, so no float is ever written as
# text; an integer enters the text only as the digits of a checked int,
# written by int.__repr__, which no subclass can change.  `TermTable.compile`
# is the one routine that turns the text into code: it fills a template and
# runs it in a namespace of math functions and bisect for plain floats, or of
# numpy ufuncs and searchsorted for arrays.
# `_FORMS` gives the table's two list forms, and the sampler fills its chain
# stepper and its array term sums the same way.
#
# A moment builder turns a family into the (r, g) pair `moment_table`
# returns.  Integrating by parts, g(j, k) = -g(k, j), so g(k, k) = 0.
#
# A slope builder gives D_k = sup |phi_k'| over [0, 1] for (family, k).

_int = int.__repr__

# the functions the term text calls, in each form
_OPS = {math: {"sin": math.sin, "cos": math.cos, "bisect_right": bisect_right},
        np: {"sin": np.sin, "cos": np.cos,
             "bisect_right": partial(np.searchsorted, side="right")}}

# the early stop of a family with a slope bound: M q^2 <= RESIDUAL_TOL
_SLOPE_STOP = "bound * q * q <= tol"

# phi(x) and Phi(x): the shared work once, then one value per index
_FORMS = """\
def phi(x):
    {shared}
    return [
        {phi},
    ]
def Phi(x):
    {shared}
    return [
        {Phi},
    ]
"""


@dataclass(frozen=True, eq=False)
class TermTable:
    """phi_k and Phi_k of a fixed list of basis functions of one family.

    `terms` holds one (phi_k, Phi_k) pair of expressions in x per index;
    `shared` is None or one line of statements in x, whose names every term
    reads; `stop` is the sampler's early-stop rule, an expression in the
    Newton step z = x - q, the bound and the tolerance tol; `constants` maps
    the other names the text uses to floats or tuples of floats.
    `term_table` gives the one table of each (family, indices).  `phi` and
    `Phi` evaluate every term at x and return one value or array per index,
    in index order: a plain float x runs the float form (math functions,
    bisect), anything else the array form (ufuncs, searchsorted), with the
    same formulas in the same order, so both give the same floats.  No
    domain check is made: x must lie in [0, 1].
    """

    family: Family
    indices: tuple
    shared: str | None
    terms: tuple
    stop: str
    constants: dict
    _memo: dict = field(default_factory=dict, repr=False)

    def namespace(self, ops) -> dict:
        """The globals that evaluate the text: ops is math for plain floats
        or numpy for arrays, whose constants are arrays."""
        if ops is math:
            return {**_OPS[math], **self.constants}
        return {**_OPS[np], **{name: np.array(v) if isinstance(v, tuple) else v
                               for name, v in self.constants.items()}}

    def source(self, template: str) -> str:
        """template with the text filled in: a line holding {shared} becomes
        the shared statements, or goes when there are none, {stop} becomes
        the stop rule, and each run of lines holding {k}, {phi} or {Phi} is
        repeated once per term, in index order, with the term's position and
        expressions."""
        out, run = [], []
        for line in template.splitlines(True) + [""]:
            if "{k}" in line or "{phi}" in line or "{Phi}" in line:
                run.append(line)
                continue
            out += [r.format(k=k, phi=phi, Phi=Phi)
                    for k, (phi, Phi) in enumerate(self.terms) for r in run]
            run = []
            if "{shared}" not in line:
                out.append(line.replace("{stop}", self.stop))
            elif self.shared is not None:
                out.append(line.format(shared=self.shared))
        return "".join(out)

    def compile(self, template: str, ns: dict) -> dict:
        """A copy of namespace ns, with the filled template run in it."""
        ns = dict(ns)
        exec(self.source(template), ns)
        return ns

    def compiled(self, template: str, ops) -> dict:
        """compile(template, namespace(ops)), run once per template and ops."""
        key = (template, ops)
        if key not in self._memo:
            self._memo[key] = self.compile(template, self.namespace(ops))
        return self._memo[key]

    def on_grid(self, n: int) -> list:
        """phi(x) on the midpoint grid x_i = (i + 0.5) / n, i < n: one
        read-only array per index, kept for the last n asked for, so that a
        caller who tries many grid sizes does not keep them all."""
        n_kept, values = self._memo.get("grid", (None, None))
        if n_kept != n:
            values = self.phi((np.arange(n) + 0.5) / n)
            for a in values:
                a.flags.writeable = False
            self._memo["grid"] = n, values
        return values

    @cached_property
    def slopes(self):
        """(D_k, ...) with D_k = sup |phi_k'| over [0, 1], in index order, or
        None for a step family."""
        slope = _BUILDERS[type(self.family)][2]
        return None if slope is None else tuple(slope(self.family, k) for k in self.indices)

    def phi(self, x) -> list:
        return self.compiled(_FORMS, math if isinstance(x, float) else np)["phi"](x)

    def Phi(self, x) -> list:
        return self.compiled(_FORMS, math if isinstance(x, float) else np)["Phi"](x)


def _trig_terms(family, indices):
    # sqrt(2) sin(w x) or sqrt(2) cos(w x), with its antiderivative; the
    # argument a = w x of each term is formed once, in the shared line
    constants, terms = {"SQRT2": _SQRT2}, []
    for i, k in enumerate(indices):
        part, w = (("cos", k * math.pi) if isinstance(family, Cosine)
                   else (k[0], 2.0 * math.pi * k[1]))
        constants[f"W{i}"] = w
        if part == "sin":
            terms.append((f"SQRT2 * sin(a{i})", f"SQRT2 * (1.0 - cos(a{i})) / W{i}"))
        else:
            terms.append((f"SQRT2 * cos(a{i})", f"SQRT2 * sin(a{i}) / W{i}"))
    shared = "; ".join(f"a{i} = W{i} * x" for i in range(len(indices))) or None
    return shared, tuple(terms), _SLOPE_STOP, constants


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


def _legendre_recurrence(n: int) -> str:
    """The Legendre polynomials P_0(y), ..., P_n(y) as statements
    `P0 = 1.0; P1 = y; P2 = (3.0 * y * P1 - 1.0 * P0) / 2.0; ...`, the
    three-term recurrence unrolled, for a float or an array y (P0 is the
    float 1.0).  Its constants are float literals, exact for these small
    integers, so a float y meets only float operands.  Every Legendre
    table's shared text runs it."""
    steps = ["P0 = 1.0", "P1 = y"]
    for m in range(1, n):
        a, b, c, d = map(_int, (m + 1, 2 * m + 1, m, m - 1))
        steps.append(f"P{a} = ({b}.0 * y * P{c} - {c}.0 * P{d}) / {a}.0")
    return "; ".join(steps)


def _legendre_terms(family, indices):
    # P_0..P_{K+1} at y = 2x - 1 from one unrolled recurrence serve every term:
    # phi_k = sqrt(2k+1) P_k, Phi_k = (P_{k+1} - P_{k-1}) / (2 sqrt(2k+1))
    top = max(indices, default=0) + 1
    constants, terms = {}, []
    for i, k in enumerate(indices):
        constants[f"S{i}"] = math.sqrt(2 * k + 1)
        terms.append((f"S{i} * P{_int(k)}",
                      f"(P{_int(k + 1)} - P{_int(k - 1)}) / (2.0 * S{i})"))
    shared = "y = 2.0 * x - 1.0; " + _legendre_recurrence(top)
    return shared, tuple(terms), _SLOPE_STOP, constants


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
    # one search per evaluation finds x's piece j, and every term indexes it;
    # the early stop asks whether the Newton step z lies on the same piece
    cuts, rows = _piece_table(family)
    constants, terms = {"CUTS": cuts}, []
    for i, k in enumerate(indices):
        constants[f"V{i}"], constants[f"A{i}"] = rows[k - 1]
        terms.append((f"V{i}[j]", f"V{i}[j] * (x - A{i}[j])"))
    return "j = bisect_right(CUTS, x)", tuple(terms), "bisect_right(CUTS, z) == j", constants


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
def _table(family: Family, indices: tuple) -> TermTable:
    # families are frozen dataclasses
    return TermTable(family, indices, *_BUILDERS[type(family)][0](family, indices))


def term_table(family: Family, indices) -> TermTable:
    """The one `TermTable` of (family, indices).  The indices are checked,
    and read as plain ints, before the lookup, so the cache never equates
    an invalid index with a valid one (1.0 == 1)."""
    return _table(family, tuple(check_index(family, k) for k in indices))


def _eval_one(values, x):
    arr = _unit_array(x, "x")
    out = values(np.atleast_1d(arr))[0]
    return float(out[0]) if arr.ndim == 0 else out


def eval_phi(family: Family, k: Index, x):
    """Evaluate basis function k at x (scalar or array), vectorized."""
    return _eval_one(term_table(family, (k,)).phi, x)


def eval_Phi(family: Family, k: Index, x):
    """Closed-form antiderivative of basis function k, zero at 0 and 1."""
    return _eval_one(term_table(family, (k,)).Phi, x)


def extrema(family: Family, k: Index) -> tuple[float, float]:
    """(min, max) of basis function k over [0,1].

    Exact for every family except even-index ShiftedLegendre, whose
    interior minimum is the least value at the computed roots of P_k'
    (see `_legendre_even_min`): accurate to rounding, not a proven bound.
    """
    k = check_index(family, k)
    if isinstance(family, (SineCosine, Cosine)):
        return (-_SQRT2, _SQRT2)
    if isinstance(family, ShiftedLegendre):
        scale = math.sqrt(2 * k + 1)
        if k % 2 == 1:
            return (-scale, scale)
        return (scale * _legendre_even_min(k), scale)
    values, _ = _piece_table(family)[1][k - 1]
    return (min(values), max(values))
