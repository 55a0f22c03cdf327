"""Copulas built from eigen-expansions over an orthonormal family.

A copula here has density

    c(u, v) = 1 + sum_k  lambda_k * phi_k(u) * phi_k(v)

with the phi_k drawn from one family in `basis` and a finite list of real
coefficients lambda_k.  Because every phi_k integrates to zero, the CDF is

    C(u, v) = u*v + sum_k lambda_k * Phi_k(u) * Phi_k(v)

with Phi_k the antiderivative of phi_k (zero at both endpoints), and the
derivative of C in its first argument is

    d1 C(u, v) = v + sum_k lambda_k * phi_k(u) * Phi_k(v),

which is the conditional distribution function driving Markov sampling.

Folding the copula with itself n times (the n-step transition copula of
the stationary chain) just raises every coefficient to the n-th power.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .basis import (Cosine, Family, PiecewiseSign, ShiftedLegendre,
                    SineCosine, TermTable, TwoValueStep, _count, _unit_array,
                    check_index, extrema, jump_points, term_table)
from .quadrature import split_rule

DENSITY_GRID_N = 512
BOUNDARY_TOL = 1e-12
GRID_NEG_TOL = 1e-9
_TILE = 8  # side of the square tiles that _density_range scans


def _key_order(k):
    # canonical sort: plain integer indices first, then (part, k) pairs
    if isinstance(k, tuple):
        return (1, k[0], k[1])
    return (0, "", k)


@dataclass(frozen=True)
class SpectralCoefficients:
    """Finite list of (index, coefficient) pairs, one per basis function.

    Entries are kept in a canonical order, duplicates are rejected and
    exact zeros are dropped.
    """

    entries: tuple

    def __post_init__(self):
        cleaned = []
        seen = set()
        for k, lam in self.entries:
            lam = float(lam)
            if not math.isfinite(lam):
                raise ValueError(f"coefficient for index {k!r} is not finite")
            if k in seen:
                raise ValueError(f"duplicate coefficient index {k!r}")
            seen.add(k)
            if lam != 0.0:
                cleaned.append((k, lam))
        cleaned.sort(key=lambda e: _key_order(e[0]))
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_pairs(cls, pairs) -> "SpectralCoefficients":
        if isinstance(pairs, dict):
            pairs = pairs.items()
        return cls(tuple(pairs))

    @property
    def values(self) -> tuple:
        return tuple(lam for _, lam in self.entries)

    @property
    def sup_abs(self) -> float:
        return max((abs(lam) for _, lam in self.entries), default=0.0)

    def __len__(self):
        return len(self.entries)


class Record:
    """Base of the frozen report dataclasses: `as_dict` gives the fields in
    declaration order, enums as their values and tuples as lists."""

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(x):
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


class Verdict(enum.Enum):
    VALID = "valid"
    VALID_BOUNDARY = "valid_boundary"
    INVALID = "invalid"


@dataclass(frozen=True)
class ValidityReport(Record):
    """Outcome of the two-route validity check.

    `analytic_margin` is the lower bound on the density implied by the
    coefficient condition (1 plus the worst-case signed term sum), built
    from `basis.extrema`; a nonnegative margin proves validity outright,
    except that the minimum of an even-index shifted Legendre function is
    its least value at the computed roots of P_k', accurate to rounding but
    not an enclosure, so a margin with such a term rests on it.  With one
    term the margin is exact, the density at a point where phi_k takes its
    extrema, so a margin below -GRID_NEG_TOL is INVALID even where the grid
    misses that point.  The grid fields record the observed density range
    on a midpoint grid, which adjudicates the cases the sufficient
    condition cannot settle.
    """

    analytic_ok: bool
    analytic_margin: float
    grid_min_density: float
    grid_max_density: float
    verdict: Verdict
    grid_shape: tuple = (DENSITY_GRID_N, DENSITY_GRID_N)


def _expansion(base, shape, lams, left, right):
    """base + sum_k lams[k] * left[k] * right[k], as an array of the given
    shape: the one place a copula's expansion is summed, term by term in
    place, each product (lams[k] * left[k]) * right[k]."""
    out, term = np.empty(shape), np.empty(shape)
    out[...] = base
    for lam, a, b in zip(lams, left, right):
        out += np.multiply(lam * a, b, out=term)
    return out


def _on_square(f, u, v):
    """f(U, V) on u and v as unit-interval arrays; a float for two scalars."""
    U, V = _unit_array(u, "u"), _unit_array(v, "v")
    out = f(U, V)
    return float(out) if U.ndim == 0 and V.ndim == 0 else out


@dataclass(frozen=True)
class SpectralCopula:
    """Eigen-expansion copula over one basis family.

    Instances are immutable; `fold` and the named constructors below are
    the intended ways to build new ones.  Evaluation methods broadcast
    numpy-style and accept scalars or arrays.
    """

    family: Family
    coeffs: SpectralCoefficients
    fold_base: tuple = field(default=None, compare=False, repr=False)
    fold_power: int = field(default=1, compare=False, repr=False)

    def __post_init__(self):
        # store the checked indices, so a numpy integer is kept as a plain int
        entries = self.coeffs.entries
        checked = [check_index(self.family, k) for k, _ in entries]
        if any(k is not e[0] for k, e in zip(checked, entries)):
            object.__setattr__(self, "coeffs", SpectralCoefficients(
                tuple(zip(checked, self.coeffs.values))))

    # -- evaluation ----------------------------------------------------

    @property
    def terms(self) -> TermTable:
        """phi_k and Phi_k of the copula's basis functions, in entry order."""
        return term_table(self.family, (k for k, _ in self.coeffs.entries))

    def _expand(self, u, v, base, left, right):
        # base(U, V) + sum_k lambda_k * left_k(U) * right_k(V), broadcast
        def f(U, V):
            return _expansion(base(U, V), np.broadcast_shapes(U.shape, V.shape),
                              self.coeffs.values, left(U), right(V))
        return _on_square(f, u, v)

    def density(self, u, v):
        t = self.terms
        return self._expand(u, v, lambda U, V: 1.0, t.phi, t.phi)

    def cdf(self, u, v):
        t = self.terms
        return self._expand(u, v, lambda U, V: U * V, t.Phi, t.Phi)

    def conditional_cdf(self, u, v):
        """Derivative of the CDF in the first argument: the distribution
        function of the next state given the current state u."""
        t = self.terms
        return self._expand(u, v, lambda U, V: V, t.phi, t.Phi)

    # -- structure -----------------------------------------------------

    def fold(self, n: int) -> "SpectralCopula":
        """n-step transition copula: coefficients raised to the n-th power.

        Powers are always taken from the original base coefficients, so
        repeated folding composes exactly: fold(fold(c, m), k) has
        bit-identical coefficients to fold(c, m*k).
        """
        base = self.fold_base if self.fold_base is not None else self.coeffs.entries
        power = self.fold_power * _count(n, "fold power", 1)
        entries = tuple((k, lam ** power) for k, lam in base)
        return SpectralCopula(self.family, SpectralCoefficients(entries),
                              fold_base=base, fold_power=power)

    def validate(self, grid_n: int = DENSITY_GRID_N) -> ValidityReport:
        return _validate_cached(self.family, self.coeffs, _count(grid_n, "grid_n", 2))

    def density_grid(self, grid_n: int = DENSITY_GRID_N) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint grid and the density matrix on it."""
        grid_n = _count(grid_n, "grid_n", 2)
        g = (np.arange(grid_n) + 0.5) / grid_n
        m = np.ones((grid_n, grid_n))
        for lam, p in zip(self.coeffs.values, self.terms.phi(g)):
            m += lam * np.outer(p, p)
        return g, m


def _analytic_margin(family: Family, coeffs: SpectralCoefficients) -> float:
    """Lower bound for the density over the square, as exact as
    `basis.extrema` (see ValidityReport).

    Generic families: each positive coefficient can at worst multiply
    (min phi)*(max phi), each negative one at worst the largest phi^2.
    PiecewiseSign functions have disjoint supports, so the bound is the
    exact per-cell one, 1 - max |lambda_k| / w_k.
    """
    if isinstance(family, PiecewiseSign):
        worst = 0.0
        for k, lam in coeffs.entries:
            a, b = family.cell(k)
            worst = max(worst, abs(lam) / (b - a))
        return 1.0 - worst
    margin = 1.0
    for k, lam in coeffs.entries:
        lo, hi = extrema(family, k)
        if lam > 0.0:
            margin += lam * lo * hi
        else:
            margin += lam * max(lo * lo, hi * hi)
    return margin


@lru_cache(maxsize=32)
def _tile_pairs(nb: int) -> tuple:
    """The block rows and columns of the tiles on and above the diagonal of
    an nb x nb block grid, as read-only arrays: they depend on nb alone, so
    every term table at one grid size shares them."""
    out = np.triu_indices(nb)
    for a in out:
        a.flags.writeable = False
    return out


def _scan_inputs(p: list) -> tuple:
    """What `_density_range` reads of p, phi_k on the grid with one array per
    term, none of it depending on the coefficients; the term table keeps it
    with p (`TermTable.from_grid`).  With at most one term, each term's
    least and greatest value.  With several, as read-only arrays: p cut into
    blocks of _TILE points, of shape (terms, _TILE, blocks), so that the
    blocks of a scan pass are gathered into one contiguous row per point,
    the last block padded with the grid's last point; for every term and
    tile, in rows of shape (terms, 3, tiles), the least of the products of
    its row block's and its column block's extreme p, the product of p at
    the tile's probe, the centre points of its two blocks, and the
    greatest of those products; and the tiles' block rows and columns, on
    and above the diagonal (`_tile_pairs`, shared by every table of the
    grid size)."""
    if len(p) < 2:
        return [(float(q.min()), float(q.max())) for q in p]
    nb = -(-p[0].size // _TILE)
    cols = np.take(p, np.arange(nb * _TILE).reshape(_TILE, nb, order="F"), axis=1, mode="clip")
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    bi, bj = _tile_pairs(nb)
    # take, not fancy indexing, so every (terms, tiles) array is C-ordered
    li, lj, ui, uj = (e.take(k, axis=1) for e in (lo, hi) for k in (bi, bj))
    a, b, c, d = li * lj, li * uj, ui * lj, ui * uj
    least = np.minimum(np.minimum(a, b), np.minimum(c, d))
    greatest = np.maximum(np.maximum(a, b), np.maximum(c, d))
    centre = cols[:, _TILE // 2]
    bounds = np.stack([least, centre.take(bi, axis=1) * centre.take(bj, axis=1), greatest],
                      axis=1)
    for arr in (cols, bounds):
        arr.flags.writeable = False
    return cols, bounds, bi, bj


def _tile_bounds(lams, bounds) -> np.ndarray:
    """Each tile's low bound, probe entry and high bound, as rows of shape
    (3, tiles): 1.0, then for each term in order lam times its row of
    `bounds` added, one product per bound and term, written through one
    buffer.  For lam >= 0 the low bound takes lam * (least corner) and the
    high bound lam * (greatest corner); for lam < 0 the row is read
    reversed, so the two swap.  Rounding is monotone, so these are the
    floats that the min and max of both products pick, up to the sign of a
    zero, which leaves every sum from 1.0 as it is."""
    out, buf = np.ones(bounds.shape[1:]), np.empty(bounds.shape[1:])
    for lam, row in zip(lams, bounds):
        out += np.multiply(lam, row if lam >= 0.0 else row[::-1], out=buf)
    return out


def _density_range(lams, grid) -> tuple[float, float]:
    """Min and max of 1 + sum lam * p[i] * p[j] over the midpoint grid.

    `lams` holds the coefficients and `grid` is `_scan_inputs(p)`, p the
    basis functions on the grid, one array per term.  The floats
    returned are those of the full matrix as the scan builds it:
    1.0, then for each term in order the rounded product p[i] * p[j], times
    lam, added.  Round-to-nearest is monotone, so a bound on an exact
    result bounds its rounding too.  An exact product over a box of inputs
    is extreme at a corner, lam * q is monotone in q (rising or falling by
    lam's sign) and a sum in each addend; so bounds carried through these
    steps in the scan's order hold for the computed floats.

    One term: the extremes are among the products of p's own min and max.
    Several terms: the grid is cut into square tiles of side _TILE, those
    on and above the diagonal (the matrix is exactly symmetric, as
    fl(a*b) = fl(b*a)), and each tile is bounded from the least and
    greatest p over its row block and its column block: lam times the
    least or the greatest corner product, one product per bound and term
    (`_tile_bounds`).  Each tile's probe, the entry at its
    blocks' centre points, is built with the same operations, so the least
    and greatest probe are entries of the matrix.  A tile whose bounds lie
    within theirs holds no new extreme; every other tile is scanned, a
    fixed number of tiles at a time.  Past the grid's edge a block repeats
    the last point, so a partial tile reads only entries of the matrix.
    """
    if not lams:
        return 1.0, 1.0
    if len(lams) == 1:
        (lam,), ((lo, hi),) = lams, grid
        vals = [1.0 + lam * (a * b) for a, b in ((lo, lo), (lo, hi), (hi, hi))]
        return min(vals), max(vals)
    cols, bounds, bi, bj = grid
    low, probed, high = _tile_bounds(lams, bounds)
    grid_min, grid_max = probed.min(), probed.max()
    todo = np.flatnonzero((low < grid_min) | (high > grid_max))
    step = 2**14 // _TILE**2  # tiles per pass: 128 KB per array
    for s in range(0, todo.size, step):
        t = todo[s:s + step]
        m, prod = np.ones((_TILE, _TILE, t.size)), np.empty((_TILE, _TILE, t.size))
        for lam, a, b in zip(lams, cols.take(bi[t], axis=2)[:, :, None],
                             cols.take(bj[t], axis=2)[:, None]):
            np.multiply(a, b, out=prod)
            prod *= lam
            m += prod
        grid_min, grid_max = min(grid_min, m.min()), max(grid_max, m.max())
    return float(grid_min), float(grid_max)


def _grid_range(family: Family, indices, grid_n: int):
    """The grid range of the copulas of (family, indices) at grid_n points:
    a function of their coefficients, in index order, that gives
    `_density_range`.  What the scan reads apart from the coefficients is
    kept by the term table and fetched here once, so every fold of a copula,
    and every copula of one (family, indices), reads the same."""
    grid = term_table(family, indices).from_grid(grid_n, _scan_inputs)
    return lambda lams: _density_range(lams, grid)


@lru_cache(maxsize=512)
def _validate_cached(family: Family, coeffs: SpectralCoefficients, grid_n: int) -> ValidityReport:
    margin = _analytic_margin(family, coeffs)
    analytic_ok = margin >= -BOUNDARY_TOL
    indices = [k for k, _ in coeffs.entries]
    grid_min, grid_max = _grid_range(family, indices, grid_n)(coeffs.values)

    # with one term the margin is the density at a point: the family's phi_k
    # attains both extrema, so a negative margin is a witness the grid can miss
    if grid_min < -GRID_NEG_TOL or (len(coeffs) == 1 and margin < -GRID_NEG_TOL):
        verdict = Verdict.INVALID
    elif abs(margin) <= BOUNDARY_TOL:
        verdict = Verdict.VALID_BOUNDARY
    else:
        # a clean grid adjudicates even when the sufficient condition fails
        verdict = Verdict.VALID
    return ValidityReport(analytic_ok, margin, grid_min, grid_max, verdict,
                          (grid_n, grid_n))


def star_product(a: SpectralCopula, b: SpectralCopula, n_nodes: int = 64):
    """Density of the Markov product of two copulas, as a quadrature
    closure integrating c_a(u, t) * c_b(t, v) over t.

    Serves as the independent oracle for `fold`: folding once must agree
    with the star product of a copula with itself.
    """
    cuts = sorted(set(jump_points(a.family)) | set(jump_points(b.family)))
    t, w = split_rule(cuts, 16, n_nodes)

    def product(U, V):
        return np.sum(a.density(U[..., None], t) * b.density(t, V[..., None]) * w, axis=-1)

    return lambda u, v: _on_square(product, u, v)


# -- named constructors -------------------------------------------------


def independence(family: Family = None) -> SpectralCopula:
    return SpectralCopula(family or Cosine(), SpectralCoefficients(()))


def cosine_copula(lambdas) -> SpectralCopula:
    """Copula over the half-period cosine family; `lambdas` maps index k
    to its coefficient."""
    return SpectralCopula(Cosine(), SpectralCoefficients.from_pairs(lambdas))


def sine_cosine_copula(sin=None, cos=None) -> SpectralCopula:
    """Copula over the full trigonometric family.

    `sin` holds coefficients of sqrt(2)*sin(2*pi*k*x) keyed by k, `cos`
    those of sqrt(2)*cos(2*pi*k*x).
    """
    pairs = []
    for part, coeffs in (("sin", sin), ("cos", cos)):
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            pairs.extend(((part, _count(k, f"{part} index", 1)), lam) for k, lam in items)
    return SpectralCopula(SineCosine(), SpectralCoefficients(tuple(pairs)))


def shifted_legendre_copula(lambdas) -> SpectralCopula:
    return SpectralCopula(ShiftedLegendre(), SpectralCoefficients.from_pairs(lambdas))


def fgm(theta: float) -> SpectralCopula:
    """Classic one-parameter quadratic-section copula, embedded via the
    first shifted Legendre function: coefficient theta/3 on index 1."""
    return shifted_legendre_copula({1: theta / 3.0})


def two_value_step(alpha: float, lam: float) -> SpectralCopula:
    return SpectralCopula(TwoValueStep(alpha), SpectralCoefficients(((1, lam),)))


def piecewise_sign(breakpoints, thetas) -> SpectralCopula:
    """Copula over a sign-flip family; theta_i scales the block on cell i
    and corresponds to coefficient theta_i * w_i."""
    fam = PiecewiseSign(tuple(breakpoints))
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != fam.n_cells:
        raise ValueError("need one theta per cell")
    entries = []
    for i, theta in enumerate(thetas, start=1):
        a, b = fam.cell(i)
        entries.append((i, theta * (b - a)))
    return SpectralCopula(fam, SpectralCoefficients(tuple(entries)))


def two_sine_model(mu1: float, mu2: float) -> SpectralCopula:
    """Copula with density 1 + mu1*phi1(u)phi1(v) + mu2*phi2(u)phi2(v),
    phi_k(x) = sqrt(2)*sin(2*pi*k*x).  Requires 2(|mu1|+|mu2|) <= 1."""
    if 2.0 * (abs(mu1) + abs(mu2)) > 1.0 + BOUNDARY_TOL:
        raise ValueError("two_sine_model requires 2(|mu1|+|mu2|) <= 1")
    return sine_cosine_copula(sin={1: mu1, 2: mu2})


def zero_association_model(mu1: float) -> SpectralCopula:
    """The mu2 = -4*mu1 member of the two-sine family, tuned so both
    Spearman and Kendall association vanish.  Valid beyond the generic
    sufficient condition; the grid check adjudicates up to |mu1| = 0.11."""
    if abs(mu1) > 0.11 + BOUNDARY_TOL:
        raise ValueError("zero_association_model requires |mu1| <= 0.11")
    return sine_cosine_copula(sin={1: mu1, 2: -4.0 * mu1})


# -- sine-system marginal-defect demonstration ---------------------------


@dataclass(frozen=True)
class CounterexampleRecord(Record):
    """Measurements for the half-period sine system used as a CDF recipe
    directly (no constant eigenfunction): the top margin C(u, 1) cannot
    reach u with any finite number of terms."""

    n_terms: int
    max_deviation: float
    argmax_u: float
    total_mass: float
    verdict: Verdict


def sine_counterexample(n_terms: int, grid_points: int = 4001) -> CounterexampleRecord:
    """Measure how far the truncated sine-system candidate stays from
    having a uniform top margin.  Its CDF is (2/pi^2) * sum (1/k^2)
    (1-cos k*pi*u)(1-cos k*pi*v) over the first `n_terms` odd k (even k do
    not enter the top margin), each coefficient forced to 1 so that the
    margin deficit vanishes term by term."""
    grid_points = _count(grid_points, "grid_points", 2)
    n_terms = _count(n_terms, "n_terms", 0)
    k = np.arange(1, 2 * n_terms, 2, dtype=float)
    u = np.linspace(0.0, 1.0, grid_points)
    # C(u, 1), which a genuine copula would return as u; C(1, 1) is the mass
    terms = ((1.0 / k**2) * (1.0 - np.cos(k * np.pi * u[:, None]))
             * (1.0 - np.cos(k * np.pi)))
    top = (2.0 / np.pi**2) * np.sum(terms, axis=-1)
    dev = np.abs(top - u)
    j = int(np.argmax(dev))
    return CounterexampleRecord(n_terms, float(dev[j]), float(u[j]), float(top[-1]),
                                Verdict.INVALID)
