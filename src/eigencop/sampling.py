"""Stationary Markov chains driven by an eigen-expansion copula.

Given the current state u and an independent innovation w ~ Uniform(0,1),
the next state is the root v of

    g(v) = d1C(u, v) - w = v + sum_k lambda_k * phi_k(u) * Phi_k(v) - w.

Every family is solved by one algorithm, safeguarded Newton iteration,
the numerical inversion of Devroye (1986, II.2): g'(v) is the copula
density c(u, v) = 1 + sum_k lambda_k * phi_k(u) * phi_k(v), built from the
same terms.  Iteration starts at v = w inside the bracket [0, 1], where
g(0) = -w and g(1) = 1 - w, and the sign of g at each iterate narrows the
bracket.  The next iterate is the Newton step v - g/c, or the bracket
midpoint when c <= 0 or the step leaves the open bracket; the midpoint
fallback keeps boundary copulas, whose density reaches 0, convergent.
Iteration stops when |g| <= RESIDUAL_TOL and returns the iterate, or when
the bracket is narrower than BRACKET_TOL and returns its midpoint; after
MAX_ITER iterations the last iterate is returned.  With no terms g(w) = 0,
so the innovation itself is returned.

The smooth families also return a Newton step without evaluating g
there when that evaluation could only confirm it.  For every u and v,
|g''(v)| = |sum_k lambda_k * phi_k(u) * phi_k'(v)| <= M =
sum_k |lambda_k| * S_k * D_k, where S_k = sup |phi_k| and D_k = sup |phi_k'|
is the family's slope bound (`TermTable.slopes`); M is one number per
copula, and a bank of several copulas takes the largest of theirs, which
bounds every lane.  For a Newton step t = v - q with q = g(v)/g'(v),
Taylor's theorem gives |g(t)| <= M q^2 / 2.  So when M q^2 <= RESIDUAL_TOL
the exact residual at t is at most RESIDUAL_TOL / 2, and the other half
covers the rounding of the evaluated g, about 1e-15: the full iteration
would evaluate g(t), find |g| <= RESIDUAL_TOL and return t.  The early
stop returns the same t one evaluation sooner, so every root is
bit-identical to the full iteration's, for any valid M; a larger M only
stops less often.  On the two-sine model it cuts the evaluations per step
from 4.2 to 3.3.  Replacing S_k by |phi_k(u)|, a bound formed
afresh at each step, would save 0.03 evaluations more and cost more than
that to form.  The step families have kinks in g, no slope bound and no
early stop.

On a step family g is piecewise linear in v, so a Newton step from a
point of the root's piece lands on the root, and Newton reaches that
piece in a few iterations.  Where the density is 0 on an interval, g is
flat there and every point of the flat is a root; the solver returns the
first one it meets.

Copulas that validate() calls INVALID are refused: their d1C(u, .) need
not be monotone, so a root need not be a conditional quantile.

Both phi_k and Phi_k come from the copula's `basis.TermTable`, and the
table compiles, once per (family, indices), the two pieces of code that
step a bank.  Every entry point steps a bank through one method,
`_Sampler.advance`: a bank is one matrix, each row first holds its
stream's draws, u_1 and then the innovations, and each step overwrites its
innovation with the state.  `generate_chain` is a one-row bank,
`generate_chain_bank` one row per seed key, and `next_state` a two-column
bank (u_prev, w) stepped once; a single copula's prepared sampler is
memoised.  A bank of at least FLOAT_PATH_LANES rows takes one
lane-vectorized step per time step, one numpy array per step: each Newton
iteration makes one call of the term sums `_SUMS`, the lines
g += s_k * (Phi_k) and c += s_k * (phi_k) compiled for arrays.  A
narrower one runs each row as a plain-float chain through the stepper
`_STEPPER`: the Newton loop with the same lines written into it, so that
no function is called per term, and with the same operations in the same
order, so both paths give the same floats.  Below FLOAT_PATH_LANES = 64
lanes numpy's per-call cost outweighs the vector arithmetic for most
families.  The measured float/array time ratios at 64 lanes (300-step
banks) are 0.75 for the two-sine model, 0.61 for cosine, 0.56 for the
two-value step, 0.47 for the sign flip and 1.44 for Legendre, and the
crossovers lie near 96 lanes for two-sine, 120 for cosine and the
two-value step, above 128 for the sign flip and near 45 for Legendre, whose
banks of 45 to 63 lanes so take the slower path.  One constant serves
every family, and the choice depends only on the row count.  Each path is
deterministic for a given seed key; per-replicate seed keys and
elementwise lane arithmetic make banks independent of how the replicates,
and the copulas of their lanes, are batched.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .basis import extrema
from .copula import SpectralCopula, Verdict

RESIDUAL_TOL = 1e-12
BRACKET_TOL = 1e-14
MAX_ITER = 100
FLOAT_PATH_LANES = 64


# -- marginal transforms -------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    pass


@dataclass(frozen=True)
class Exponential:
    """x = -rate * log(1 - u); the transformed variable has mean `rate`."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError("Exponential transform requires rate > 0")


@dataclass(frozen=True)
class Bernoulli:
    """x = 1 if u <= threshold else 0."""

    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("Bernoulli threshold must be in (0,1)")


MarginalTransform = Union[Uniform, Exponential, Bernoulli]


def apply_transform(transform: MarginalTransform, u):
    arr = np.asarray(u, dtype=float)
    if isinstance(transform, Uniform):
        return arr.copy()
    if isinstance(transform, Exponential):
        return -transform.rate * np.log1p(-arr)
    if isinstance(transform, Bernoulli):
        return (arr <= transform.threshold).astype(float)
    raise TypeError(f"unknown transform {transform!r}")


# -- reproducible innovation streams -------------------------------------


def innovation_stream(*keys: int) -> np.random.Generator:
    """Generator keyed by a tuple of nonnegative integers.

    Distinct key tuples give statistically independent streams, and the
    same tuple always reproduces the same draws, so replicate banks are
    reproducible regardless of scheduling order.
    """
    if not keys:
        raise ValueError("at least one key integer is required")
    for k in keys:
        if not isinstance(k, int) or k < 0:
            raise ValueError("stream keys must be nonnegative integers")
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


# -- conditional CDF inversion -------------------------------------------


# The float path runs one chain per call of a stepper compiled for the term
# table: the Newton loop below with each term's text in place of a call,
# s_k = lambda_k phi_k(u) set once per step, and the same operations in the
# same order as `_solve_vector`, whose term sums are the same lines compiled
# for arrays (`_SUMS`).  Their locals are lower-case words and the term
# text's constants upper-case names, so neither shadows the other.
# run(state, states, lams, bound, limits) steps the chain from state through
# the innovations in the list states, overwriting each with the state it
# gives, and returns the list; lams holds the K coefficients, bound is
# M >= |g''| on [0,1] (see the module docstring) or None, and limits holds
# MAX_ITER, RESIDUAL_TOL and BRACKET_TOL as the caller reads them.
_STEPPER = """\
def run(state, states, lams, bound, limits):
    max_iter, tol, bracket = limits
    l{k} = lams[{k}]
    for i, w in enumerate(states):
        x = state
        {shared}
        s{k} = l{k} * ({phi})
        lo, hi = 0.0, 1.0
        v = w
        for _ in range(max_iter):
            x = v
            {shared}
            g = v - w
            c = 1.0
            g += s{k} * ({Phi})
            c += s{k} * ({phi})
            if abs(g) <= tol:
                break
            if g < 0.0:
                lo = v
            else:
                hi = v
            mid = 0.5 * (lo + hi)
            if hi - lo <= bracket:
                v = mid
                break
            if c > 0.0:
                q = g / c
                z = v - q
                if lo < z < hi:
                    v = z
                    if bound is not None and bound * q * q <= tol:
                        break
                    continue
            v = mid
        state = states[i] = v
    return states
"""

# g + sum_k s_k Phi_k(x) and c + sum_k s_k phi_k(x), one s_k per lane
_SUMS = """\
def sums(x, g, c, s):
    {shared}
    g += s[{k}] * ({Phi})
    c += s[{k}] * ({phi})
    return g, c
"""


def _solve_vector(sums, s, w: np.ndarray, bound=None) -> np.ndarray:
    """The compiled stepper's solve lane by lane, with the same operations
    in the same order: sums is the table's compiled `_SUMS`, each s_k holds
    one value per lane, and bound is one M for every lane, or None.
    Finished lanes leave the working arrays."""
    out = np.empty_like(w)
    lane = np.arange(w.size)
    lo = np.zeros_like(w)
    hi = np.ones_like(w)
    v = w
    # g / c divides by 0, or overflows, only where c <= 0 or c is tiny; the
    # step test rejects those lanes, so one errstate serves every iteration
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            if not lane.size:
                return out
            g, c = sums(v, v - w, 1.0, s)
            hit = np.abs(g) <= RESIDUAL_TOL
            neg = g < 0.0
            lo = np.where(neg, v, lo)
            hi = np.where(neg, hi, v)
            mid = 0.5 * (lo + hi)
            closed = hi - lo <= BRACKET_TOL
            done = hit | closed
            q = g / c
            t = v - q
            step = (c > 0.0) & (lo < t) & (t < hi)
            if bound is not None:
                done |= step & (bound * q * q <= RESIDUAL_TOL)
            nxt = np.where(step, t, mid)
            if done.any():
                # an early stop returns its Newton step t, which is nxt there
                found = mid if bound is None else np.where(closed, mid, nxt)
                out[lane[done]] = np.where(hit, v, found)[done]
                keep = ~done
                lane, w, lo, hi, nxt = (a[keep] for a in (lane, w, lo, hi, nxt))
                s = [a[keep] for a in s]
            v = nxt
    out[lane] = v
    return out


class _Sampler:
    """A copula's terms, prepared for stepping banks; `rows` holds the
    coefficients of the one copula, or of each lane's copula when given one
    per lane, and `bound` the largest of their bounds M on |g''|, which
    bounds every lane, for the early stop (None for a step family).  A copula
    without terms joins any index set with coefficients 0, which leave g
    and c unchanged, so its lanes still return w."""

    def __init__(self, c):
        lanes = [c] if isinstance(c, SpectralCopula) else list(c)
        distinct = list(dict.fromkeys(lanes))
        base = max(distinct, key=lambda d: len(d.coeffs))
        table = base.terms
        for d in distinct:
            if (d.family != base.family
                    or tuple(k for k, _ in d.coeffs.entries) not in ((), table.indices)):
                raise ValueError("copulas of one bank must share one family "
                                 "and one index set")
            if d.validate().verdict is Verdict.INVALID:
                raise ValueError("cannot sample an INVALID copula: its d1C(u, .) "
                                 "is not a distribution function")
        zeros = (0.0,) * len(table.indices)
        self.rows = [d.coeffs.values or zeros for d in lanes]
        self.table = table

    @cached_property
    def stepper(self):
        return self.table.compiled(_STEPPER, math)["run"]

    @cached_property
    def sums(self):
        return self.table.compiled(_SUMS, np)["sums"]

    @cached_property
    def bound(self):
        table = self.table
        if table.slopes is None:
            return None
        # M bounds |g''| = |sum_k lambda_k phi_k(u) phi_k'(v)| for every u and v
        weights = [d * max(map(abs, extrema(table.family, k)))
                   for d, k in zip(table.slopes, table.indices)]
        return max(sum(abs(lam) * wk for lam, wk in zip(row, weights))
                   for row in dict.fromkeys(self.rows))

    def advance(self, u: np.ndarray) -> np.ndarray:
        """Step the bank u in place and return it.  Row i starts at
        u[i, 0], and step t overwrites the innovation u[i, t] with the
        state.  Below FLOAT_PATH_LANES rows each row runs as a plain-float
        chain through the compiled `stepper`, with its own coefficients (a
        one-copula sampler's one row serves every lane); otherwise each step
        is one `_solve_vector` call over all lanes."""
        bound = self.bound
        if len(u) < FLOAT_PATH_LANES:
            run = self.stepper
            limits = (MAX_ITER, RESIDUAL_TOL, BRACKET_TOL)
            rows = self.rows * len(u) if len(self.rows) == 1 else self.rows
            for row, lams in zip(u, rows):
                row[1:] = run(float(row[0]), row[1:].tolist(), lams, bound, limits)
            return u
        phi, sums = self.table.phi, self.sums
        lams = tuple(np.array(self.rows).T)
        for t in range(1, u.shape[1]):
            s = [lam * p for lam, p in zip(lams, phi(u[:, t - 1]))]
            u[:, t] = _solve_vector(sums, s, u[:, t], bound)
        return u


@lru_cache(maxsize=128)
def _one_sampler(c: SpectralCopula) -> _Sampler:
    # copulas are frozen and hashable; an INVALID one raises, and is not kept
    return _Sampler(c)


def _sampler(c) -> _Sampler:
    return _one_sampler(c) if isinstance(c, SpectralCopula) else _Sampler(c)


def next_state(c: SpectralCopula, u_prev, w):
    """Solve d1C(u_prev, v) = w for v.

    Scalars or 0-d arrays in, a float out; same-shape arrays in, an array
    of that shape out.  The lanes step as one step of a two-column bank
    (u_prev, w), so an array of FLOAT_PATH_LANES elements or more is
    solved vectorized and a smaller one lane by lane on plain floats.
    Every family is solved to the tolerances in the module header.
    """
    sampler = _sampler(c)
    u_arr = np.asarray(u_prev, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    if not (np.all((u_arr >= 0.0) & (u_arr <= 1.0)) and np.all((w_arr >= 0.0) & (w_arr <= 1.0))):
        raise ValueError("u_prev and w must lie in [0,1]")
    if u_arr.shape != w_arr.shape:
        raise ValueError("u_prev and w must have matching shapes")
    v = sampler.advance(np.column_stack([u_arr.ravel(), w_arr.ravel()]))[:, 1]
    return float(v[0]) if u_arr.ndim == 0 else v.reshape(u_arr.shape)


def sample_wl(lam: float, u_prev, q):
    """Closed-form next state for the symmetric two-value step copula
    (alpha = 1) with coefficient lam, |lam| <= 1.

    Four linear branches keyed on which half u_prev falls in and on which
    side of the conditional CDF value at 1/2 the innovation q falls.
    Scalars in, a float out; arrays are broadcast against each other and
    each lane goes through the same float formula.
    """
    if abs(lam) > 1.0:
        raise ValueError("sample_wl requires |lam| <= 1")
    d_plus = (1.0 + lam) if lam != -1.0 else 1.0
    d_minus = (1.0 - lam) if lam != 1.0 else 1.0
    scalar = isinstance(u_prev, (int, float)) and isinstance(q, (int, float))
    if scalar:
        lanes = ((float(u_prev), float(q)),)
    else:
        u, qq = np.broadcast_arrays(np.asarray(u_prev, dtype=float), np.asarray(q, dtype=float))
        lanes = zip(u.ravel().tolist(), qq.ravel().tolist())
    v = []
    for a, b in lanes:
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError("u_prev and q must lie in [0,1]")
        if a < 0.5:
            x = b / d_plus if b < 0.5 * (1.0 + lam) else (b - lam) / d_minus
        else:
            x = b / d_minus if b < 0.5 * (1.0 - lam) else (b + lam) / d_plus
        v.append(0.0 if x < 0.0 else 1.0 if x > 1.0 else x)
    return v[0] if scalar or u.ndim == 0 else np.reshape(v, u.shape)


@dataclass(frozen=True)
class ChainSample:
    """A stationary chain with uniform marginals plus its transformed
    companion series (equal to `values` under the Uniform transform)."""

    values: np.ndarray
    transformed: np.ndarray
    seed: int
    copula: SpectralCopula
    transform: MarginalTransform

    @property
    def n(self) -> int:
        return int(self.values.size)


def generate_chain(c: SpectralCopula, n: int, seed: int,
                   transform: MarginalTransform = Uniform()) -> ChainSample:
    """Length-n stationary chain: u_1 uniform, then n-1 conditional-CDF
    inversions, one innovation each, all from the stream keyed by seed:
    the one row of the bank with that key."""
    u = generate_chain_bank(c, n, [seed])[0]
    return ChainSample(u, apply_transform(transform, u), seed, c, transform)


def generate_chain_bank(c: SpectralCopula | Sequence[SpectralCopula], n: int,
                        seed_keys) -> np.ndarray:
    """Replicate bank of chains, shape (len(seed_keys), n).

    Each row r is driven by its own stream keyed by seed_keys[r] (an int
    or tuple of ints), with the same draw order as generate_chain; the row
    first holds those n draws, and each step overwrites its innovation
    with the state, so the bank is the only (r, n) array.  The bank is
    stepped by `_Sampler.advance`: with FLOAT_PATH_LANES rows or more, one
    vectorized time step at a time; with fewer, each row as a plain-float
    chain.

    `c` is one copula for every row, or a sequence of copulas, one per
    key, sharing one family and one index set (a copula without terms may
    join any), else ValueError; each distinct copula is validated once.
    Every row equals the row its key and copula give in a bank of their own.
    """
    keys = [k if isinstance(k, tuple) else (k,) for k in seed_keys]
    if not isinstance(n, int) or n < 1:
        raise ValueError("chain length must be a positive integer")
    r = len(keys)
    if not isinstance(c, SpectralCopula) and len(c) != r:
        raise ValueError("need one copula per seed key")
    if r == 0:
        return np.empty((0, n))
    u = np.empty((r, n))
    for i, key in enumerate(keys):
        innovation_stream(*key).random(n, out=u[i])
    return _sampler(c).advance(u)
