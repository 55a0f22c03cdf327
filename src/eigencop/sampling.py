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

Both phi_k and Phi_k come from the copula's `basis.TermTable`.  Single
chains run through a plain-float scalar path on the table's float form.
Replicate banks, and `next_state` arrays, of at least FLOAT_PATH_LANES
lanes run through a lane-vectorized path, one numpy array per time step,
on its array form, with the same operations in the same order, so both
paths give the same floats.  Narrower ones step lane by lane on the float
path, each lane with its own coefficients: below about 32 lanes numpy's
per-call cost outweighs the vector arithmetic (measured crossovers:
about 33 lanes for a degree-5 Legendre copula and for FGM, 45-50 for the
two-sine model and both step families).  The choice depends only on the
lane count.  A bank is one matrix: each row first holds its stream's
draws, u_1 and then the innovations, and each step overwrites its
innovation with the state.  Each path is deterministic for a given seed
key; per-replicate seed keys and elementwise lane arithmetic make banks
independent of how the replicates, and the copulas of their lanes, are
batched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .basis import extrema
from .copula import SpectralCopula, Verdict

RESIDUAL_TOL = 1e-12
BRACKET_TOL = 1e-14
MAX_ITER = 100
FLOAT_PATH_LANES = 32


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


def _solve_scalar(common, terms, w: float, bound) -> float:
    """Root of g(v) = v + sum s_k*Phi_k(v) - w on [0,1]; terms holds
    (s_k, phi_k, Phi_k) with the closures of the table's float form,
    common is that form's shared part, and bound is M >= |g''| on [0,1]
    (see the module docstring), or None for a family without one."""
    lo, hi = 0.0, 1.0
    v = w
    for _ in range(MAX_ITER):
        g = v - w
        c = 1.0
        x = v if common is None else common(v)
        for s, phi, Phi in terms:
            g += s * Phi(x)
            c += s * phi(x)
        if abs(g) <= RESIDUAL_TOL:
            return v
        if g < 0.0:
            lo = v
        else:
            hi = v
        mid = 0.5 * (lo + hi)
        if hi - lo <= BRACKET_TOL:
            return mid
        if c > 0.0:
            q = g / c
            t = v - q
            if lo < t < hi:
                if bound is not None and bound * q * q <= RESIDUAL_TOL:
                    return t
                v = t
                continue
        v = mid
    return v


def _solve_vector(common, terms, w: np.ndarray, bound=None) -> np.ndarray:
    """_solve_scalar lane by lane, with the same operations in the same
    order, on the array form of the table; each s_k holds one value per
    lane, and bound is one M for every lane, or None.  Finished lanes leave
    the working arrays."""
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
            g = v - w
            c = 1.0
            x = v if common is None else common(v)
            for s, phi, Phi in terms:
                g = g + s * Phi(x)
                c = c + s * phi(x)
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
                terms = [(s[keep], phi, Phi) for s, phi, Phi in terms]
            v = nxt
    out[lane] = v
    return out


class _Sampler:
    """A copula's terms, prepared for chain generation; given one copula
    per lane, `rows` holds each lane's coefficients for the float path,
    `lams` one array per term with one value per lane for the array path,
    and `bound` the largest of the lanes' bounds M on |g''|, which bounds
    every lane, for the early stop (None for a step family).  A copula
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
        self.floats, self.arrays = table.floats, table.arrays

    @cached_property
    def lams(self):
        return tuple(np.array(self.rows).T)

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

    def next_scalar(self, u: float, w: float, lane: int = 0) -> float:
        common, terms = self.floats
        x = u if common is None else common(u)
        terms = [(lam * phi(x), phi, Phi) for lam, (phi, Phi) in zip(self.rows[lane], terms)]
        return _solve_scalar(common, terms, w, self.bound)

    def chain(self, u: float, w: list, lane: int = 0) -> list:
        """The states after u, one per innovation in w, on the float path."""
        out = []
        for wt in w:
            u = self.next_scalar(u, wt, lane)
            out.append(u)
        return out

    def next_vector(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        common, terms = self.arrays
        x = u if common is None else common(u)
        return _solve_vector(common, [(lam * phi(x), phi, Phi) for lam, (phi, Phi)
                                      in zip(self.lams, terms)], w, self.bound)


def next_state(c: SpectralCopula, u_prev, w):
    """Solve d1C(u_prev, v) = w for v.

    Scalars in, scalar out; same-shape arrays in, array out, lane by lane
    on the float path below FLOAT_PATH_LANES elements.  Every family is
    solved to the tolerances in the module header.
    """
    sampler = _Sampler(c)
    u_arr = np.asarray(u_prev, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    if not (np.all((u_arr >= 0.0) & (u_arr <= 1.0)) and np.all((w_arr >= 0.0) & (w_arr <= 1.0))):
        raise ValueError("u_prev and w must lie in [0,1]")
    if u_arr.ndim == 0 and w_arr.ndim == 0:
        return sampler.next_scalar(float(u_arr), float(w_arr))
    if u_arr.shape != w_arr.shape:
        raise ValueError("u_prev and w must have matching shapes")
    if u_arr.size < FLOAT_PATH_LANES:
        flat = np.array([sampler.next_scalar(a, b) for a, b
                         in zip(u_arr.ravel().tolist(), w_arr.ravel().tolist())])
    else:
        flat = sampler.next_vector(u_arr.ravel(), w_arr.ravel())
    return flat.reshape(u_arr.shape)


def sample_wl(lam: float, u_prev, q):
    """Closed-form next state for the symmetric two-value step copula
    (alpha = 1) with coefficient lam, |lam| <= 1.

    Four linear branches keyed on which half u_prev falls in and on which
    side of the conditional CDF value at 1/2 the innovation q falls.
    """
    if abs(lam) > 1.0:
        raise ValueError("sample_wl requires |lam| <= 1")
    d_plus = (1.0 + lam) if lam != -1.0 else 1.0
    d_minus = (1.0 - lam) if lam != 1.0 else 1.0
    if isinstance(u_prev, (int, float)) and isinstance(q, (int, float)):
        u, qq = float(u_prev), float(q)
        if not (0.0 <= u <= 1.0 and 0.0 <= qq <= 1.0):
            raise ValueError("u_prev and q must lie in [0,1]")
        if u < 0.5:
            v = qq / d_plus if qq < 0.5 * (1.0 + lam) else (qq - lam) / d_minus
        else:
            v = qq / d_minus if qq < 0.5 * (1.0 - lam) else (qq + lam) / d_plus
        return min(max(v, 0.0), 1.0)
    u = np.asarray(u_prev, dtype=float)
    qq = np.asarray(q, dtype=float)
    scalar = u.ndim == 0 and qq.ndim == 0
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((qq >= 0.0) & (qq <= 1.0))):
        raise ValueError("u_prev and q must lie in [0,1]")
    low_u = u < 0.5
    thr = np.where(low_u, 0.5 * (1.0 + lam), 0.5 * (1.0 - lam))
    first = qq < thr
    b1 = qq / d_plus
    b2 = (qq - lam) / d_minus
    b3 = qq / d_minus
    b4 = (qq + lam) / d_plus
    v = np.select([low_u & first, low_u & ~first, ~low_u & first],
                  [b1, b2, b3], default=b4)
    v = np.clip(v, 0.0, 1.0)
    return float(v) if scalar else v


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
    inversions, one innovation each, all from the stream keyed by seed."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("chain length must be a positive integer")
    u = innovation_stream(seed).random(n)
    u[1:] = _Sampler(c).chain(float(u[0]), u[1:].tolist())
    return ChainSample(u, apply_transform(transform, u), seed, c, transform)


def generate_chain_bank(c: SpectralCopula | Sequence[SpectralCopula], n: int,
                        seed_keys) -> np.ndarray:
    """Replicate bank of chains, shape (len(seed_keys), n).

    Each row r is driven by its own stream keyed by seed_keys[r] (an int
    or tuple of ints), with the same draw order as generate_chain; the row
    first holds those n draws, and each step overwrites its innovation
    with the state, so the bank is the only (r, n) array.  A bank of
    FLOAT_PATH_LANES lanes or more advances one vectorized time step at a
    time; a narrower one runs each lane as a plain-float chain.

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
    sampler = _Sampler([c] * r if isinstance(c, SpectralCopula) else c)
    if r < FLOAT_PATH_LANES:
        for i in range(r):
            u[i, 1:] = sampler.chain(float(u[i, 0]), u[i, 1:].tolist(), i)
        return u
    for t in range(1, n):
        u[:, t] = sampler.next_vector(u[:, t - 1], u[:, t])
    return u
