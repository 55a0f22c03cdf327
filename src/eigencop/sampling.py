"""Stationary Markov chains driven by an eigen-expansion copula.

Given the current state u and an independent innovation w ~ Uniform(0,1),
the next state is the root v of

    g(v) = d1C(u, v) - w = v + sum_k lambda_k * phi_k(u) * Phi_k(v) - w.

Every family is solved by one algorithm, safeguarded Newton iteration,
the numerical inversion of Devroye (1986, II.2): g'(v) is the copula
density c(u, v) = 1 + sum_k lambda_k * phi_k(u) * phi_k(v), built from the
same terms.  Iteration starts at v0 (below) inside the bracket [0, 1],
where g(0) = -w and g(1) = 1 - w, and the sign of g at each iterate narrows
the bracket.  The next iterate is the Newton step v - g/c, or the bracket
midpoint when c <= 0 or the step leaves the open bracket; the midpoint
fallback keeps boundary copulas, whose density reaches 0, convergent.
Iteration stops when |g| <= RESIDUAL_TOL and returns the iterate, or when
the bracket is narrower than BRACKET_TOL and returns its midpoint; after
MAX_ITER iterations the last iterate is returned.  With no terms g(w) = 0,
so the innovation itself is returned.

Every family also returns a Newton step z = v - q, q = g(v)/c, without
evaluating g there when that evaluation could only confirm it: the full
iteration would evaluate g(z), find |g| <= RESIDUAL_TOL and return z, and
the early stop returns the same z one evaluation sooner, so every root is
bit-identical to the full iteration's.  The stop rule is part of each
table's text (`TermTable.stop`), and both paths run it.

On a smooth family the rule is M q^2 <= RESIDUAL_TOL.  For every u and v,
|g''(v)| = |sum_k lambda_k * phi_k(u) * phi_k'(v)| <= M =
sum_k |lambda_k| * S_k * D_k, where S_k = sup |phi_k| and D_k = sup |phi_k'|
is the family's slope bound (`TermTable.slopes`); M is one number per
copula, and a bank of several copulas takes the largest of theirs, which
bounds every lane.  Taylor's theorem gives |g(z)| <= M q^2 / 2, so under
the rule the exact residual at z is at most RESIDUAL_TOL / 2, and the other
half covers the rounding of the evaluated g, about 1e-15.  This holds for
any valid M; a larger M only stops less often.  On the two-sine model the
stop cuts the evaluations per step from 3.0 to 2.0 (from 4.2 to 3.3 when
every solve starts at w).  Replacing S_k by |phi_k(u)|, a bound formed
afresh at each step, would save 0.03 evaluations more and cost more than
that to form.

On a step family the rule is that z lies on the iterate's piece j,
bisect_right(CUTS, z) == j.  There every phi_k is a constant V_k and
Phi_k(x) = V_k (x - A_k), so g is linear, with slope c = 1 + sum_k s_k V_k,
s_k = lambda_k phi_k(u) (as rounded, fixed for the step).  Let e = 2^-53,
K the number of terms and S = sum_k |lambda_k| sup phi_k^2, the largest of
a bank's rows; then |s_k V_k| <= |lambda_k| sup phi_k^2 up to a rounding,
and |c| <= 1 + S.  As v, w, z and the anchors A_k lie in [0, 1], the
float g and c differ from the exact linear function and its slope c~ by
at most (K + 3) e (1 + S) and (K + 1) e (1 + S).  A step inside the
bracket has |q| <= 1, q = (g / c)(1 + d) and z = v - q + r with |d| <= e,
|r| <= e, so the exact value at z is
    g~(z) = (g~(v) - g) - g d + q (c - c~) + c~ r,
at most (2K + 6) e (1 + S), and evaluating g at z adds (K + 3) e (1 + S):
|g(z)| <= B = (3K + 10) e (1 + S), with room for the second-order terms.
The sampler gives a step family a bound, and so the rule, only when
B <= RESIDUAL_TOL: for a two-value step, S = |lambda| max(alpha, 1/alpha)
up to 691, and for a sign flip at full strength (S = K) up to 52 cells;
beyond that it keeps the full iteration.  No 1/c enters B, so it holds
where c is tiny or 0 on a piece, as on boundary copulas, whose density is
0 on whole blocks: c <= 0 takes the midpoint, and a c below RESIDUAL_TOL
gives a step inside the bracket only if |g(v)| <= |c|, where the residual
test has already stopped.  The rule cuts the evaluations per
step from 2.25 to 1.25 on the two-value step (alpha = 1, lambda = 0.5) and
from 1.67 to 1.15 on a two-cell sign flip.  Where the density is 0 on an
interval, g is flat there and every point of the flat is a root; the
solver returns the first one it meets.

On a smooth family with terms each solve starts at v0 = clamp(w + delta,
0, 1), where delta(u, w) = Q(u, w) - w, the conditional quantile less the
innovation, is read bilinearly from the cell of (u, w) of the copula's
start table (`_start_table`), the fast numerical inversion of Hormann and
Leydold (2003): delta at the 65 x 65 nodes (i / START_N, j / START_N).
The table is built without a solve at the copula's first stepping, from
d1C on a 65 x 129 (u, v) grid with each row inverted by linear
interpolation (0.2-0.3 ms for two or three terms, 0.8 ms for 30 Legendre
terms), and depends on its copula alone.  The clamp keeps v0 in the
bracket where rounding leaves [0, 1].  A step family, whose solve takes
1.1-1.3 evaluations, and a copula without terms start at v0 = w and read
no table, so a term-free lane still returns its innovation bit for bit (in
an array-path bank beside copulas with terms, its lanes read zeros, and
w + 0.0 = w).

After the table each such solve takes one model step, the cheap
correction that follows the guide table in fast numerical inversion: a
Newton step from v0 on a piecewise-linear model of the copula's own basis
functions, read with no trig from their values at the nodes i / MODEL_N
(`_model_nodes`).  With N = MODEL_N, j = int(v0 N) and f = v0 N - j,

    Phi~_k = F_k[j] + f dF_k[j],   phi~_k = P_k[j] + f dP_k[j],
    g~ = (v0 - w) + sum_k s_k Phi~_k,   c~ = 1 + sum_k s_k phi~_k,

summed term by term in `_SUMS`'s order, where F_k and P_k are Phi_k and
phi_k at the nodes and dF_k[j] = F_k[j + 1] - F_k[j], 0 at j = N, so v0 = 1
needs no branch; v0 becomes clamp(v0 - g~/c~, 0, 1) where c~ > 0 and is
kept otherwise.  The exact solve then starts there, and its early stop
usually fires at the first evaluation.  Neither the table nor the model
step changes a stop rule: the residual test, the bracket and MAX_ITER act
on any iterate, and both early-stop bounds hold at any iterate inside the
bracket, so every state is still a root to RESIDUAL_TOL; only which root
within that tolerance is returned moves, by at most 3.4e-11 over the
identity catalogue with the table and again with the model step.
Evaluations per step over 200,000 random (u, w), with the early stop (and
without it):

    copula                            from v = w     from the table  + model step
    two-sine (0.05, -0.2)             3.28 (4.19)    2.02 (2.99)     1.04 (2.00)
    cosine {1: .3, 2: -.15}           3.65 (4.55)    2.00 (2.92)     1.02 (2.01)
    Legendre {1: .2, 2: .05}          3.30 (4.16)    1.97 (2.87)     1.00 (2.00)
    Legendre {1: .1, 3: .05, 5: .02}  2.94 (3.79)    1.99 (2.84)     1.01 (2.00)
    zero_association_model(0.11)      4.02 (4.91)    2.31 (3.22)     1.40 (2.24)
    boundary cosine {1: .5}           4.06 (4.96)    2.03 (2.98)     1.03 (2.03)
    cosine {20: .45}                  3.80 (4.69)    3.03 (3.91)     2.06 (2.89)

N = 1024 because the two-sine model needs 1.81 evaluations at 256 nodes,
1.51 at 512, 1.04 at 1,024 and 1.02 at 2,048, while a node set doubles with
N.  A wave of higher index gains less: cosine {k: .3} goes from 2.77-3.32
to 1.82-2.60 evaluations for k = 20-600, and once k reaches the node
count the model aliases it (3.14 -> 3.14 at k = 1024, 3.128 -> 3.133 at
k = 2000).  Model steps from w instead of the table were not adopted: the
two-sine model needs 2.28 evaluations after one, 1.37 after two and 1.08
after three, and on plain floats each step costs more than the table
lookup.

A start table is 4,225 floats, 134 KiB as the tuple the float path reads
(four reads per step), and 33 KiB in the flat array of its sampler that the
array path reads (`_Sampler.flat`; four gathers per restart).  A layout of
the same floats with one gather per restart, each cell's delta and its step
in w at its two rows (near + fw * step is the float that two reads give),
saved about 1 us per restart at 20 lanes, but took 129 KiB per copula.
`_start_table` keeps 128 tables.  The one bank shape that pays for its
tables is one copula per row: 200 rows x 1,000 steps with 200 distinct
zero_association_model coefficients builds 200 tables per call, more than
the memo keeps, and takes 0.27-0.30 s against 0.23-0.26 s from v = w; with
one copula in every row, 0.18-0.19 s against 0.23-0.25 s (best of 3 to 4
alternating processes on 2 cores).  The nodes are 1,025 x 4K floats, built
once per term table at its first stepping and shared by all its copulas:
one tuple per node holding (F_k, P_k, dF_k, dP_k) of every term, which the
float path reads with one subscript and unpacks once per step, and the same
values as one array, a node set of 211 KiB for one term, 373 KiB for two,
533 KiB for three and 4.7 MiB for 30.  `_model_nodes` keeps 32 node sets,
and a sampler reads its set from that memo at each stepping and keeps none
of its own, at a cost of about 0.1 us to a `next_state` on two plain floats
(2.8-2.9 us).  Together the memos hold at most 32 node sets, 256 start
tables (128 in `_start_table`, and one kept by each of the 128 samplers of
`_one_sampler`, which may have left that memo) and 128 samplers' flat
arrays: 38 MiB plus the node sets, 49 MiB for two-term tables and 189 MiB
for 30-term ones (tracemalloc).  130 distinct 30-term copulas, each stepped
as a 50-step chain and a 100-row bank, hold 177 MiB and peak at 339 MB RSS,
against 881 MB when every sampler kept its node set.  The three smooth
two-term tables of the benchmark's scalar_chains raise its peak RSS by
3.5%.  On plain floats the model step costs about as much as the exact
evaluation it saves, so the layout decides whether long chains lose:
separate tuples per term and quantity, each read by its own subscript, made
5,000-step chains take 1.02-1.09 times their time without the model step in
a prototype, and this layout 0.98-0.99.

Copulas that validate() calls INVALID are refused: their d1C(u, .) need
not be monotone, so a root need not be a conditional quantile.

Both phi_k and Phi_k come from the copula's `basis.TermTable`, and the
table compiles, once per (family, indices), the two pieces of code that
step a bank.  Every entry point steps a bank through one method,
`_Sampler.advance`: a bank is one matrix, each row first holds its
stream's draws, u_1 and then the innovations, and each step overwrites its
innovation with the state.  `generate_chain` is a one-row bank,
`generate_chain_bank` one row per seed key, and `next_state` a two-column
bank (u_prev, w) stepped once, or on two plain numbers one step of a
plain-float chain; a single copula's prepared sampler is memoised.  A bank
of at least FLOAT_PATH_LANES rows runs as one Newton loop over numpy
arrays with one lane per row (`_run_lanes`): each iteration makes one call
of the term sums `_SUMS`, the lines g += s_k * (Phi_k) and
c += s_k * (phi_k), the Newton step and the stop rule compiled for arrays,
and each lane keeps its own column and its own iteration count.  A lane
whose root is found writes it into the bank, reads its next innovation,
sets s_k = lambda_k phi_k(root), its start, which reads them, and the
bracket [0, 1], and
iterates on at once while the other lanes go on; it leaves the working
arrays only after its last column.  The lanes of all iterations thus add
up to the evaluations the rows need: on the two-sine model at 100 lanes,
from v = w, a lane needed 3.29 evaluations per step, and a loop that moved
every lane one step at a time made 4.67 iterations per step, waiting each
time for the slowest lane.  A narrower bank runs each row as a plain-float
chain through the stepper `_STEPPER`: the Newton loop with the same terms
written into it,
so that no function is called per term.  There g and c are each one sum,
((x - w) + t_0) + t_1 + ..., in the order of `_SUMS`'s lines; -tol and the
iteration range are formed once per chain, and the bracket midpoint only
where it is taken.  Both paths make the same operations in the same order
on each lane, so they give the same floats.  Below FLOAT_PATH_LANES = 64
lanes numpy's per-call cost outweighs the vector arithmetic.  The measured
float/array time ratios (300-step banks, smallest and largest of three
runs on 2 cores) are

    lanes              32          48          64          80          96
    two-sine       0.56-0.72   0.77-0.88   1.11-2.17   1.29-1.57   1.55-1.86
    cosine         0.67-0.69   0.91-0.97   1.17-1.22   1.45-1.54   1.59-1.82
    Legendre 1,2   0.46-1.20   1.02-1.08   1.35-1.39   1.69-1.73   1.90-2.12
    Legendre 1,3,5 0.70-0.73   0.71-0.98   1.05-2.14   1.61-1.79   1.64-1.95
    two-value step 0.42-0.43   0.33-0.61   0.77-0.89   0.92-0.95   1.08-1.93
    sign flip      0.33-0.43   0.64-1.13   0.81-0.84   0.65-1.34   0.66-1.14

so the crossover lies near 48 lanes for the smooth families and between
80 and 96 for the step families: the start table and the model step save
the array path, whose narrow banks pay per iteration, a larger share of
its time than the float path's, where each costs about as much as one
evaluation.  FLOAT_PATH_LANES stays 64, between the two, so smooth banks
of 48 to 63 rows take the float path at up to about 1.3 times the array
path's time; coverage_quick's 60-row table6 bank is one.  One constant
serves every family, and the choice depends only on the row count.  Each path is deterministic
for a given seed key; per-replicate seed keys and elementwise lane
arithmetic make banks independent of how the replicates, and the copulas
of their lanes, are batched.

The m lanes that restart at an iteration of `_run_lanes` form their start
in one workspace per call (`_workspace`): five float lane vectors and room
for the (4, K, lanes) node gather, two index vectors and a mask, 0.61 MB at
5,000 lanes for K = 2, of which each restart writes the first m entries
through out= arguments, in-place operators and take(..., out=...,
mode="clip"), with the same float operations in the same order as the float
path, and which is freed when the call returns.  It is there for the C
allocator: glibc (2.36 in these figures) raises its mmap threshold to the
size of each mmapped block it frees, and its trim threshold to twice that,
but only for blocks up to 32 MiB, so in a process stepping a bank of more
than 32 MiB (5,000 x 1,000 is 40 MB) both stay at a few hundred KB, and the
restart's short-lived arrays went back to the kernel and were faulted in
again at every iteration: the second 5,000 x 1,000 two-sine bank of a
process took 165,363 minor page faults, 156 pages per iteration, and 909
with the workspace (588 with the thresholds pinned by
MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_, a diagnostic only).  The
restart took 0.41-0.42 s of that bank's 1.39-1.45 s, and 0.20 s of
1.17-1.18 s with the workspace (cProfile); banks under 32 MiB do not churn.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .basis import _count, _unit_array, extrema
from .copula import SpectralCopula, Verdict

RESIDUAL_TOL = 1e-12
BRACKET_TOL = 1e-14
MAX_ITER = 100
FLOAT_PATH_LANES = 64
START_N = 64
MODEL_N = 1024


# -- marginal transforms -------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    pass


@dataclass(frozen=True)
class Exponential:
    """x = -rate * log(1 - u); the transformed variable has mean `rate`."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError("Exponential transform requires 0 < rate < inf")


@dataclass(frozen=True)
class Bernoulli:
    """x = 1 if u <= threshold else 0."""

    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("Bernoulli threshold must be in (0,1)")


MarginalTransform = Union[Uniform, Exponential, Bernoulli]


def apply_transform(transform: MarginalTransform, u):
    arr = _unit_array(u, "u")
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
    keys = [_count(k, "stream key", 0) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(keys))


# -- conditional CDF inversion -------------------------------------------


# The float path runs one chain per call of a stepper compiled for the term
# table: the Newton loop below with each term's text in place of a call,
# s_k = lambda_k phi_k(u) set once per step, and the same operations in the
# same order as each lane of `_run_lanes`, whose term sums are the same
# lines compiled for arrays (`_SUMS`).  Their locals are lower-case words
# and the term text's constants upper-case names, so neither shadows the
# other.
# run(state, states, lams, bound, limits, start, nodes) steps the chain
# from state through the innovations in the list states, overwriting each
# with the state it gives, and returns the list; lams holds the K
# coefficients, bound is the number the table's stop rule reads (M >= |g''|
# on [0,1], or a step family's rounding bound B; see the module docstring)
# or None, which turns the early stop off, limits holds MAX_ITER,
# RESIDUAL_TOL, BRACKET_TOL, START_N and MODEL_N as the caller reads them,
# start is the copula's start table (`_start_table`), or None, which starts
# every solve at w, and nodes the term table's node tuples
# (`_model_nodes`), read only with a start table.  Each solve starts at
# v0 = clamp(w + delta, 0, 1), delta read bilinearly from the table's cell
# of (u, w), followed by the model step, as `_start` does for arrays; f_k,
# df_k, p_k and dp_k are Phi_k and phi_k at the node below v0 and their
# steps to the next node.
_STEPPER = """\
def run(state, states, lams, bound, limits, start, nodes):
    max_iter, tol, bracket, cells, knots = limits
    ntol, tries = -tol, range(max_iter)
    scale, last, width = float(cells), cells - 1, cells + 1
    fine = float(knots)
    l{k} = lams[{k}]
    for i, w in enumerate(states):
        x = state
        {shared}
        s{k} = l{k} * ({phi})
        lo, hi = 0.0, 1.0
        x = w
        if start is not None:
            fu, fw = state * scale, w * scale
            row = int(fu) if fu < scale else last
            col = int(fw) if fw < scale else last
            fu -= row
            fw -= col
            col += row * width
            near, far = start[col], start[col + width]
            near += fw * (start[col + 1] - near)
            far += fw * (start[col + width + 1] - far)
            x += near + fu * (far - near)
            x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
            frac = x * fine
            node = int(frac)
            frac -= node
            (
             f{k}, p{k}, df{k}, dp{k},
            ) = nodes[node]
            gm = (x - w
                  + s{k} * (f{k} + frac * df{k})
                  )
            cm = (1.0
                  + s{k} * (p{k} + frac * dp{k})
                  )
            if cm > 0.0:
                x -= gm / cm
                x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        for _ in tries:
            {shared}
            g = (x - w
                 + s{k} * ({Phi})
                 )
            c = (1.0
                 + s{k} * ({phi})
                 )
            if ntol <= g <= tol:
                break
            if g < 0.0:
                lo = x
            else:
                hi = x
            if hi - lo <= bracket:
                x = 0.5 * (lo + hi)
                break
            if c > 0.0:
                q = g / c
                z = x - q
                if lo < z < hi:
                    x = z
                    if bound is not None and {stop}:
                        break
                    continue
            x = 0.5 * (lo + hi)
        state = states[i] = x
    return states
"""

# one evaluation at x, lane by lane, with s_k per lane: g and c, the Newton
# step z = x - q with q = g / c, and the stop rule at z (False with no bound)
_SUMS = """\
def sums(x, w, s, bound, tol):
    {shared}
    g = x - w
    c = 1.0
    g += s[{k}] * ({Phi})
    c += s[{k}] * ({phi})
    q = g / c
    z = x - q
    return g, c, z, bound is not None and ({stop})
"""


def _start(work, table, base, u, w, nodes, s) -> np.ndarray:
    """The compiled stepper's start on arrays, with the same operations:
    v0 = clamp(w + delta, 0, 1), delta read bilinearly from the cell of
    (u, w) of each lane's start table, which begins at its offset base in
    the flat array table (`_Sampler.flat`); then the model step from v0
    with the lanes' s_k.  Every array it forms is a view of the call's
    workspace work (`_workspace`), and so is the start it returns, the
    fifth lane vector."""
    m = len(u)
    floats, ints, _ = work
    fu, fw, near = floats[:m], floats[m:2 * m], floats[2 * m:3 * m]
    step, far = floats[3 * m:4 * m], floats[4 * m:5 * m]
    row, col = ints[:m], ints[m:2 * m]
    np.multiply(u, START_N, out=fu)
    np.multiply(w, START_N, out=fw)
    # min(int(fu), START_N - 1): fu >= 0, and the cast to intp truncates
    np.minimum(fu, START_N - 1, out=row, casting="unsafe")
    np.minimum(fw, START_N - 1, out=col, casting="unsafe")
    fu -= row
    fw -= col
    row *= START_N + 1
    row += base
    col += row
    # u and w lie in [0, 1] and the cell passes through minimum, so every
    # index is in range; take writes into out without a buffer of its own
    # only where it need not raise, hence mode="clip", which would clip a
    # NaN's index where "raise" raised: no NaN gets here, as the bank's
    # draws, the tables and the nodes are finite and iterates stay in [0, 1]
    table.take(col, out=near, mode="clip")
    table[1:].take(col, out=step, mode="clip")
    step -= near
    step *= fw
    near += step
    table[START_N + 1:].take(col, out=far, mode="clip")
    table[START_N + 2:].take(col, out=step, mode="clip")
    step -= far
    step *= fw
    far += step
    far -= near
    far *= fu
    far += near
    far += w
    np.maximum(far, 0.0, out=far)
    return _model_step(work, nodes, s, np.minimum(far, 1.0, out=far), w)


def _model_step(work, nodes, s, x, w) -> np.ndarray:
    """The compiled stepper's model step on arrays, with the same
    operations: x becomes clamp(x - g~/c~, 0, 1) where c~ > 0, g~ and c~
    being g and c with each Phi_k and phi_k read linearly between the nodes
    (`_model_nodes`) around x; s holds the lanes' s_k.  It works in the
    first three lane vectors of the workspace work, which `_start` no
    longer reads, and in its node gather, and returns x, overwritten."""
    m = len(x)
    floats, ints, mask = work
    frac, g, c = floats[:m], floats[m:2 * m], floats[2 * m:3 * m]
    grid = floats[5 * m:(5 + 4 * len(s)) * m].reshape(4, len(s), m)
    node = ints[:m]
    np.multiply(x, MODEL_N, out=frac)
    np.copyto(node, frac, casting="unsafe")  # int(frac), as astype truncates
    frac -= node
    # x lies in [0, 1], so node in [0, MODEL_N] (mode="clip" as in `_start`)
    nodes.take(node, axis=2, out=grid, mode="clip")
    # F + frac dF and P + frac dP, into the rows of dF and dP
    step = grid[2:]
    step *= frac
    step += grid[:2]
    np.subtract(x, w, out=g)
    c.fill(1.0)
    for sk, fk, pk in zip(s, grid[2], grid[3]):
        fk *= sk
        g += fk
        pk *= sk
        c += pk
    g /= c
    np.subtract(x, g, out=g)
    np.maximum(g, 0.0, out=g)
    np.minimum(g, 1.0, out=g)
    np.copyto(x, g, where=np.greater(c, 0.0, out=mask[:m]))
    return x


def _workspace(lanes, terms) -> tuple:
    """The restart's scratch for one `_run_lanes` call of `lanes` lanes and
    `terms` terms: five float lane vectors and the (4, terms, lanes) node
    gather, two index vectors and one mask, of which a restart of m lanes
    uses the first m entries of each (`_start`, `_model_step`)."""
    return (np.empty((5 + 4 * terms) * lanes), np.empty(2 * lanes, dtype=np.intp),
            np.empty(lanes, dtype=bool))


def _run_lanes(u, sums, phi, lams, bound, table=None, base=None, nodes=None) -> np.ndarray:
    """Step the bank u in place and return it, each row a lane of one
    Newton loop: the compiled stepper's solve lane by lane, with the same
    operations in the same order.  sums is the table's compiled `_SUMS`,
    phi its array form, lams the coefficients, shape (K, rows), and bound
    one bound for every lane, or None.  table is None, which starts every
    solve at w, or the lanes' start tables as one flat array
    (`_Sampler.flat`), base each lane's offset into it and nodes the term
    table's model nodes.  A lane whose root is found writes it into the
    bank and starts its next column at the next evaluation, while the
    others keep iterating; it leaves the working arrays after its last
    column."""
    r, n = u.shape
    if n < 2:
        return u
    # at holds the row-major position of each lane's column, at which
    # take and put read and write the bank itself
    at = np.arange(1, r * n, n)
    w = u.take(at)
    s = [lam * p for lam, p in zip(lams, phi(u[:, 0]))]
    lo, hi = np.zeros(r), np.ones(r)
    begun = np.zeros(r, dtype=int)  # evaluations made before each lane's column
    # k counts evaluations; oldest <= min(begun), and no lane can find the
    # root of its last column before evaluation ends_from
    k, oldest, ends_from = 0, 0, n - 1
    # g / c divides by 0, or overflows, only where c <= 0 or c is tiny; the
    # step test, and the model step's test c > 0, reject those lanes, so one
    # errstate serves every iteration
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if table is None:
            v = w
        else:
            work = _workspace(r, len(lams))
            # the start is a view of the workspace, which every restart reuses
            v = _start(work, table, base, u[:, 0], w, nodes, s).copy()
        while at.size:
            g, c, z, stop = sums(v, w, s, bound, RESIDUAL_TOL)
            k += 1
            hit = np.abs(g) <= RESIDUAL_TOL
            neg = g < 0.0
            lo = np.where(neg, v, lo)
            hi = np.where(neg, hi, v)
            mid = 0.5 * (lo + hi)
            closed = hi - lo <= BRACKET_TOL
            step = (c > 0.0) & (lo < z) & (z < hi)
            done = hit | closed | (step & stop)
            if k - oldest >= MAX_ITER:
                # a lane returns its last iterate after MAX_ITER evaluations
                oldest = begun.min()
                done |= k - begun >= MAX_ITER
            # a finished lane's root (an early stop's is its Newton step z),
            # and every other lane's next iterate
            v = np.where(hit, v, np.where(closed, mid, np.where(step, z, mid)))
            fin = done.nonzero()[0]
            if not fin.size:
                continue
            pos = at[fin]
            root = v[fin]
            u.put(pos, root)
            if k >= ends_from:
                go = pos % n != n - 1  # the finished lanes with a column left
                left = np.count_nonzero(go)
                if left == go.size:
                    # a lane now at column c can find the root of its last
                    # column at evaluation k + n - 1 - c at the soonest
                    ends_from = k + n - 1 - (at % n).max()
                else:
                    # the others leave the working arrays
                    keep = ~done
                    if left:
                        keep[fin[go]] = True
                    at, w, lo, hi, v, begun = (a.compress(keep)
                                               for a in (at, w, lo, hi, v, begun))
                    if table is not None:
                        base = base.compress(keep)
                    s = [a.compress(keep) for a in s]
                    lams = lams.compress(keep, axis=1)
                    if not left:
                        continue
                    fin = done[keep].nonzero()[0]
                    pos, root = pos[go], root[go]
            # the next column: its innovation, s_k = lambda_k phi_k(root),
            # which its start reads, its start and the bracket [0, 1]
            pos += 1
            at[fin] = pos
            w[fin] = nxt = u.take(pos)
            new = [lam * p for lam, p in zip(lams.take(fin, axis=1), phi(root))]
            for sk, sn in zip(s, new):
                sk[fin] = sn
            if table is None:
                v[fin] = nxt
            else:
                v[fin] = _start(work, table, base[fin], root, nxt, nodes, new)
            lo[fin] = 0.0
            hi[fin] = 1.0
            begun[fin] = k
    return u


class _Sampler:
    """A copula's terms, prepared for stepping banks; `rows` holds the
    coefficients of the one copula, or of each lane's copula when given one
    per lane, and `bound` the number the table's stop rule reads, taken over
    all of them so that it serves every lane: the largest bound M on |g''|,
    or for a step family the rounding bound B, None where B exceeds
    RESIDUAL_TOL (see the module docstring).  A copula
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
        self.copulas = lanes
        self.table = table

    @cached_property
    def stepper(self):
        return self.table.compiled(_STEPPER, math)["run"]

    @cached_property
    def sums(self):
        return self.table.compiled(_SUMS, np)["sums"]

    @cached_property
    def starts(self) -> list:
        """Each row's start table (`_start_table`), built at the first
        stepping, or None where the solve starts at w: on a step family and
        for a copula without terms."""
        smooth = self.table.slopes is not None
        built = {d: _start_table(d) if smooth and d.coeffs.entries else None
                 for d in dict.fromkeys(self.copulas)}
        return [built[d] for d in self.copulas]

    @cached_property
    def flat(self) -> tuple:
        """(table, base) for the array path: the distinct start tables as
        one flat array, zeros for the rows whose start is w, and each row's
        offset into it; (None, None) where no row has a table."""
        if not any(self.starts):
            return None, None
        tables = {id(t): t for t in self.starts}
        index = {key: i for i, key in enumerate(tables)}
        table = np.array([t or [0.0] * (START_N + 1) ** 2 for t in tables.values()])
        return table.ravel(), np.array([index[id(t)] for t in self.starts]) * table.shape[1]

    @property
    def nodes(self):
        """The term table's model nodes (`_model_nodes`) as (tuples,
        array), built at the first stepping, or (None, None) where no row
        has a start table.  Read from the memo at each stepping, so that a
        sampler kept by `_one_sampler` holds no node set of its own."""
        return _model_nodes(self.table) if any(self.starts) else (None, None)

    @cached_property
    def bound(self):
        table = self.table
        sup = [max(map(abs, extrema(table.family, k))) for k in table.indices]
        rows = dict.fromkeys(self.rows)
        if table.slopes is None:
            # a step family: B = (3K + 10) 2^-53 (1 + S) bounds |g| at a Newton
            # step on the iterate's piece, S = sum_k |lambda_k| sup phi_k^2
            s = max(sum(abs(lam) * p * p for lam, p in zip(row, sup)) for row in rows)
            b = (3 * len(sup) + 10) * 2.0 ** -53 * (1.0 + s)
            return b if b <= RESIDUAL_TOL else None
        # M bounds |g''| = |sum_k lambda_k phi_k(u) phi_k'(v)| for every u and v
        weights = [d * p for d, p in zip(table.slopes, sup)]
        return max(sum(abs(lam) * wk for lam, wk in zip(row, weights)) for row in rows)

    def chain(self, state: float, states: list, lams, start) -> list:
        """The compiled `stepper` on plain floats: the chain from state
        through the innovations in the list states, each overwritten with
        the state it gives."""
        return self.stepper(state, states, lams, self.bound,
                            (MAX_ITER, RESIDUAL_TOL, BRACKET_TOL, START_N, MODEL_N), start,
                            self.nodes[0])

    def advance(self, u: np.ndarray) -> np.ndarray:
        """Step the bank u in place and return it.  Row i starts at
        u[i, 0], and step t overwrites the innovation u[i, t] with the
        state.  Below FLOAT_PATH_LANES rows each row runs as a plain-float
        `chain`, with its own coefficients (a one-copula sampler's one row
        serves every lane); otherwise the rows are the lanes of one
        `_run_lanes` loop."""
        if len(u) < FLOAT_PATH_LANES:
            rows = list(zip(self.rows, self.starts))
            for row, (lams, start) in zip(u, rows * len(u) if len(rows) == 1 else rows):
                row[1:] = self.chain(float(row[0]), row[1:].tolist(), lams, start)
            return u
        # one column of coefficients per lane, and each lane's offset into
        # the flat start tables
        each = len(u) // len(self.rows)
        lams = np.repeat(np.array(self.rows).T, each, axis=1)
        table, base = self.flat
        if table is not None:
            base = np.repeat(base, each)
        return _run_lanes(u, self.sums, self.table.phi, lams, self.bound, table, base,
                          self.nodes[1])


@lru_cache(maxsize=128)
def _start_table(c: SpectralCopula) -> tuple:
    """delta(u, w) = Q(u, w) - w, the conditional quantile less the
    innovation, at the nodes (i / START_N, j / START_N), row i after row, as
    one tuple of floats, which every caller shares.  Each row of Q(u_i, .)
    is the inverse of d1C(u_i, .) on a grid twice as fine in v, by linear
    interpolation; no solve."""
    nodes = np.arange(START_N + 1) / START_N
    v = np.arange(2 * START_N + 1) / (2 * START_N)
    cdf = c.conditional_cdf(nodes[:, None], v)
    return tuple(np.concatenate([np.interp(nodes, row, v) - nodes for row in cdf]).tolist())


@lru_cache(maxsize=32)
def _model_nodes(table) -> tuple:
    """Phi_k and phi_k of every term at the nodes i / MODEL_N, i <= MODEL_N,
    from the table's array form, each with its step to the next node (0
    after the last), for the model step: as one tuple per node,
    (F_0, P_0, dF_0, dP_0, F_1, ...), which the float path reads, and as an
    read-only array of shape (4, K, MODEL_N + 1) holding F, P, dF and dP,
    which the array path reads.  Built once per term table and shared by
    all its copulas."""
    x = np.arange(MODEL_N + 1) / MODEL_N
    arrays = np.array([table.Phi(x), table.phi(x)])
    arrays = np.concatenate([arrays, np.diff(arrays, axis=2, append=arrays[..., -1:])])
    arrays.flags.writeable = False
    return tuple(map(tuple, arrays.T.reshape(MODEL_N + 1, -1).tolist())), arrays


@lru_cache(maxsize=128)
def _one_sampler(c: SpectralCopula) -> _Sampler:
    # copulas are frozen and hashable; an INVALID one raises, and is not kept
    return _Sampler(c)


def _sampler(c) -> _Sampler:
    return _one_sampler(c) if isinstance(c, SpectralCopula) else _Sampler(c)


def next_state(c: SpectralCopula, u_prev, w):
    """Solve d1C(u_prev, v) = w for v.

    Scalars or 0-d arrays in, a float out; same-shape arrays in, an array
    of that shape out.  Two plain numbers (float or int) are one step of
    the plain-float chain, with no numpy set-up; arrays step as one step of
    a two-column bank (u_prev, w), so an array of FLOAT_PATH_LANES elements
    or more is solved vectorized and a smaller one lane by lane on plain
    floats.
    Every family is solved to the tolerances in the module header.
    """
    sampler = _sampler(c)
    if isinstance(u_prev, (float, int)) and isinstance(w, (float, int)):
        # one lane of plain floats: the one-row chain of one step
        if not (0.0 <= u_prev <= 1.0 and 0.0 <= w <= 1.0):
            raise ValueError("u_prev and w must lie in [0,1]")
        return sampler.chain(float(u_prev), [float(w)], sampler.rows[0],
                             sampler.starts[0])[0]
    u_arr = _unit_array(u_prev, "u_prev")
    w_arr = _unit_array(w, "w")
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
    if not (-1.0 <= lam <= 1.0):
        raise ValueError("sample_wl requires |lam| <= 1")
    d_plus = (1.0 + lam) if lam != -1.0 else 1.0
    d_minus = (1.0 - lam) if lam != 1.0 else 1.0
    # plain floats and numpy float scalars; an int takes the array path,
    # which gives the same float
    if isinstance(u_prev, float) and isinstance(q, float):
        return _wl_lane(lam, d_plus, d_minus, float(u_prev), float(q))
    u, qq = np.broadcast_arrays(np.asarray(u_prev, dtype=float), np.asarray(q, dtype=float))
    v = [_wl_lane(lam, d_plus, d_minus, a, b)
         for a, b in zip(u.ravel().tolist(), qq.ravel().tolist())]
    return v[0] if u.ndim == 0 else np.reshape(v, u.shape)


def _wl_lane(lam, d_plus, d_minus, a: float, b: float) -> float:
    # sample_wl's formula on one lane of plain floats
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("u_prev and q must lie in [0,1]")
    if a < 0.5:
        x = b / d_plus if b < 0.5 * (1.0 + lam) else (b - lam) / d_minus
    else:
        x = b / d_minus if b < 0.5 * (1.0 - lam) else (b + lam) / d_plus
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


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
    stepped by `_Sampler.advance`: with FLOAT_PATH_LANES rows or more, as
    the lanes of one vectorized Newton loop, each lane on its own column;
    with fewer, each row as a plain-float chain.

    `c` is one copula for every row, or a sequence of copulas, one per
    key, sharing one family and one index set (a copula without terms may
    join any), else ValueError; each distinct copula is validated once.
    Every row equals the row its key and copula give in a bank of their own.
    """
    keys = [k if isinstance(k, tuple) else (k,) for k in seed_keys]
    n = _count(n, "chain length", 1)
    r = len(keys)
    if not isinstance(c, SpectralCopula) and len(c) != r:
        raise ValueError("need one copula per seed key")
    if r == 0:
        return np.empty((0, n))
    u = np.empty((r, n))
    for i, key in enumerate(keys):
        innovation_stream(*key).random(n, out=u[i])
    return _sampler(c).advance(u)
