"""Quadrature rules on [0,1].

Smooth integrands get Gauss-Legendre nodes; piecewise-constant basis
functions get composite rules split at their jump points, which makes the
integrals exact for the step families.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule mapped to [0,1],
    as read-only arrays: every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def composite_rule(cuts, points_per_cell: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule applied on each cell of a partition of [0,1].

    `cuts` are interior breakpoints (jump locations); cells between
    consecutive cuts are integrated with a fixed-order Gauss rule, so any
    integrand that is polynomial of moderate degree between cuts is handled
    exactly.
    """
    # a Python set, not np.unique: that one imports numpy.ma (about 1 MB)
    edges = np.array(sorted({0.0, 1.0, *(float(c) for c in cuts if 0.0 <= c <= 1.0)}))
    x0, w0 = gauss_legendre_01(points_per_cell)
    h = np.diff(edges)[:, None]
    return (edges[:-1, None] + h * x0).ravel(), (h * w0).ravel()


def split_rule(cuts, points_per_cell: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule for an integrand with jumps at `cuts`: the composite rule
    split there, or the n_nodes-point Gauss-Legendre rule when there are
    none."""
    if cuts:
        return composite_rule(tuple(cuts), points_per_cell)
    return gauss_legendre_01(n_nodes)


def log_weighted_sine_integral(k: int) -> float:
    """Value of the integral of sin(2*pi*k*t) * log(1-t) over [0,1].

    The integrand has an integrable logarithmic singularity at t=1, so a
    single Gauss panel converges slowly.  Substituting s = 1-t moves the
    singularity to 0 and dyadic panels [2^-(j+1), 2^-j] resolve it to
    machine accuracy: on each panel log s is smooth.
    """
    x0, w0 = gauss_legendre_01(24)

    def g(s):
        # sin(2*pi*k*(1-s)) = -sin(2*pi*k*s) for integer k
        return -np.sin(2.0 * np.pi * k * s) * np.log(s)

    total = 0.0
    hi = 1.0
    for _ in range(60):
        lo = hi / 2.0
        h = hi - lo
        total += float(h * np.dot(w0, g(lo + h * x0)))
        hi = lo
        if hi < 1e-17:
            break
    return total
