import math

import numpy as np

from eigencop.quadrature import (composite_rule, gauss_legendre_01,
                                 log_weighted_sine_integral)


def test_gl_nodes_inside_unit_interval():
    x, w = gauss_legendre_01(32)
    assert np.all((x > 0) & (x < 1))
    assert abs(w.sum() - 1.0) < 1e-14


def test_gl_exact_for_polynomials():
    # degree-2n-1 exactness carried over from [-1,1]
    x, w = gauss_legendre_01(8)
    for d in range(0, 16):
        assert abs(np.dot(w, x**d) - 1.0 / (d + 1)) < 1e-14


def test_composite_rule_handles_kinks_exactly():
    x, w = composite_rule((0.3,), points_per_cell=4)
    f = lambda x: np.abs(x - 0.3)
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert abs(w @ f(x) - exact) < 1e-14


def test_composite_rule_dedups_and_spans():
    x, w = composite_rule((0.0, 0.5, 0.5, 1.0), points_per_cell=6)
    assert abs(w.sum() - 1.0) < 1e-14
    assert x.min() > 0.0 and x.max() < 1.0


def test_log_weighted_sine_integral_against_fresh_panels():
    # independent evaluation: substitute s = 1-t and integrate
    # -sin(2 pi k s) log(s) over a geometric panelization of (0, 1]
    for k in (1, 2, 3):
        x, w = np.polynomial.legendre.leggauss(40)
        total = 0.0
        hi = 1.0
        for _ in range(80):
            lo = hi / 2.0
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            s = mid + half * x
            total += half * np.dot(w, -np.sin(2 * math.pi * k * s) * np.log(s))
            hi = lo
        assert abs(log_weighted_sine_integral(k) - total) < 1e-13


def test_log_weighted_sine_integral_signs():
    # the log weight is largest near t=1 where sin(2 pi t) < 0, but the
    # substitution flips both; the k=1 projection comes out positive
    assert log_weighted_sine_integral(1) > 0.0
    assert abs(log_weighted_sine_integral(1) ** 2 - 0.15051652) < 1e-7
    assert abs(4.0 * log_weighted_sine_integral(2) ** 2 - 0.24568403) < 1e-7
