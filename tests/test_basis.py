import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.polynomial import legendre

from eigencop.basis import (Cosine, PiecewiseSign, ShiftedLegendre,
                            SineCosine, TwoValueStep, check_index, eval_phi,
                            eval_Phi, extrema, jump_points, moment_table,
                            term_table, _FORMS, _piece_table)
from eigencop.quadrature import composite_rule, gauss_legendre_01

FAMILIES = [
    (SineCosine(), [("sin", 1), ("sin", 2), ("cos", 1), ("cos", 3)]),
    (Cosine(), [1, 2, 3, 5]),
    (ShiftedLegendre(), [1, 2, 3, 4, 6]),
    (TwoValueStep(1.0), [1]),
    (TwoValueStep(0.4), [1]),
    (PiecewiseSign((0.0, 0.25, 0.6, 1.0)), [1, 2, 3]),
]


def _rule(family):
    cuts = jump_points(family)
    if cuts:
        return composite_rule(tuple(cuts), points_per_cell=8)
    return gauss_legendre_01(64)


@pytest.mark.parametrize("family,ks", FAMILIES)
def test_orthonormal_and_mean_zero(family, ks):
    x, w = _rule(family)
    cols = [eval_phi(family, k, x) for k in ks]
    for i, ci in enumerate(cols):
        assert abs(np.dot(w, ci)) < 1e-12  # orthogonal to the constant
        for j, cj in enumerate(cols):
            target = 1.0 if i == j else 0.0
            assert abs(np.dot(w, ci * cj) - target) < 1e-10


@pytest.mark.parametrize("family,ks", FAMILIES)
def test_antiderivative_matches_quadrature(family, ks):
    rng = np.random.default_rng(11)
    for k in ks:
        assert abs(eval_Phi(family, k, 0.0)) < 1e-14
        assert abs(eval_Phi(family, k, 1.0)) < 1e-12
        for x0 in rng.random(6):
            cuts = tuple(c for c in jump_points(family) if c < x0)
            edges, wts = composite_rule(cuts + (x0,), points_per_cell=24) \
                if cuts else composite_rule((x0,), points_per_cell=24)
            mask = edges < x0
            val = np.dot(wts[mask], eval_phi(family, k, edges[mask]))
            assert abs(val - eval_Phi(family, k, x0)) < 1e-10


@pytest.mark.parametrize("family,ks", FAMILIES)
def test_extrema_bound_and_attained(family, ks):
    g = np.linspace(0.0, 1.0, 20001)
    for k in ks:
        lo, hi = extrema(family, k)
        vals = eval_phi(family, k, g)
        assert vals.min() >= lo - 1e-9
        assert vals.max() <= hi + 1e-9
        assert vals.min() <= lo + 1e-3
        assert vals.max() >= hi - 1e-3


@pytest.mark.parametrize("k", [2, 4, 10, 60, 154, 156, 160, 200])
def test_legendre_even_min_matches_a_fine_grid(k):
    # the minimum of P_k sits at its outermost critical point (Szego,
    # Orthogonal Polynomials, 7.2), which a coarse grid misses for large k.
    # P_k is even, so the nonnegative half of a 2,000,001-point grid on
    # [-1, 1] holds every value the whole grid does
    lo, _ = extrema(ShiftedLegendre(), k)
    least = lo / math.sqrt(2 * k + 1)
    grid_min = legendre.Legendre.basis(k)(np.linspace(0.0, 1.0, 1_000_001)).min()
    assert grid_min - 1e-5 <= least <= grid_min
    if k == 2:
        assert least == -0.5
    if k == 4:
        assert least == -3.0 / 7.0


def test_legendre_low_orders_explicit():
    x = np.linspace(0.0, 1.0, 101)
    y = 2 * x - 1
    p2 = 0.5 * (3 * y**2 - 1)
    p3 = 0.5 * (5 * y**3 - 3 * y)
    assert np.allclose(eval_phi(ShiftedLegendre(), 2, x), math.sqrt(5) * p2, atol=1e-12)
    assert np.allclose(eval_phi(ShiftedLegendre(), 3, x), math.sqrt(7) * p3, atol=1e-12)


def test_legendre_endpoint_values_exact():
    # recurrence must hit P_k(1) = 1 exactly in floating point
    for k in range(1, 12):
        assert eval_phi(ShiftedLegendre(), k, 1.0) == math.sqrt(2 * k + 1)


def test_legendre_antiderivative_recursion():
    # 2*sqrt(2n+1) * Phi_n = phi_{n+1}/sqrt(2n+3) - phi_{n-1}/sqrt(2n-1),
    # with phi_0 taken as the constant 1
    leg = ShiftedLegendre()
    x = np.linspace(0.0, 1.0, 257)
    for n in range(1, 11):
        left = 2.0 * math.sqrt(2 * n + 1) * eval_Phi(leg, n, x)
        hi = eval_phi(leg, n + 1, x) / math.sqrt(2 * n + 3)
        lo = np.ones_like(x) if n == 1 else eval_phi(leg, n - 1, x) / math.sqrt(2 * n - 1)
        assert np.max(np.abs(left - (hi - lo))) < 1e-10


def test_trig_antiderivative_closed_forms():
    x = np.linspace(0.0, 1.0, 7)
    k = 2
    got = eval_Phi(Cosine(), k, x)
    want = math.sqrt(2) * np.sin(k * math.pi * x) / (k * math.pi)
    assert np.allclose(got, want, atol=1e-15)


def test_two_value_step_shape():
    fam = TwoValueStep(4.0)
    assert abs(fam.breakpoint - 0.2) < 1e-15
    assert eval_phi(fam, 1, 0.1) == 2.0
    assert eval_phi(fam, 1, 0.5) == -0.5


def test_piecewise_sign_cells_and_support():
    fam = PiecewiseSign((0.0, 0.5, 1.0))
    assert fam.n_cells == 2
    # left half of the first cell is negative, right half positive
    assert eval_phi(fam, 1, 0.1) < 0 < eval_phi(fam, 1, 0.4)
    assert eval_phi(fam, 1, 0.7) == 0.0
    assert eval_phi(fam, 2, 0.7) < 0 < eval_phi(fam, 2, 0.9)
    assert eval_phi(fam, 2, 1.0) > 0  # endpoint belongs to the last cell


def test_invalid_indices_rejected():
    with pytest.raises(ValueError):
        check_index(Cosine(), 0)
    with pytest.raises(ValueError):
        check_index(SineCosine(), 1)
    with pytest.raises(ValueError):
        check_index(SineCosine(), ("tan", 1))
    with pytest.raises(ValueError):
        check_index(TwoValueStep(1.0), 2)
    with pytest.raises(ValueError):
        check_index(PiecewiseSign((0.0, 0.5, 1.0)), 3)


def test_invalid_family_parameters_rejected():
    with pytest.raises(ValueError):
        TwoValueStep(0.0)
    # 1/(alpha+1) rounds to 1 here, which would leave phi_1 the constant
    # sqrt(alpha), not mean-zero
    with pytest.raises(ValueError, match="rounds it to 1.0"):
        TwoValueStep(1.1e-16)
    # the smallest accepted alphas keep one interior jump and Phi(1) = 0
    tiny = TwoValueStep(1.2e-16)
    assert tiny.breakpoint == 0.9999999999999998
    assert jump_points(tiny) == (tiny.breakpoint,)
    assert eval_Phi(tiny, 1, 1.0) == 0.0
    with pytest.raises(ValueError):
        PiecewiseSign((0.0, 0.5))
    with pytest.raises(ValueError):
        PiecewiseSign((0.1, 0.5, 1.0))
    with pytest.raises(ValueError):
        PiecewiseSign((0.0, 0.5, 0.5, 1.0))
    # a NaN edge fails no `<=` test, so it must be refused as not increasing
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        PiecewiseSign((0.0, math.nan, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
def test_phi_within_extrema_property(k, xs):
    for family in (Cosine(), ShiftedLegendre()):
        lo, hi = extrema(family, k)
        vals = eval_phi(family, k, np.array(xs))
        assert np.all(vals >= lo - 1e-9)
        assert np.all(vals <= hi + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_step_phi_integrates_to_zero_property(alpha, x):
    fam = TwoValueStep(alpha)
    # antiderivative stays bounded by its breakpoint value
    peak = math.sqrt(alpha) * fam.breakpoint
    assert abs(eval_Phi(fam, 1, x)) <= peak + 1e-12


# -- the term table ----------------------------------------------------------

TABLES = [
    (SineCosine(), [("sin", 1), ("cos", 1), ("sin", 2), ("cos", 3), ("sin", 7),
                    ("sin", 1024), ("cos", 1024)]),  # shared frequencies
    (Cosine(), [1, 2, 3, 7, 1024]),
    (ShiftedLegendre(), list(range(1, 31))),
    (ShiftedLegendre(), [1, 3, 5]),  # gapped indices
    (TwoValueStep(0.4), [1]),
    (PiecewiseSign((0.0, 0.25, 0.6, 1.0)), [1, 2, 3]),
    (PiecewiseSign((0.0, 0.25, 0.6, 1.0)), [3]),
    (TwoValueStep(1.0), [1]),
    (TwoValueStep(3.0), [1]),
    (TwoValueStep(0.7), [1]),
    (PiecewiseSign((0.0, 1.0)), [1]),
]


def _table_points(family):
    # grid points, both endpoints, the step knots, the cell edges and midpoints
    edges = list(family.breakpoints) if isinstance(family, PiecewiseSign) else []
    special = [0.0, 1.0, *jump_points(family), *edges]
    return np.concatenate([np.linspace(0.0, 1.0, 257), (np.arange(128) + 0.5) / 128,
                           np.array(special)])


@pytest.mark.parametrize("family,ks", TABLES)
def test_term_table_float_form_equals_array_form(family, ks):
    table = term_table(family, ks)
    x = _table_points(family)
    phi, Phi = table.phi(x), table.Phi(x)
    assert len(phi) == len(Phi) == len(ks)
    for j, xj in enumerate(x.tolist()):
        p, P = table.phi(xj), table.Phi(xj)
        assert all(type(v) is float for v in p + P)
        assert p == [a[j] for a in phi]
        assert P == [a[j] for a in Phi]
    for k, a, b in zip(ks, phi, Phi):
        assert np.array_equal(a, eval_phi(family, k, x))
        assert np.array_equal(b, eval_Phi(family, k, x))


@pytest.mark.parametrize("family,ks", [t for t in TABLES if jump_points(t[0])])
def test_step_tables_at_the_endpoints(family, ks):
    # Phi_k = value * (x - anchor) is anchored at 0 on the first piece and
    # at 1 (or has value 0) on the last, so both ends give exact zeros; the
    # last piece owns x = 1
    table = term_table(family, ks)
    assert table.Phi(0.0) == table.Phi(1.0) == [0.0] * len(ks)
    assert table.phi(1.0) == table.phi(math.nextafter(1.0, 0.0))


def _trig_oracle(family, k, x):
    # sqrt(2) sin/cos straight from the definitions, with their antiderivatives
    part, w = ("cos", k * np.pi) if isinstance(family, Cosine) else (k[0], 2 * np.pi * k[1])
    if part == "sin":
        return np.sqrt(2) * np.sin(w * x), np.sqrt(2) * (1 - np.cos(w * x)) / w
    return np.sqrt(2) * np.cos(w * x), np.sqrt(2) * np.sin(w * x) / w


def _legendre_oracle(k, x):
    # numpy's Legendre series: P_k by Clenshaw, its antiderivative from -1
    p = legendre.Legendre.basis(k)
    s = math.sqrt(2 * k + 1)
    return s * p(2 * x - 1), 0.5 * s * p.integ(lbnd=-1)(2 * x - 1)


@pytest.mark.parametrize("family,ks", [t for t in TABLES if not jump_points(t[0])])
def test_term_table_matches_independent_oracles(family, ks):
    # 1e-12: the recurrence error grows about k*eps (1.3e-13 seen at k = 30),
    # and a harmonic recurrence for the trig families would stay within it
    # up to k = 1024
    x = _table_points(family)
    table = term_table(family, ks)
    for k, a, b in zip(ks, table.phi(x), table.Phi(x)):
        want_a, want_b = (_legendre_oracle(k, x) if isinstance(family, ShiftedLegendre)
                          else _trig_oracle(family, k, x))
        assert np.max(np.abs(a - want_a)) <= 1e-12
        assert np.max(np.abs(b - want_b)) <= 1e-12


def _legendre_list(y, n):
    # [P_0(y), ..., P_n(y)] by the list recurrence the unrolled text replaced
    P = [1.0, y]
    for m in range(1, n):
        P.append(((2 * m + 1) * y * P[m] - m * P[m - 1]) / (m + 1))
    return P


@pytest.mark.parametrize("ks", [list(range(1, 31)), [1, 3, 5]] + [[k] for k in range(1, 31)])
def test_legendre_text_equals_the_list_recurrence_bit_for_bit(ks):
    x = np.concatenate([_table_points(ShiftedLegendre()),
                        [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 0.5, 1.0, 0.0]])
    table = term_table(ShiftedLegendre(), ks)

    def want(x):
        P = _legendre_list(2.0 * x - 1.0, max(ks) + 1)
        s = [math.sqrt(2 * k + 1) for k in ks]
        return ([sk * P[k] for sk, k in zip(s, ks)],
                [(P[k + 1] - P[k - 1]) / (2.0 * sk) for sk, k in zip(s, ks)])

    # the array form
    for got, expected in zip((table.phi(x), table.Phi(x)), want(x)):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    # the float form, point by point
    for xj in x.tolist():
        got, expected = (table.phi(xj), table.Phi(xj)), want(xj)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert all(type(v) is float for v in got[0] + got[1])


@pytest.mark.parametrize("family,ks", TABLES)
def test_moment_table_matches_quadrature(family, ks):
    # 16-point Gauss on 2048 panels (split at the jumps) resolves every
    # product phi_k Phi_j up to index 1024; sums along the last axis are
    # pairwise, so rounding stays far below the tolerance
    cuts = sorted(set(jump_points(family)) | {i / 2048 for i in range(1, 2048)})
    x, w = composite_rule(tuple(cuts), points_per_cell=16)
    table = term_table(family, ks)
    phi, Phi = np.array(table.phi(x)), np.array(table.Phi(x))
    r_of, g_of = moment_table(family)
    r = np.array([r_of(k) for k in ks])
    G = np.array([[g_of(k, j) for j in ks] for k in ks])
    assert np.max(np.abs(r - 12.0 * np.sum(w * Phi, axis=-1) ** 2)) <= 1e-14
    for row, p in zip(G, phi):
        assert np.max(np.abs(row - np.sum(w * p * Phi, axis=-1))) <= 1e-14
    assert np.array_equal(G + G.T, np.zeros_like(G))


def test_tables_of_one_family_and_index_set_share_their_compiled_forms():
    a, b = term_table(ShiftedLegendre(), [1, 3]), term_table(ShiftedLegendre(), (1, 3))
    assert a is b
    assert a.compiled(_FORMS, math) is b.compiled(_FORMS, math)
    assert a.compiled(_FORMS, np) is b.compiled(_FORMS, np)
    other = term_table(ShiftedLegendre(), [1, 2])
    assert other is not a and other.compiled(_FORMS, np) is not a.compiled(_FORMS, np)
    # a constant is bound by name, never written into the text
    table = term_table(TwoValueStep(0.4), [1])
    assert "0.4" not in repr(table.terms) + repr(table.shared)
    assert table.constants["V0"] == _piece_table(TwoValueStep(0.4))[1][0][0]


def test_grid_values_are_kept_for_the_last_grid_size_and_read_only():
    table = term_table(ShiftedLegendre(), [1, 2])
    values = table.on_grid(512)
    assert table.on_grid(512) is values
    x = (np.arange(512) + 0.5) / 512
    assert all(np.array_equal(a, b) for a, b in zip(values, table.phi(x)))
    with pytest.raises(ValueError):
        values[0][0] = 1.0
    assert table.on_grid(16)[0].size == 16
    again = table.on_grid(512)
    assert again is not values
    assert all(np.array_equal(a, b) for a, b in zip(again, values))


def test_term_table_rejects_bad_indices():
    with pytest.raises(ValueError):
        term_table(ShiftedLegendre(), [1, 0])
    with pytest.raises(ValueError):
        term_table(TwoValueStep(1.0), [2])
    assert term_table(Cosine(), []).phi(0.3) == []


def _max_difference_quotient(f):
    # largest |f(x') - f(x)| / (x' - x) over 10^4 cells, then over 10^4
    # cells across the coarse cell of the maximum and its neighbours
    x = np.linspace(0.0, 1.0, 10001)
    j = int(np.argmax(np.abs(np.diff(f(x)))))
    x = np.linspace(x[max(j - 1, 0)], x[min(j + 2, x.size - 1)], 10001)
    return float(np.max(np.abs(np.diff(f(x)) / np.diff(x)))), float(x[1] - x[0])


@pytest.mark.parametrize("family,ks", [t for t in FAMILIES if not jump_points(t[0])])
def test_slope_bound_is_the_largest_difference_quotient(family, ks):
    # each quotient is phi_k' somewhere inside its cell, so none exceeds
    # D_k = sup |phi_k'| beyond the rounding of the two values it divides;
    # at the fine spacing (3e-8) the largest is within 1e-6 (relative) of it
    for k, bound in zip(ks, term_table(family, ks).slopes):
        f = ((lambda x: _legendre_oracle(k, x)[0]) if isinstance(family, ShiftedLegendre)
             else (lambda x: _trig_oracle(family, k, x)[0]))
        quotient, h = _max_difference_quotient(f)
        rounding = 16.0 * np.finfo(float).eps * max(map(abs, extrema(family, k))) / h
        assert bound * (1.0 - 1e-6) <= quotient <= bound + rounding, (k, bound, quotient)


def test_step_families_have_no_slope_bound():
    for family, ks in FAMILIES:
        assert (term_table(family, ks).slopes is None) == bool(jump_points(family))


def test_eval_one_term_tables_are_reused_without_loosening_the_index_check():
    # 1.0 == 1 and ("sin", 1.0) == ("sin", 1) as cache keys, yet neither is
    # a valid index
    x = np.array([0.25, 0.5])
    assert np.array_equal(eval_phi(Cosine(), 1, x), eval_phi(Cosine(), 1, x))
    eval_Phi(SineCosine(), ("sin", 1), x)
    with pytest.raises(ValueError):
        eval_phi(Cosine(), 1.0, x)
    with pytest.raises(ValueError):
        eval_Phi(SineCosine(), ("sin", 1.0), x)
