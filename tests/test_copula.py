import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigencop import (SpectralCoefficients, SpectralCopula, Verdict,
                      cosine_copula, fgm, independence, piecewise_sign,
                      shifted_legendre_copula, sine_cosine_copula,
                      sine_counterexample, star_product, two_sine_model,
                      two_value_step, zero_association_model)
from eigencop.basis import Cosine, ShiftedLegendre, eval_phi, jump_points
from eigencop.copula import _TILE, _density_range, _scan_inputs, _validate_cached
from eigencop.quadrature import composite_rule, gauss_legendre_01

PINNED = [
    cosine_copula({1: 0.3, 3: -0.2}),
    sine_cosine_copula(sin={1: 0.2}, cos={1: 0.15, 2: -0.1}),
    shifted_legendre_copula({1: 0.25, 2: 0.1}),
    two_value_step(0.7, 0.4),
    piecewise_sign((0.0, 0.3, 1.0), (0.5, -0.4)),
]


def _rule_for(c):
    cuts = jump_points(c.family)
    if cuts:
        return composite_rule(tuple(cuts), points_per_cell=8)
    return gauss_legendre_01(64)


@pytest.mark.parametrize("c", PINNED)
def test_density_integrates_to_one_with_uniform_margins(c):
    x, w = _rule_for(c)
    dens = c.density(x[:, None], x[None, :])
    assert abs(w @ dens @ w - 1.0) < 1e-12
    # integrating out v leaves the uniform density in u
    marg = dens @ w
    assert np.max(np.abs(marg - 1.0)) < 1e-10


@pytest.mark.parametrize("c", PINNED)
def test_rectangle_mass_nonnegative(c):
    assert c.validate().verdict in (Verdict.VALID, Verdict.VALID_BOUNDARY)
    rng = np.random.default_rng(5)
    u = np.sort(rng.random((10000, 2)), axis=1)
    v = np.sort(rng.random((10000, 2)), axis=1)
    mass = (c.cdf(u[:, 1], v[:, 1]) - c.cdf(u[:, 0], v[:, 1])
            - c.cdf(u[:, 1], v[:, 0]) + c.cdf(u[:, 0], v[:, 0]))
    assert mass.min() >= -1e-9


@pytest.mark.parametrize("c", PINNED)
def test_density_projects_back_to_coefficients(c):
    # orthonormality recovers each coefficient from the density
    x, w = _rule_for(c)
    dens = c.density(x[:, None], x[None, :])
    for k, lam in c.coeffs.entries:
        col = eval_phi(c.family, k, x)
        got = (w * col) @ dens @ (w * col)
        assert abs(got - lam) < 1e-7
    # and the constant mode always carries mass one
    assert abs(w @ dens @ w - 1.0) < 1e-10


@pytest.mark.parametrize("c", PINNED)
def test_cdf_boundary_conditions(c):
    u = np.linspace(0.0, 1.0, 23)
    assert np.max(np.abs(c.cdf(u, np.ones_like(u)) - u)) < 1e-12
    assert np.max(np.abs(c.cdf(np.ones_like(u), u) - u)) < 1e-12
    assert np.max(np.abs(c.cdf(u, np.zeros_like(u)))) < 1e-14
    assert np.max(np.abs(c.cdf(np.zeros_like(u), u))) < 1e-14


@pytest.mark.parametrize("c", PINNED)
def test_conditional_cdf_is_cdf_derivative(c):
    # centered difference in the first argument away from jumps
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(8):
        u = 0.05 + 0.9 * rng.random()
        if any(abs(u - j) < 1e-3 for j in jump_points(c.family)):
            continue
        v = rng.random()
        num = (c.cdf(u + h, v) - c.cdf(u - h, v)) / (2 * h)
        assert abs(num - c.conditional_cdf(u, v)) < 1e-6


@pytest.mark.parametrize("c", PINNED)
def test_conditional_cdf_range(c):
    u = np.linspace(0.01, 0.99, 19)
    assert np.max(np.abs(c.conditional_cdf(u, np.ones_like(u)) - 1.0)) < 1e-12
    assert np.max(np.abs(c.conditional_cdf(u, np.zeros_like(u)))) < 1e-14


def test_scalar_in_scalar_out():
    c = fgm(0.8)
    assert isinstance(c.density(0.3, 0.7), float)
    assert isinstance(c.cdf(0.3, 0.7), float)
    grid = c.density(np.array([0.1, 0.2]), 0.5)
    assert grid.shape == (2,)


def test_coefficient_container_rules():
    with pytest.raises(ValueError):
        SpectralCoefficients(((1, 0.1), (1, 0.2)))
    with pytest.raises(ValueError):
        SpectralCoefficients(((1, float("nan")),))
    coeffs = SpectralCoefficients(((2, 0.0), (1, 0.5)))
    assert coeffs.entries == ((1, 0.5),)  # zero dropped, order canonical
    assert coeffs.sup_abs == 0.5
    assert dict(coeffs.entries).get(2, 0.0) == 0.0


def test_index_validation_against_family():
    with pytest.raises(ValueError):
        SpectralCopula(Cosine(), SpectralCoefficients(((("sin", 1), 0.1),)))
    with pytest.raises(ValueError):
        piecewise_sign((0.0, 0.5, 1.0), (0.1,))


def test_validity_fgm_range():
    # at theta = +-1 the density touches zero in two corners
    assert fgm(1.0).validate().verdict is Verdict.VALID_BOUNDARY
    assert fgm(-1.0).validate().verdict is Verdict.VALID_BOUNDARY
    assert fgm(0.9).validate().verdict is Verdict.VALID
    report = fgm(1.5).validate()
    assert report.verdict is Verdict.INVALID
    assert report.grid_min_density < -0.4


def test_validity_boundary_cosine():
    # 1 - 2*lambda touches zero at lambda = 1/2
    report = cosine_copula({1: 0.5}).validate()
    assert report.verdict is Verdict.VALID_BOUNDARY
    assert abs(report.analytic_margin) < 1e-15
    assert cosine_copula({1: 0.499}).validate().verdict is Verdict.VALID


def test_validity_step_boundary():
    assert two_value_step(1.0, 1.0).validate().verdict is Verdict.VALID_BOUNDARY
    assert two_value_step(1.0, -1.0).validate().verdict is Verdict.VALID_BOUNDARY
    assert two_value_step(1.0, 1.0 + 1e-6).validate().verdict is Verdict.INVALID


def test_validity_grid_overrules_conservative_margin():
    # the coefficient condition is only sufficient: this copula fails it
    # yet its density is strictly positive, and the grid sees that
    c = zero_association_model(0.11)
    report = c.validate()
    assert not report.analytic_ok
    assert report.grid_min_density > 0.0
    assert report.verdict is Verdict.VALID


def test_validity_piecewise_sign_margin_exact():
    c = piecewise_sign((0.0, 0.5, 1.0), (0.6, -0.8))
    report = c.validate()
    # disjoint supports make the bound exact: 1 - max |theta|
    assert abs(report.analytic_margin - 0.2) < 1e-12
    assert abs(report.grid_min_density - 0.2) < 1e-12
    assert report.verdict is Verdict.VALID


def test_validity_one_term_margin_is_an_invalid_witness():
    # the 512-point midpoint grid aliases phi_1024 to the constant -sqrt(2),
    # so the grid sees the density 2.8 everywhere; with one term the margin
    # is the density at a point, density(0, 1/1024) = -0.8
    c = cosine_copula({1024: 0.9})
    report = c.validate()
    assert report.grid_min_density > 2.0
    assert report.analytic_margin == pytest.approx(-0.8, abs=1e-12)
    assert c.density(0.0, 1.0 / 1024) == pytest.approx(report.analytic_margin, abs=1e-12)
    assert report.verdict is Verdict.INVALID
    # the margin of a valid one-term copula does not move its verdict
    assert cosine_copula({1024: 0.45}).validate().verdict is Verdict.VALID
    assert cosine_copula({1024: 0.5}).validate().verdict is Verdict.VALID_BOUNDARY


def test_high_even_legendre_margin_is_an_invalid_witness():
    # the minimum of P_200 sits at its outermost critical point y*, which a
    # 4096-point grid misses; with one term the margin is the density at
    # (u*, 1), u* = (y* + 1) / 2, where phi_200 takes both extrema
    c = shifted_legendre_copula({200: 0.01})
    report = c.validate()
    y_star = np.polynomial.Legendre.basis(200).deriv().roots().real.max()
    assert report.analytic_margin == pytest.approx(
        c.density((y_star + 1.0) / 2.0, 1.0), abs=1e-9)
    assert report.analytic_margin < -0.6
    assert report.verdict is Verdict.INVALID


RANGE_CASES = [
    cosine_copula({3: 0.4}),
    cosine_copula({3: -0.4}),
    cosine_copula({1: 0.3, 2: -0.2, 5: 0.1}),
    sine_cosine_copula(sin={2: 0.2}),
    sine_cosine_copula(cos={1: -0.3}),
    sine_cosine_copula(sin={1: 0.1, 2: -0.2}, cos={3: 0.15}),
    shifted_legendre_copula({2: 0.3}),
    shifted_legendre_copula({1: -0.3}),
    shifted_legendre_copula({1: 0.2, 2: -0.1, 4: 0.05}),
    two_value_step(0.7, 0.5),
    two_value_step(2.0, -0.3),
    piecewise_sign((0.0, 0.4, 1.0), (0.8, 0.0)),
    piecewise_sign((0.0, 0.4, 1.0), (0.0, -0.6)),
    piecewise_sign((0.0, 0.3, 0.7, 1.0), (0.5, -0.8, 0.9)),
    independence(),
]


def _range(terms):
    # _density_range on (lam, p) pairs, with its inputs built from p alone
    return _density_range([lam for lam, _ in terms], _scan_inputs([q for _, q in terms]))


def _full_grid(c, grid_n):
    g = (np.arange(grid_n) + 0.5) / grid_n
    terms = [(lam, eval_phi(c.family, k, g)) for k, lam in c.coeffs.entries]
    m = np.ones((grid_n, grid_n))
    for lam, p in terms:
        m += lam * np.outer(p, p)
    return terms, (float(m.min()), float(m.max()))


@pytest.mark.parametrize("grid_n", [2, 63, 64, 100, 512])
@pytest.mark.parametrize("c", RANGE_CASES)
def test_density_range_equals_full_grid(c, grid_n):
    terms, want = _full_grid(c, grid_n)
    assert _range(terms) == want
    _validate_cached.cache_clear()
    rep = c.validate(grid_n)
    assert (rep.grid_min_density, rep.grid_max_density) == want
    # the term table keeps its grid bounds for one grid size at a time and
    # for every copula of its (family, indices): a second copula of the
    # table, on a grid of 37 points and back, reads only its own range
    half = SpectralCopula(c.family, SpectralCoefficients(
        tuple((k, 0.5 * lam) for k, lam in c.coeffs.entries)))
    for f, n in ((half, 37), (c, 37), (half, grid_n)):
        rep = f.validate(n)
        assert (rep.grid_min_density, rep.grid_max_density) == _full_grid(f, n)[1]


def _full_matrix_range(terms):
    # every entry, in the scan's order: 1.0, then per term the rounded
    # product, times lam, added
    n = terms[0][1].size
    m = np.ones((n, n))
    for lam, p in terms:
        t = np.outer(p, p)
        t *= lam
        m += t
    return float(m.min()), float(m.max())


# one point below, at and above one and two tile sides, so the last tile is
# partial or whole whatever the tile size; grids smaller than a tile; the
# default grid and one point more; and the grids these tests had before
# their grids followed the tile size
TILE_GRIDS = sorted({m * _TILE + d for m in (1, 2) for d in (-1, 0, 1)}
                    | {2, 3, 100, 512, 513} | {31, 32, 33, 64, 65})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(TILE_GRIDS))
def test_density_range_equals_full_matrix_on_random_terms(seed, grid_n):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(int(rng.integers(2, 7))):
        lam = float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.01, 1.0))
        kind = rng.integers(3)
        if kind == 0:
            p = rng.normal(size=grid_n)
        elif kind == 1:  # a few values, repeated: ties within and across tiles
            p = rng.choice(rng.normal(size=int(rng.integers(1, 4))), size=grid_n)
        else:  # the same function as an earlier term
            p = terms[-1][1] if terms else np.full(grid_n, 0.5)
        terms.append((lam, p))
    assert _range(terms) == _full_matrix_range(terms)


def _oscillating(k):
    # from k of about 20 on the terms oscillate within a tile of the default
    # grid, and from about 30 on the tile bounds prune (almost) nothing
    return cosine_copula({k: 0.1, k + 1: -0.1, k + 2: 0.05})


@pytest.mark.parametrize("grid_n", TILE_GRIDS)
@pytest.mark.parametrize("c", [cosine_copula({1: 0.3, 2: -0.2, 5: 0.1}),
                               sine_cosine_copula(sin={1: 0.1, 2: -0.2}, cos={3: 0.15}),
                               shifted_legendre_copula({1: 0.2, 2: -0.1, 4: 0.05}),
                               piecewise_sign((0.0, 0.3, 0.7, 1.0), (0.5, -0.8, 0.9)),
                               _oscillating(8), _oscillating(22), _oscillating(40)])
def test_fold_density_ranges_equal_full_matrix(c, grid_n):
    g = (np.arange(grid_n) + 0.5) / grid_n
    for n in range(1, 6):
        f = c.fold(n)
        terms = [(lam, eval_phi(f.family, k, g)) for k, lam in f.coeffs.entries]
        want = _full_matrix_range(terms)
        assert _range(terms) == want
        rep = f.validate(grid_n)
        assert (rep.grid_min_density, rep.grid_max_density) == want


@pytest.mark.parametrize("k", [40, 160])
def test_density_range_memory_is_bounded_on_a_large_grid(k):
    # the range scan takes a fixed number of tiles at a time: on a
    # 2048-point grid, where the full matrix is 32 MiB, its temporaries stay
    # under 2 MiB, though at k = 160 (the k = 40 case scaled to a four times
    # finer grid) it scans 7,928 of the 8,256 tiles
    c = _oscillating(k)
    grid = c.terms.from_grid(2048, _scan_inputs)
    tracemalloc.start()
    try:
        _density_range(c.coeffs.values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("grid_n", [0, 1, -3])
@pytest.mark.parametrize("c", [cosine_copula({1: 0.9}),
                               cosine_copula({1: 0.9, 2: 0.9})])
def test_validate_rejects_grid_without_two_points(c, grid_n):
    with pytest.raises(ValueError, match="grid_n must be at least 2"):
        c.validate(grid_n)


@pytest.mark.parametrize("grid_n", [0, 1, -3])
def test_density_grid_rejects_grid_without_two_points(grid_n):
    with pytest.raises(ValueError, match="grid_n must be at least 2"):
        fgm(0.5).density_grid(grid_n)


def test_fold_powers_coefficients():
    c = cosine_copula({1: 0.4, 2: -0.3})
    f3 = c.fold(3)
    lam = dict(f3.coeffs.entries)
    assert lam[1] == 0.4**3
    assert lam[2] == (-0.3) ** 3
    assert f3.family == c.family


def test_fold_semigroup_bit_exact():
    c = shifted_legendre_copula({1: 0.3, 3: -0.17, 4: 0.05})
    assert c.fold(2).fold(3).coeffs.entries == c.fold(6).coeffs.entries
    assert c.fold(4).fold(5).coeffs.entries == c.fold(20).coeffs.entries
    assert c.fold(1).coeffs.entries == c.coeffs.entries


def test_fold_two_matches_star_product():
    for c in PINNED:
        dens = star_product(c, c)
        f2 = c.fold(2)
        rng = np.random.default_rng(17)
        pts = rng.random((30, 2))
        got = dens(pts[:, 0], pts[:, 1])
        want = f2.density(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(got - want)) < 1e-6


def test_star_product_of_independence_is_independence():
    c = cosine_copula({1: 0.4})
    dens = star_product(c, independence(c.family))
    x = np.linspace(0.05, 0.95, 7)
    assert np.max(np.abs(dens(x, x[::-1]) - 1.0)) < 1e-10


def test_two_sine_model_precondition():
    two_sine_model(0.2, -0.3)
    with pytest.raises(ValueError):
        two_sine_model(0.3, 0.3)
    with pytest.raises(ValueError):
        zero_association_model(0.12)


def test_independence_density_flat():
    c = independence()
    x = np.linspace(0, 1, 5)
    assert np.all(c.density(x, x) == 1.0)
    assert c.validate().verdict is Verdict.VALID


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4))
@example([5e-324])
def test_scaled_cosine_copulas_always_valid(raw):
    # scale so that sum |lambda_k| * 2 <= 0.9: inside the sufficient bound
    total = sum(abs(r) for r in raw)
    if total == 0.0:
        return
    # r / total first: 0.45 / total overflows when total is subnormal
    c = cosine_copula({k + 1: 0.45 * (r / total) for k, r in enumerate(raw)})
    report = c.validate()
    assert report.analytic_ok
    assert report.verdict is Verdict.VALID
    assert report.grid_min_density >= report.analytic_margin - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.1, max_value=0.9),
       st.integers(min_value=1, max_value=5))
def test_fold_shrinks_towards_independence(lam, brk, n):
    c = piecewise_sign((0.0, brk, 1.0), (lam, 0.0))
    folded = c.fold(n)
    assert folded.coeffs.sup_abs <= c.coeffs.sup_abs + 1e-15


# -- sine-system CDF candidate -------------------------------------------


def _tail_deviation(n_terms):
    # margin defect at u=1: (8/pi^2) * sum over odd k >= 2n+1 of k^-2
    partial = sum(1.0 / k**2 for j in range(n_terms)
                  for k in [2 * j + 1])
    return 1.0 - (8.0 / math.pi**2) * partial


def test_counterexample_frozen_deviations():
    rec = sine_counterexample(10)
    assert abs(rec.max_deviation - _tail_deviation(10)) < 1e-9
    assert abs(rec.max_deviation - 0.0202474085) < 1e-9
    assert rec.max_deviation > 0.01
    assert rec.verdict is Verdict.INVALID
    assert rec.total_mass < 1.0
    assert abs(rec.total_mass - (1.0 - rec.max_deviation)) < 1e-12

    rec1 = sine_counterexample(1)
    assert abs(rec1.max_deviation - (1.0 - 8.0 / math.pi**2)) < 1e-9


@pytest.mark.parametrize("size", [0, 1, -3])
def test_counterexample_rejects_grid_without_two_points(size):
    with pytest.raises(ValueError, match="grid_points must be at least 2"):
        sine_counterexample(3, grid_points=size)


def test_counterexample_zero_terms():
    rec = sine_counterexample(0)
    assert rec.total_mass == 0.0
    assert rec.max_deviation == 1.0


def test_counterexample_never_valid():
    for k in (0, 1, 5, 10, 40):
        assert sine_counterexample(k).verdict is Verdict.INVALID
    with pytest.raises(ValueError, match="n_terms must be at least 0"):
        sine_counterexample(-1)


def test_counterexample_margin_monotone_in_terms():
    devs = [sine_counterexample(k).max_deviation for k in (1, 2, 5, 10, 20)]
    assert all(a > b for a, b in zip(devs, devs[1:]))
