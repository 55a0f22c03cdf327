import math

import numpy as np
import pytest

from eigencop import (Certificate, SpectralCopula, certify_psi, cosine_copula,
                      extrema, fgm, independence, piecewise_sign,
                      rho_sequence, shifted_legendre_copula,
                      sine_cosine_copula, two_sine_model, two_value_step)
from eigencop import mixing
from eigencop.copula import _grid_range, _validate_cached
from eigencop.mixing import DEFAULT_MAX_N, DENSITY_HEADROOM


def test_rho_sequence_is_geometric_in_sup():
    c = cosine_copula({1: 0.4, 2: -0.25})
    seq = rho_sequence(c, 6)
    assert seq.shape == (6,)
    assert np.allclose(seq, 0.4 ** np.arange(1, 7))


def test_rho_sequence_independence_is_zero():
    assert np.all(rho_sequence(independence(), 4) == 0.0)


def test_certify_independence():
    rep = certify_psi(independence(), max_n=3)
    assert rep.certificate is Certificate.CERTIFIED_LESS_THAN_TWO
    assert rep.certified_n == 1


def test_certify_fgm_extreme_still_mixing():
    # density touches zero but stays below 2, one step is enough
    for theta in (1.0, -1.0):
        rep = certify_psi(fgm(theta), max_n=3)
        assert rep.certificate is Certificate.CERTIFIED_LESS_THAN_TWO
        assert rep.certified_n == 1
        ranges = {n: (lo, hi) for n, lo, hi in rep.fold_density_ranges}
        lo, hi = ranges[1]
        assert hi < 2.0 - 1e-9
        assert hi == pytest.approx(1.9961, abs=1e-3)


def test_certify_step_boundary_coefficient():
    for lam in (1.0, -1.0):
        rep = certify_psi(two_value_step(1.0, lam), max_n=4)
        assert rep.certificate is Certificate.BOUNDARY_NON_MIXING
        assert rep.certified_n is None
        assert rep.fold_density_ranges == ()
        assert rep.decomp_bounds == ()


def test_certify_step_inside_boundary():
    rep = certify_psi(two_value_step(1.0, 0.9), max_n=4)
    assert rep.certificate is Certificate.CERTIFIED_LESS_THAN_TWO
    assert rep.certified_n == 1
    assert rep.sup_coefficient == pytest.approx(0.9)


def test_certify_asymmetric_step():
    rep = certify_psi(two_value_step(3.0, -0.8), max_n=4)
    assert rep.certificate is Certificate.CERTIFIED_LESS_THAN_TWO


def test_piecewise_sign_inconclusive_at_small_horizon():
    # the one-step density fills [0, 2] so neither grid test can fire
    c = piecewise_sign((0.0, 0.5, 1.0), (1.0, -1.0))
    rep = certify_psi(c, max_n=1)
    assert rep.certificate is Certificate.INCONCLUSIVE
    assert rep.certified_n is None
    ranges = {n: (lo, hi) for n, lo, hi in rep.fold_density_ranges}
    lo, hi = ranges[1]
    assert lo < 1e-9 and hi > 2.0 - 1e-9


def test_piecewise_sign_certifies_at_larger_horizon():
    # folding squares the coefficients, pulling the density off both walls
    c = piecewise_sign((0.0, 0.5, 1.0), (1.0, -1.0))
    rep = certify_psi(c, max_n=4)
    assert rep.certificate in (Certificate.CERTIFIED_LESS_THAN_TWO,
                               Certificate.CERTIFIED_BOUNDED_DENSITY)
    assert rep.certified_n is not None and rep.certified_n >= 2
    # successive folds contract the density range towards the constant 1
    ranges = {n: (lo, hi) for n, lo, hi in rep.fold_density_ranges}
    for n in range(2, max(ranges) + 1):
        lo0, hi0 = ranges[n - 1]
        lo1, hi1 = ranges[n]
        assert lo1 >= lo0 - 1e-12 and hi1 <= hi0 + 1e-12
        assert hi1 - lo1 < hi0 - lo0


def test_two_sine_certifies_quickly():
    rep = certify_psi(two_sine_model(0.05, -0.2), max_n=5)
    assert rep.certificate is Certificate.CERTIFIED_LESS_THAN_TWO
    assert rep.certified_n == 1
    assert rep.sup_coefficient == pytest.approx(0.2)


@pytest.mark.parametrize("c, sup_squares", [
    (shifted_legendre_copula({1: 0.3, 2: 0.1, 4: -0.05}), (3.0, 5.0, 9.0)),
    (cosine_copula({1: 0.6, 2: -0.3}), (2.0, 2.0)),
    (two_sine_model(0.05, -0.2), (2.0, 2.0)),
    (two_value_step(0.7, 0.4), (1.0 / 0.7,)),
    (piecewise_sign((0.0, 0.3, 1.0), (0.5, -0.4)), (1.0 / 0.3, 1.0 / 0.7)),
], ids=["legendre", "cosine", "two_sine", "two_value_step", "sign_flip"])
def test_decomp_bounds_envelope_contains_every_fold(c, sup_squares):
    # |c_n - 1| <= E_n = sum_k |lambda_k|^n sup phi_k^2, for every family
    rep = certify_psi(c, max_n=6)
    assert [n for n, _, _ in rep.decomp_bounds] == list(range(1, 7))
    squares = []
    for k, _ in c.coeffs.entries:
        lo, hi = extrema(c.family, k)
        squares.append(max(lo * lo, hi * hi))
    assert squares == pytest.approx(sup_squares, rel=1e-14)
    x = (np.arange(256) + 0.5) / 256
    uu, vv = np.meshgrid(x, x, indexing="ij")
    for n, lo, hi in rep.decomp_bounds:
        e = math.fsum(abs(lam) ** n * s
                      for (_, lam), s in zip(c.coeffs.entries, squares))
        assert (lo, hi) == (1.0 - e, 1.0 + e)
        dens = c.fold(n).density(uu, vv)
        assert lo <= dens.min() + 1e-12 and dens.max() <= hi + 1e-12
    # every |lambda_k| < 1, so the envelope tightens with each fold
    widths = [hi - lo for _, lo, hi in rep.decomp_bounds]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_decomp_bounds_reach_two_for_fgm_one():
    # c(0, 0) = 2: the grid max 1.9961 certifies n = 1, the envelope does not
    rep = certify_psi(fgm(1.0), max_n=3)
    n, lo, hi = rep.decomp_bounds[0]
    assert n == 1
    assert (lo, hi) == pytest.approx((0.0, 2.0), abs=1e-15)
    assert hi > 2.0 - DENSITY_HEADROOM


def test_decomp_bounds_empty_on_boundary():
    # the boundary return comes before any power |lambda|^n is taken, so a
    # coefficient of 5 at n = 500 gives a verdict, not an OverflowError
    with pytest.warns(RuntimeWarning, match="overflow"):
        rep = certify_psi(cosine_copula({1: 5.0}), max_n=500)
    assert rep.certificate is Certificate.BOUNDARY_NON_MIXING
    assert rep.decomp_bounds == ()


@pytest.mark.parametrize("c, max_n, grid_n", [
    (cosine_copula({1: 0.6, 2: 0.5}), 6, 512),
    (piecewise_sign((0.0, 0.5, 1.0), (1.0, -1.0)), 4, 64),
    (shifted_legendre_copula({2: 0.98}), 20, 63),
    (two_value_step(0.5, 0.95), 20, 100),
    # the second coefficient underflows to zero from fold 2 on and leaves
    # the sum; the search runs to n = 69
    (cosine_copula({1: 0.99, 2: 1e-200}), 80, 100),
    # the index-4 coefficient underflows from fold 2 on, so the folded table
    # runs a shorter Legendre recurrence; certified at n = 2
    (shifted_legendre_copula({2: 0.3, 4: 1e-200}), 20, 512),
])
def test_fold_ranges_equal_full_grid(c, max_n, grid_n):
    rep = certify_psi(c, max_n=max_n, grid_n=grid_n)
    assert [n for n, _, _ in rep.fold_density_ranges] == \
        list(range(1, len(rep.fold_density_ranges) + 1))
    assert len(rep.fold_density_ranges) > 1
    for n, lo, hi in rep.fold_density_ranges:
        _, m = c.fold(n).density_grid(grid_n)
        assert (lo, hi) == (float(m.min()), float(m.max()))
    # fold 1 is the copula itself
    val = c.validate(grid_n)
    assert rep.fold_density_ranges[0][1:] == (val.grid_min_density,
                                              val.grid_max_density)


@pytest.mark.parametrize("grid_n", [37, 512])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [
    cosine_copula({1: 0.95, 2: -0.3}),
    sine_cosine_copula(sin={1: 0.9}, cos={2: 0.3}),
    shifted_legendre_copula({1: 0.9, 2: 0.1}),
    two_value_step(0.5, 0.95),
    piecewise_sign((0.0, 0.05, 1.0), (0.5, 1.04)),
    # c.fold(m) has lost index 2 from its own entries, not from fold_base
    cosine_copula({1: 0.9, 2: 1e-200}),
], ids=["cosine", "sine_cosine", "legendre", "two_value_step", "sign_flip",
        "underflow"])
def test_folded_copula_walks_its_fold_base(c, m, grid_n):
    # fold n of c.fold(m) is c.fold(m * n), whose coefficients are powers of
    # the base coefficients, not of c.fold(m)'s own
    rep = certify_psi(c.fold(m), grid_n=grid_n)
    assert len(rep.fold_density_ranges) > 1
    for n, lo, hi in rep.fold_density_ranges:
        val = c.fold(m * n).validate(grid_n)
        assert (lo, hi) == (val.grid_min_density, val.grid_max_density)


@pytest.mark.parametrize("c", [
    cosine_copula({3: 0.985}),
    shifted_legendre_copula({1: 0.95, 2: 0.1}),
], ids=["cosine", "legendre"])
def test_fold_walk_builds_no_copula(c, monkeypatch):
    # folds 2..max_n come from the term table alone: no fold(), and no
    # validate() past fold 1's
    def refuse(self, n):
        raise AssertionError("certify_psi built a folded copula")
    misses = _validate_cached.cache_info().misses
    with monkeypatch.context() as mp:
        mp.setattr(SpectralCopula, "fold", refuse)
        rep = certify_psi(c)
    assert _validate_cached.cache_info().misses - misses <= 1
    assert rep.certificate is Certificate.INCONCLUSIVE
    assert len(rep.fold_density_ranges) == DEFAULT_MAX_N
    for n, lo, hi in rep.fold_density_ranges:
        val = c.fold(n).validate()
        assert (lo, hi) == (val.grid_min_density, val.grid_max_density)


def test_fold_walk_drops_underflowed_terms(monkeypatch):
    # index 2 underflows from fold 2 on; the walk then reads the one-term
    # table, as fold(n) does, not the two-term one with a 0.0 coefficient
    tables = []
    def recording(family, indices, grid_n):
        tables.append(list(indices))
        return _grid_range(family, indices, grid_n)
    monkeypatch.setattr(mixing, "_grid_range", recording)
    rep = certify_psi(cosine_copula({1: 0.99, 2: 1e-200}))
    assert len(rep.fold_density_ranges) == DEFAULT_MAX_N
    assert tables == [[1, 2], [1]]


def test_report_as_dict_round_trip():
    rep = certify_psi(fgm(0.5), max_n=3)
    d = rep.as_dict()
    assert d["certificate"] == "certified_less_than_two"
    assert d["certified_n"] == 1
    assert d["sup_coefficient"] == pytest.approx(1.0 / 6.0)
    assert len(d["rho_sequence"]) == 3
    assert d["fold_density_ranges"][0][0] == 1
    assert d["max_n"] == 3 and d["grid_n"] == 512


def test_certify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        certify_psi(fgm(0.3), max_n=0)
    with pytest.raises(ValueError):
        certify_psi(fgm(0.3), grid_n=1)
