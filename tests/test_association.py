import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencop import (associate, cosine_copula, fgm, independence,
                      kendall_tau, piecewise_sign, shifted_legendre_copula,
                      sine_cosine_copula, spearman_rho, two_value_step,
                      zero_association_model)
from eigencop.basis import jump_points
from eigencop.quadrature import split_rule

PI2 = math.pi**2
PI4 = math.pi**4


def _assert_numeric_is_the_cdf_route(c):
    # the quadrature route from c.cdf and c.conditional_cdf on the node grid,
    # which associate must reproduce bit for bit from the term table's values
    x, w = split_rule(jump_points(c.family), 8, 64)
    d1 = c.conditional_cdf(x[:, None], x[None, :])
    report = associate(c)
    assert report.rho_numeric == 12.0 * float(w @ c.cdf(x[:, None], x[None, :]) @ w) - 3.0
    assert report.tau_numeric == 1.0 - 4.0 * float(w @ (d1 * d1.T) @ w)


def test_independence_zero():
    c = independence()
    assert spearman_rho(c) == 0.0
    assert kendall_tau(c) == 0.0
    assert abs(associate(c).rho_numeric) < 1e-12
    assert abs(associate(c).tau_numeric) < 1e-12


def test_cosine_single_term_closed_forms():
    lam = 0.5
    c = cosine_copula({1: lam})
    assert abs(spearman_rho(c) - 96 * lam / PI4) < 1e-15
    assert abs(kendall_tau(c) - 64 * lam / PI4) < 1e-15
    # even indices contribute nothing to either measure
    c2 = cosine_copula({2: 0.4})
    assert spearman_rho(c2) == 0.0
    assert kendall_tau(c2) == 0.0
    assert abs(associate(c2).rho_numeric) < 1e-10
    assert abs(associate(c2).tau_numeric) < 1e-10


def test_cosine_cross_term_in_tau():
    # indices of opposite parity couple pairwise in the tau series
    c = cosine_copula({1: 0.3, 2: 0.25})
    want_rho = (96 / PI4) * 0.3
    want_tau = (64 / PI4) * (0.3 + 2 * 0.3 * 0.25 / (2**2 - 1**2) ** 2)
    assert abs(spearman_rho(c) - want_rho) < 1e-15
    assert abs(kendall_tau(c) - want_tau) < 1e-15
    assert abs(associate(c).tau_numeric - want_tau) < 1e-10


def test_sine_cosine_closed_forms():
    c = sine_cosine_copula(sin={1: 0.2, 2: -0.1}, cos={1: 0.15})
    want_rho = (6 / PI2) * (0.2 / 1 + (-0.1) / 4)
    # sine terms enter tau alone and through the matching cosine term
    want_tau = (1 / PI2) * ((4 * 0.2 + 2 * 0.15 * 0.2) / 1 + (4 * -0.1) / 4)
    assert abs(spearman_rho(c) - want_rho) < 1e-15
    assert abs(kendall_tau(c) - want_tau) < 1e-15
    assert abs(associate(c).rho_numeric - want_rho) < 1e-10
    assert abs(associate(c).tau_numeric - want_tau) < 1e-10


def test_pure_cosine_part_has_no_association():
    c = sine_cosine_copula(cos={1: 0.3, 2: -0.2})
    assert spearman_rho(c) == 0.0
    assert kendall_tau(c) == 0.0
    assert abs(associate(c).rho_numeric) < 1e-10


def test_legendre_rho_is_first_coefficient():
    for lam2 in (-0.2, 0.0, 0.15, 0.3):
        c = shifted_legendre_copula({1: 0.22, 2: lam2})
        assert spearman_rho(c) == pytest.approx(0.22, abs=1e-15)
        assert associate(c).rho_numeric == pytest.approx(0.22, abs=1e-10)


def test_legendre_tau_two_terms():
    # hand integral of the two-term polynomial CDF: the cross terms are
    # int (1-2u)(2u^3-3u^2+u) du = 1/30 against its mirror -1/30, giving
    # tau = (2/3)*l1 + (2/15)*l1*l2
    lam1, lam2 = 0.25, 0.2
    c = shifted_legendre_copula({1: lam1, 2: lam2})
    want = (2 / 3) * lam1 * (1 + lam2 / 5)
    assert abs(kendall_tau(c) - want) < 1e-15
    assert abs(associate(c).tau_numeric - want) < 1e-10


def test_legendre_tau_adjacent_coupling_only():
    # indices 1 and 3 do not couple; adding lambda_3 changes nothing
    base = kendall_tau(shifted_legendre_copula({1: 0.2}))
    with3 = shifted_legendre_copula({1: 0.2, 3: 0.15})
    assert kendall_tau(with3) == pytest.approx(base, abs=1e-15)
    assert associate(with3).tau_numeric == pytest.approx(base, abs=1e-9)
    # a 2-3 pair couples with weight 2/((5)(7))
    c23 = shifted_legendre_copula({2: 0.2, 3: 0.1})
    want = 2 * 0.2 * 0.1 / 35
    assert abs(kendall_tau(c23) - want) < 1e-15
    assert abs(associate(c23).tau_numeric - want) < 1e-9


def test_fgm_reduces_to_classic_values():
    theta = 0.7
    c = fgm(theta)
    assert abs(spearman_rho(c) - theta / 3) < 1e-15
    assert abs(kendall_tau(c) - 2 * theta / 9) < 1e-15


def test_two_value_step_closed_forms():
    for alpha, lam in ((1.0, 0.5), (0.4, -0.3), (3.0, 0.25)):
        c = two_value_step(alpha, lam)
        want_rho = 3 * alpha * lam / (1 + alpha) ** 2
        want_tau = 2 * alpha * lam / (1 + alpha) ** 2
        assert abs(spearman_rho(c) - want_rho) < 1e-15
        assert abs(kendall_tau(c) - want_tau) < 1e-15
        assert abs(associate(c).rho_numeric - want_rho) < 1e-8
        assert abs(associate(c).tau_numeric - want_tau) < 1e-8


def test_piecewise_sign_closed_forms():
    # rho = (3/4) sum lambda_k w_k^3 and tau = (1/2) sum lambda_k w_k^3
    for bps, thetas in (((0.0, 0.4, 1.0), (0.5, -0.3)),
                        ((0.0, 0.25, 0.6, 1.0), (0.9, -0.7, 0.4)),
                        ((0.0, 1.0), (-0.8,)),
                        ((0.0, 0.5, 0.8, 1.0), (0.9, -0.7, 0.4))):
        c = piecewise_sign(bps, thetas)
        # the last two have equal indices on different cells
        _assert_numeric_is_the_cdf_route(c)
        s = sum(lam * (bps[k] - bps[k - 1]) ** 3 for k, lam in c.coeffs.entries)
        report = associate(c)
        assert abs(report.rho_closed - 0.75 * s) < 1e-15
        assert abs(report.tau_closed - 0.5 * s) < 1e-15
        assert report.rho_closed == spearman_rho(c)
        assert report.tau_closed == kendall_tau(c)
        assert report.rho_gap <= 1e-12
        assert report.tau_gap <= 1e-12


def test_association_report_gaps():
    report = associate(cosine_copula({1: 0.5}))
    assert report.rho_gap < 1e-10
    assert report.tau_gap < 1e-10
    d = report.as_dict()
    assert set(d) == {"rho_closed", "tau_closed", "rho_numeric",
                      "tau_numeric", "rho_gap", "tau_gap"}


def test_zero_association_sweep():
    # the mu2 = -4*mu1 pairing cancels both measures across the whole range
    for mu1 in np.linspace(-0.11, 0.11, 9):
        if mu1 == 0.0:
            continue
        c = zero_association_model(mu1)
        # every copula of the sweep shares one term table
        _assert_numeric_is_the_cdf_route(c)
        assert abs(spearman_rho(c)) < 1e-12
        assert abs(kendall_tau(c)) < 1e-12
        assert abs(associate(c).rho_numeric) < 1e-7
        assert abs(associate(c).tau_numeric) < 1e-7


def test_step_alpha_inversion_symmetry():
    for alpha in (0.3, 0.8, 2.5):
        a, b = two_value_step(alpha, 0.4), two_value_step(1.0 / alpha, 0.4)
        assert abs(spearman_rho(a) - spearman_rho(b)) < 1e-10
        assert abs(kendall_tau(a) - kendall_tau(b)) < 1e-10


def test_sine_cosine_range_caps():
    rng = np.random.default_rng(17)
    for _ in range(30):
        sin = {k: v for k, v in zip((1, 2), rng.uniform(-1, 1, 2)) if v}
        cos = {k: v for k, v in zip((1, 3), rng.uniform(-1, 1, 2)) if v}
        total = 2.0 * (sum(map(abs, sin.values())) + sum(map(abs, cos.values())))
        scale = 0.9 / total
        c = sine_cosine_copula(sin={k: v * scale for k, v in sin.items()},
                               cos={k: v * scale for k, v in cos.items()})
        assert abs(spearman_rho(c)) <= 3.0 / PI2 + 1e-12
        assert abs(kendall_tau(c)) <= 2.0 / PI2 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.45, max_value=0.45),
       st.floats(min_value=-0.45, max_value=0.45))
def test_measures_bounded_and_consistent(l1, l3):
    c = cosine_copula({1: l1 / 2, 3: l3 / 2})
    rho, tau = spearman_rho(c), kendall_tau(c)
    assert -1.0 <= rho <= 1.0
    assert -1.0 <= tau <= 1.0
    assert abs(associate(c).rho_numeric - rho) < 1e-8
    assert abs(associate(c).tau_numeric - tau) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9))
def test_step_association_sign_follows_coefficient(lam):
    c = two_value_step(1.0, lam)
    assert spearman_rho(c) * lam >= 0.0
    assert kendall_tau(c) * lam >= 0.0
