"""Acceptance gate: eleven end-to-end checks covering the oracle agreement
of the closed association forms, the pinned constants, the fold/star
duality, the estimator CLT and its chi-square law, the coverage study
pattern, the zero-effect threshold, the mixing certificates, the fast
sampler, and the margin counter-example.

Each check appends one PASS/FAIL line to RESULTS; conftest prints them as
a terminal summary block.
"""

import math
import time

import numpy as np
import pytest

from eigencop import (Certificate, certify_psi, chi2_statistic, cosine_copula,
                      estimate_mu, fgm, generate_chain, indicator_zero_effect_threshold,
                      innovation_stream, kendall_tau, load_experiment,
                      piecewise_sign, run_coverage, sample_wl,
                      shifted_legendre_copula, sigma2_indicator,
                      sine_cosine_copula, sine_counterexample, spearman_rho,
                      star_product, two_value_step, zero_association_model,
                      Verdict)
from eigencop.association import associate

from conftest import CLT_N
from stat_helpers import binomial_central_band, ks_two_sample

RESULTS = []

# tolerances the gate runs at
TOL_SMOOTH = 1e-8
TOL_STEP = 1e-6
TOL_SWEEP = 1e-9
TOL_FOLD = 1e-6
TOL_ZERO_EFFECT = 1e-10
CLT_DIAG_TOL = 0.1
CLT_OFFDIAG_TOL = 0.05
CHI2_Q95 = 5.991464547107979
CHI2_Q95_TOL = 0.4
KS_MIN_P = 0.01
COUNTEREXAMPLE_MIN_DEV = 0.01


def _check(num: int, label: str, ok: bool, detail: str = ""):
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _random_copulas(rng):
    """100 analytically valid random copulas per family, by scaling raw
    coefficients under the uniform density bound 1 - sum |lam_k| B_k^2."""
    out = {"sine_cosine": [], "cosine": [], "shifted_legendre": [],
           "two_value_step": [], "piecewise_sign": []}
    for _ in range(100):
        g_sin = rng.uniform(-1, 1, 2)
        g_cos = rng.uniform(-1, 1, 2)
        scale = 0.9 / (2.0 * (np.abs(g_sin).sum() + np.abs(g_cos).sum()))
        out["sine_cosine"].append(sine_cosine_copula(
            sin={1: scale * g_sin[0], 2: scale * g_sin[1]},
            cos={1: scale * g_cos[0], 3: scale * g_cos[1]}))

        g = rng.uniform(-1, 1, 3)
        scale = 0.9 / (2.0 * np.abs(g).sum())
        out["cosine"].append(cosine_copula(
            {1: scale * g[0], 2: scale * g[1], 4: scale * g[2]}))

        g = rng.uniform(-1, 1, 3)
        bound = sum(abs(v) * (2 * k + 1) for k, v in zip((1, 2, 3), g))
        scale = 0.9 / bound
        out["shifted_legendre"].append(shifted_legendre_copula(
            {1: scale * g[0], 2: scale * g[1], 3: scale * g[2]}))

        alpha = rng.uniform(0.3, 3.0)
        bcap = max(alpha, 1.0 / alpha)
        lam = rng.uniform(-0.9, 0.9) / bcap
        out["two_value_step"].append(two_value_step(alpha, lam))

        cuts = np.sort(rng.uniform(0.15, 0.85, 2))
        bps = (0.0, float(cuts[0]), float(cuts[1]), 1.0)
        thetas = tuple(rng.uniform(-0.9, 0.9, 3))
        out["piecewise_sign"].append(piecewise_sign(bps, thetas))
    return out


def test_criterion_01_association_closed_vs_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    families = _random_copulas(rng)
    worst = {}
    for name, batch in families.items():
        tol = TOL_STEP if name in ("two_value_step", "piecewise_sign") else TOL_SMOOTH
        gap = 0.0
        for c in batch:
            if name == "piecewise_sign":
                # independent oracle: triangle-area integrals of the
                # antiderivatives give rho = (3/4) sum lam_k w_k^3 and
                # tau = (1/2) sum lam_k w_k^3
                w = np.diff(c.family.breakpoints)
                lam = dict(c.coeffs.entries)
                s = sum(lam.get(k + 1, 0.0) * w[k] ** 3 for k in range(w.size))
                gap = max(gap,
                          abs(0.75 * s - spearman_rho(c, "numeric")),
                          abs(0.50 * s - kendall_tau(c, "numeric")))
            else:
                rep = associate(c)
                gap = max(gap, rep.rho_gap, rep.tau_gap)
        worst[name] = gap
        assert gap <= tol, (name, gap)
    # scaled coefficients really do produce valid copulas
    for name, batch in families.items():
        assert batch[0].validate().verdict in (Verdict.VALID, Verdict.VALID_BOUNDARY)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0 and all(
        worst[n] <= (TOL_STEP if n in ("two_value_step", "piecewise_sign")
                     else TOL_SMOOTH) for n in worst)
    _check(1, "closed forms agree with quadrature on 100 random copulas per family",
           ok, f"worst gap {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_02_cosine_half_constants():
    c = cosine_copula({1: 0.5})
    rho = spearman_rho(c)
    tau = kendall_tau(c)
    ok = (abs(rho - 48.0 / math.pi ** 4) < 1e-12
          and abs(tau - 32.0 / math.pi ** 4) < 1e-12
          and 0.49 <= rho < 0.50 and 0.32 <= tau < 0.33
          and abs(rho - spearman_rho(c, "numeric")) < TOL_SMOOTH
          and abs(tau - kendall_tau(c, "numeric")) < TOL_SMOOTH)
    _check(2, "half-coefficient cosine copula hits 48/pi^4 and 32/pi^4",
           ok, f"rho={rho:.6f} tau={tau:.6f}")


def test_criterion_03_polynomial_family_sweep():
    worst_rho = worst_tau = 0.0
    for lam1 in (0.05, 0.2):
        for lam2 in (-0.2, -0.1, 0.0, 0.1, 0.2, 0.3):
            c = shifted_legendre_copula({1: lam1, 2: lam2})
            assert spearman_rho(c) == lam1  # first coefficient, exactly
            worst_rho = max(worst_rho, abs(spearman_rho(c, "numeric") - lam1))
            worst_tau = max(worst_tau,
                            abs(kendall_tau(c) - kendall_tau(c, "numeric")))
    ok = worst_rho <= TOL_SWEEP and worst_tau <= TOL_SWEEP
    _check(3, "rank correlation equals the first polynomial coefficient across sweep",
           ok, f"rho gap {worst_rho:.2e}, tau gap {worst_tau:.2e}")


def test_criterion_04_fold_matches_star_product():
    rng = np.random.default_rng(77)
    cases = [
        sine_cosine_copula(sin={1: 0.15, 2: -0.1}, cos={1: 0.1}),
        cosine_copula({1: 0.35, 2: -0.2}),
        shifted_legendre_copula({1: 0.3, 2: 0.1}),
        two_value_step(2.0, 0.7),
        piecewise_sign((0.0, 0.4, 1.0), (0.6, -0.5)),
    ]
    worst = 0.0
    for c in cases:
        star = star_product(c, c)
        u, v = rng.random(50), rng.random(50)
        worst = max(worst, float(np.max(np.abs(c.fold(2).density(u, v) - star(u, v)))))
    assert worst <= TOL_FOLD
    # coefficient semigroup is exact in floating point
    c = cases[2]
    exact = c.fold(2).fold(3).coeffs.entries == c.fold(6).coeffs.entries
    for name, cc in zip(range(len(cases)), cases):
        assert cc.fold(4).coeffs.entries == cc.fold(2).fold(2).coeffs.entries
    _check(4, "two-step fold equals the quadrature star product, semigroup exact",
           worst <= TOL_FOLD and exact, f"worst density gap {worst:.2e}")


def test_criterion_05_pair_average_clt_covariance(pair_means):
    t0 = time.monotonic()
    m1, m2 = pair_means[0][:2000], pair_means[1][:2000]
    z = np.sqrt(CLT_N - 1) * np.column_stack([m1 - 0.05, m2 + 0.2])
    cov = np.cov(z, rowvar=False)
    ok = (abs(cov[0, 0] - 1.0) <= CLT_DIAG_TOL
          and abs(cov[1, 1] - 1.0) <= CLT_DIAG_TOL
          and abs(cov[0, 1] - 0.01) <= CLT_OFFDIAG_TOL)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    _check(5, "scaled pair averages reproduce the limit covariance",
           ok, f"diag {cov[0,0]:.3f}/{cov[1,1]:.3f} offdiag {cov[0,1]:.4f}")


def test_criterion_06_chi_square_law(model_bank):
    stats = []
    for row in model_bank:
        est = estimate_mu(row)
        stats.append(chi2_statistic(est, (0.05, -0.2)))
    q95 = float(np.percentile(stats, 95.0))
    ok = abs(q95 - CHI2_Q95) <= CHI2_Q95_TOL
    _check(6, "joint statistic matches the two-degree chi-square upper tail",
           ok, f"95th pctile {q95:.3f} vs {CHI2_Q95:.3f}")


def test_criterion_07_coverage_pattern():
    base = {
        "schema": "eigencop-experiment/1",
        "experiment": "coverage_bernoulli",
        "copula": {"zero_association": 0.05},
        "thresholds": [round(0.1 * k, 1) for k in range(1, 10)],
        "n": 1000,
        "replicates": 1000,
        "master_seed": 19,
    }
    lo, hi = binomial_central_band(1000, 0.95, 0.99)
    model = run_coverage(load_experiment({**base, "variance_mode": "model"})).rows
    iid = run_coverage(load_experiment({**base, "variance_mode": "iid"})).rows
    model_ok = all(lo <= r.covered_count <= hi for r in model)
    mid = [r for r in iid if 0.35 <= r.params["a"] <= 0.65]
    iid_breaks = any(not lo <= r.covered_count <= hi for r in mid)
    ok = model_ok and iid_breaks
    detail = ("model " + "/".join(str(r.covered_count) for r in model)
              + f" in [{lo},{hi}]; iid mid "
              + "/".join(str(r.covered_count) for r in mid))
    _check(7, "dependence-aware intervals hold level, iid intervals break mid-range",
           ok, detail)


def test_criterion_08_zero_effect_threshold():
    worst = 0.0
    for mu1 in (0.02, 0.05, 0.1):
        a = indicator_zero_effect_threshold(mu1)
        worst = max(worst, abs(sigma2_indicator(a, mu1) - a * (1.0 - a)))
    ok = worst <= TOL_ZERO_EFFECT
    _check(8, "indicator variance collapses to Bernoulli at the root threshold",
           ok, f"worst residual {worst:.2e}")


def test_criterion_09_mixing_certificates():
    certified = all(
        certify_psi(fgm(t), max_n=3).certificate is Certificate.CERTIFIED_LESS_THAN_TWO
        for t in (1.0, -1.0))
    boundary = all(
        certify_psi(two_value_step(1.0, lam), max_n=3).certificate
        is Certificate.BOUNDARY_NON_MIXING for lam in (1.0, -1.0))
    inside = (certify_psi(two_value_step(1.0, 0.9), max_n=3).certificate
              is Certificate.CERTIFIED_LESS_THAN_TWO)
    ok = certified and boundary and inside
    _check(9, "fold-density bounds certify mixing and flag the boundary",
           ok, f"fgm={certified} boundary={boundary} lam09={inside}")


def test_criterion_10_fast_sampler_agrees_with_generic():
    c = two_value_step(1.0, 0.5)
    n = 100000
    chain = generate_chain(c, n, 101)
    rng = innovation_stream(202)
    u = rng.random()
    out = np.empty(n)
    out[0] = u
    q = rng.random(n - 1)
    for i in range(n - 1):
        u = sample_wl(0.5, u, q[i])
        out[i + 1] = u
    stat, p = ks_two_sample(chain.values, out)
    ok = p > KS_MIN_P
    _check(10, "closed-form step sampler indistinguishable from generic inversion",
           ok, f"KS stat {stat:.5f} p {p:.4f}")


def test_criterion_11_margin_defect_counterexample():
    rec = sine_counterexample(10)
    never_valid = all(
        sine_counterexample(k, grid_points=801).verdict is Verdict.INVALID
        for k in (0, 1, 5, 40))
    ok = (rec.max_deviation > COUNTEREXAMPLE_MIN_DEV
          and rec.verdict is Verdict.INVALID and never_valid)
    _check(11, "truncated sine construction fails the uniform-margin requirement",
           ok, f"max deviation {rec.max_deviation:.4f}")
