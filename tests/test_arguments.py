"""Values in [0, 1] and counts: one check each, shared by every public entry
point.  Bad input raises ValueError naming the argument; numpy integers are
counts like plain ints, and bools are not."""

import json
import math

import numpy as np
import pytest

from eigencop import (Bernoulli, Cosine, Exponential, ShiftedLegendre,
                      SineCosine, SpectralCoefficients, SpectralCopula,
                      TwoValueStep, apply_transform, certify_psi,
                      copula_to_config, cosine_copula, estimate_mu, eval_Phi,
                      eval_phi, extrema, generate_chain, generate_chain_bank,
                      innovation_stream, load_copula, mean_ci,
                      parse_copula_config, rho_sequence, sample_wl,
                      shifted_legendre_copula, sine_cosine_copula,
                      sine_counterexample, two_sine_model, two_value_step,
                      wald_interval)

C = two_sine_model(0.2, -0.15)

# (call, bad argument, message fragment): NaN, non-integral and bool
# arguments, each of which must raise ValueError with the fragment
BAD = [
    (lambda: C.validate(2.5), "grid_n=2.5", "grid_n must be an integer"),
    (lambda: C.validate(np.float64(64.0)), "grid_n=float64", "grid_n must be an integer"),
    (lambda: C.density_grid(8.0), "grid_n=8.0", "grid_n must be an integer"),
    (lambda: certify_psi(C, grid_n=100.0), "grid_n=100.0", "grid_n must be an integer"),
    (lambda: certify_psi(C, max_n=2.5), "max_n=2.5", "max_n must be an integer"),
    (lambda: rho_sequence(C, 2.5), "n_max=2.5", "n_max must be an integer"),
    (lambda: C.fold(True), "n=True", "fold power must be an integer, not bool"),
    (lambda: generate_chain(C, 5, True), "seed=True", "stream key must be an integer"),
    (lambda: generate_chain_bank(C, True, [1]), "n=True", "chain length must be an integer"),
    (lambda: innovation_stream(3, False), "key=False", "stream key must be an integer"),
    (lambda: sine_counterexample(2.5), "n_terms=2.5", "n_terms must be an integer"),
    (lambda: sine_counterexample(3, grid_points=100.0), "grid_points=100.0",
     "grid_points must be an integer"),
    (lambda: estimate_mu([0.1, 5.0, 0.3]), "values=5.0", r"must lie in \[0,1\]"),
    (lambda: estimate_mu([0.1, math.nan, 0.3]), "values=nan", r"must lie in \[0,1\]"),
    (lambda: apply_transform(Exponential(1.0), [2.0]), "u=2.0", r"must lie in \[0,1\]"),
    (lambda: apply_transform(Bernoulli(0.5), [math.nan]), "u=nan", r"must lie in \[0,1\]"),
    (lambda: sine_cosine_copula(sin={1.5: 0.1}), "k=1.5", "sin index must be an integer"),
    (lambda: sine_cosine_copula(sin={"1": 0.1}), "k='1'", "sin index must be an integer"),
    (lambda: sine_cosine_copula(cos={True: 0.1}), "k=True", "cos index must be an integer"),
    (lambda: sample_wl(math.nan, 0.3, 0.4), "lam=nan", r"\|lam\| <= 1"),
    (lambda: wald_interval(0.5, math.nan, 10, 0.95), "sigma2=nan", "variance must be nonnegative"),
    (lambda: mean_ci([0.2, 0.4], math.nan), "sigma2=nan", "variance must be nonnegative"),
    (lambda: wald_interval(0.5, 0.1, 0, 0.95), "n=0", "n must be at least 1"),
    (lambda: wald_interval(0.5, 0.1, 2.5, 0.95), "n=2.5", "n must be an integer"),
    (lambda: wald_interval(0.5, 0.1, True, 0.95), "n=True", "n must be an integer"),
    (lambda: Exponential(math.inf), "rate=inf", "0 < rate < inf"),
    # a bool index or alpha would echo as a JSON true, which no record reads
    (lambda: cosine_copula({True: 0.3}), "k=True", "indices are integers >= 1"),
    (lambda: shifted_legendre_copula({True: 0.2}), "k=True", "indices are integers >= 1"),
    (lambda: SpectralCopula(SineCosine(), SpectralCoefficients(((("sin", True), 0.1),))),
     "k=(sin,True)", "SineCosine indices are"),
    (lambda: SpectralCopula(TwoValueStep(1.0), SpectralCoefficients(((True, 0.5),))),
     "step k=True", "indices are integers >= 1"),
    (lambda: eval_phi(Cosine(), True, 0.5), "eval_phi k=True", "indices are integers >= 1"),
    (lambda: extrema(ShiftedLegendre(), True), "extrema k=True", "indices are integers >= 1"),
    (lambda: two_value_step(True, 0.5), "alpha=True", "alpha must be a number, not bool"),
    (lambda: TwoValueStep(False), "alpha=False", "alpha must be a number, not bool"),
]


@pytest.mark.parametrize("call, fragment", [(c, f) for c, _, f in BAD],
                         ids=[f"{i}-{arg}" for i, (_, arg, _) in enumerate(BAD)])
def test_bad_arguments_raise(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_numpy_integers_are_counts():
    i64 = np.int64
    assert C.fold(i64(3)).coeffs == C.fold(3).coeffs
    assert C.fold(i64(3)).fold_power == 3
    rep = C.validate(i64(64))
    assert rep == C.validate(64)
    assert json.loads(json.dumps(rep.as_dict()))["grid_shape"] == [64, 64]
    mix = certify_psi(C, i64(5), i64(32))
    assert mix == certify_psi(C, 5, 32)
    json.dumps(mix.as_dict())
    assert np.array_equal(generate_chain_bank(C, i64(40), [i64(3), (i64(4), 1)]),
                          generate_chain_bank(C, 40, [3, (4, 1)]))
    assert np.array_equal(generate_chain(C, 40, i64(3)).values, generate_chain(C, 40, 3).values)
    assert np.array_equal(rho_sequence(C, i64(4)), rho_sequence(C, 4))
    assert sine_counterexample(i64(3)) == sine_counterexample(3)
    assert sine_cosine_copula(sin={i64(2): 0.1}) == sine_cosine_copula(sin={2: 0.1})


def test_numpy_indices_are_stored_as_plain_ints():
    i64 = np.int64
    x = np.linspace(0.0, 1.0, 9)
    for c, plain in ((cosine_copula({i64(2): 0.3}), cosine_copula({2: 0.3})),
                     (shifted_legendre_copula({i64(1): 0.2, 3: 0.05}),
                      shifted_legendre_copula({1: 0.2, 3: 0.05})),
                     (SpectralCopula(SineCosine(), SpectralCoefficients(((("cos", i64(3)), 0.1),))),
                      sine_cosine_copula(cos={3: 0.1})),
                     (two_value_step(0.5, 0.4).fold(i64(2)), two_value_step(0.5, 0.4).fold(2))):
        assert c == plain
        ks = [k[1] if isinstance(k, tuple) else k for k, _ in c.coeffs.entries]
        assert all(type(k) is int for k in ks)
        assert np.array_equal(c.cdf(x, x[::-1]), plain.cdf(x, x[::-1]))
        # the echo is a record the reader takes back
        assert parse_copula_config(copula_to_config(c)) == c
        assert load_copula(json.dumps(copula_to_config(c))) == c
    assert np.array_equal(eval_phi(Cosine(), i64(1), x), eval_phi(Cosine(), 1, x))
    assert np.array_equal(eval_Phi(ShiftedLegendre(), i64(2), x),
                          eval_Phi(ShiftedLegendre(), 2, x))
    assert extrema(Cosine(), i64(1)) == extrema(Cosine(), 1)
    assert extrema(ShiftedLegendre(), i64(4)) == extrema(ShiftedLegendre(), 4)


def test_limits_name_the_argument():
    for call, message in ((lambda: C.validate(1), "grid_n must be at least 2"),
                          (lambda: certify_psi(C, max_n=0), "max_n must be at least 1"),
                          (lambda: C.fold(0), "fold power must be at least 1"),
                          (lambda: innovation_stream(-1), "stream key must be at least 0"),
                          (lambda: generate_chain_bank(C, 0, [1]),
                           "chain length must be at least 1")):
        with pytest.raises(ValueError, match=message):
            call()
