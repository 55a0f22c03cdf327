import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencop import sampling
from eigencop.basis import Cosine, eval_phi, eval_Phi, extrema, term_table
from eigencop import (Bernoulli, Exponential, SpectralCoefficients, SpectralCopula,
                      Uniform, Verdict, apply_transform,
                      cosine_copula, fgm, generate_chain, generate_chain_bank,
                      independence, innovation_stream, next_state,
                      piecewise_sign, sample_wl, shifted_legendre_copula,
                      sine_cosine_copula, two_sine_model, two_value_step,
                      zero_association_model)

from stat_helpers import chi2_gof, ks_uniform, lag1_autocorrelation
from test_basis import TABLES

SMOOTH = [
    cosine_copula({1: 0.35, 2: -0.1}),  # VALID, margin 0.1
    shifted_legendre_copula({1: 0.3, 2: 0.15}),
    two_sine_model(0.2, -0.15),
    shifted_legendre_copula({1: 0.1, 3: 0.05, 5: 0.02}),  # VALID, margin 0.13
    sine_cosine_copula(sin={1: 0.1}, cos={1: 0.1, 3: 0.05}),  # VALID, margin 0.5
]
STEPS = [
    two_value_step(1.0, 0.6),
    two_value_step(0.4, -0.3),
    piecewise_sign((0.0, 0.3, 1.0), (0.7, -0.5)),
]


@pytest.mark.parametrize("c", SMOOTH)
def test_next_state_inverts_conditional_cdf_smooth(c):
    rng = np.random.default_rng(2)
    for _ in range(25):
        u, w = rng.random(), rng.random()
        v = next_state(c, u, w)
        assert 0.0 <= v <= 1.0
        assert abs(c.conditional_cdf(u, v) - w) < 1e-9


@pytest.mark.parametrize("c", STEPS)
def test_next_state_inverts_conditional_cdf_step(c):
    rng = np.random.default_rng(3)
    for _ in range(25):
        u, w = rng.random(), rng.random()
        v = next_state(c, u, w)
        assert abs(c.conditional_cdf(u, v) - w) < 1e-12


@pytest.mark.parametrize("c", SMOOTH + STEPS)
def test_vector_path_matches_scalar_path(c):
    rng = np.random.default_rng(4)
    u = rng.random(64)
    w = rng.random(64)
    vec = next_state(c, u, w)
    scal = np.array([next_state(c, float(a), float(b)) for a, b in zip(u, w)])
    assert np.array_equal(vec, scal)


@pytest.mark.parametrize("c", SMOOTH + STEPS)
def test_next_state_keeps_the_shape_of_small_arrays(c):
    # arrays of fewer than FLOAT_PATH_LANES elements step lane by lane on
    # the float path; the shape is kept and each value is the scalar call's
    rng = np.random.default_rng(6)
    u, w = rng.random((4, 5)), rng.random((4, 5))
    out = next_state(c, u, w)
    assert out.shape == (4, 5)
    assert np.array_equal(out, [[next_state(c, a, b) for a, b in zip(ru, rw)]
                                for ru, rw in zip(u.tolist(), w.tolist())])
    # 0-d arrays in, a float out, as for plain numbers, ints too
    v = next_state(c, np.array(u[0, 0]), np.array(w[0, 0]))
    assert type(v) is float and v == out[0, 0]
    v = next_state(c, float(u[0, 0]), float(w[0, 0]))
    assert type(v) is float and v == out[0, 0]
    assert _same_floats(next_state(c, 1, 0), next_state(c, np.array(1.0), np.array(0.0)))


def test_next_state_independence_passthrough():
    c = independence()
    assert next_state(c, 0.3, 0.77) == 0.77
    w = np.linspace(0, 1, 11)
    assert np.array_equal(next_state(c, w, w), w)


def test_next_state_validates_inputs():
    c = fgm(0.5)
    with pytest.raises(ValueError):
        next_state(c, 1.2, 0.5)
    with pytest.raises(ValueError):
        next_state(c, np.array([0.1, 0.2]), np.array([0.3]))
    with pytest.raises(ValueError, match="matching shapes"):
        next_state(c, 0.3, np.array([0.1, 0.2]))


@pytest.mark.parametrize("call", [
    lambda: next_state(two_sine_model(0.05, -0.2), math.nan, 0.5),
    lambda: next_state(two_sine_model(0.05, -0.2), 0.5, math.nan),
    lambda: next_state(two_value_step(1.0, 0.5), 0.5, math.nan),
    lambda: next_state(two_sine_model(0.05, -0.2), np.array([0.5, math.nan]),
                       np.array([0.5, 0.5])),
    lambda: next_state(two_value_step(1.0, 0.5), np.array([0.5, 0.5]),
                       np.array([math.nan, 0.5])),
    lambda: sample_wl(0.5, math.nan, 0.3),
    lambda: sample_wl(0.5, 0.3, math.nan),
    lambda: sample_wl(0.5, np.array([0.3, math.nan]), np.array([0.3, 0.3])),
    lambda: eval_phi(Cosine(), 1, math.nan),
    lambda: eval_Phi(Cosine(), 1, np.array([0.5, math.nan])),
], ids=["next_state-u", "next_state-w", "next_state-step-w", "next_state-array-u",
        "next_state-step-array-w", "sample_wl-u", "sample_wl-q", "sample_wl-array",
        "eval_phi", "eval_Phi-array"])
def test_nan_inputs_are_rejected(call):
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        call()


def test_sample_wl_four_branches_by_hand():
    lam = 0.5
    c = two_value_step(1.0, lam)
    # low state, innovation under the kink value
    assert sample_wl(lam, 0.25, 0.3) == pytest.approx(0.3 / 1.5, abs=1e-15)
    # low state, innovation past the kink
    assert sample_wl(lam, 0.25, 0.8) == pytest.approx((0.8 - 0.5) / 0.5, abs=1e-15)
    # high state branches
    assert sample_wl(lam, 0.75, 0.2) == pytest.approx(0.2 / 0.5, abs=1e-15)
    assert sample_wl(lam, 0.75, 0.3) == pytest.approx(0.8 / 1.5, abs=1e-15)
    # each solves the conditional CDF equation
    for u, q in ((0.25, 0.3), (0.25, 0.8), (0.75, 0.2), (0.75, 0.3)):
        v = sample_wl(lam, u, q)
        assert abs(c.conditional_cdf(u, v) - q) < 1e-12


def test_sample_wl_boundary_coefficients():
    # lam=1: chain stays within its half; lam=-1: alternates
    v = sample_wl(1.0, 0.25, np.linspace(0, 0.99, 13))
    assert np.all(v < 0.5 + 1e-12)
    v = sample_wl(-1.0, 0.25, np.linspace(0.01, 0.99, 13))
    assert np.all(v >= 0.5 - 1e-12)
    with pytest.raises(ValueError):
        sample_wl(1.1, 0.5, 0.5)


def test_sample_wl_matches_generic_solver():
    lam = -0.7
    c = two_value_step(1.0, lam)
    rng = np.random.default_rng(8)
    u, q = rng.random(500), rng.random(500)
    v = sample_wl(lam, u, q)
    assert np.max(np.abs(v - next_state(c, u, q))) < 1e-12
    # array lanes go through the scalar formula, and a 2-D input keeps its shape
    assert np.array_equal([sample_wl(lam, a, b) for a, b in zip(u, q)], v)
    grid = sample_wl(lam, u[:20].reshape(4, 5), q[:20].reshape(4, 5))
    assert grid.shape == (4, 5) and np.array_equal(grid.ravel(), v[:20])


def test_sample_wl_returns_a_plain_float_for_every_scalar_kind():
    # plain floats, float subclasses (np.float64), ints and 0-d arrays give
    # the same plain float as the array lanes
    want = sample_wl(0.5, np.array([0.25, 1.0]), np.array([0.3, 0.0]))
    for u, q in ((0.25, 0.3), (np.float64(0.25), np.float64(0.3)), (0.25, np.array(0.3))):
        v = sample_wl(0.5, u, q)
        assert type(v) is float and v == want[0]
    v = sample_wl(0.5, 1, 0)
    assert type(v) is float and v == want[1]


def test_generate_chain_deterministic_and_seed_sensitive():
    c = zero_association_model(0.05)
    a = generate_chain(c, 200, 7)
    b = generate_chain(c, 200, 7)
    d = generate_chain(c, 200, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, d.values)
    assert a.n == 200


def test_generate_chain_transforms():
    c = fgm(0.6)
    exp = generate_chain(c, 50, 1, Exponential(2.0))
    assert np.allclose(exp.transformed, -2.0 * np.log1p(-exp.values))
    ber = generate_chain(c, 50, 1, Bernoulli(0.4))
    assert set(np.unique(ber.transformed)) <= {0.0, 1.0}
    assert np.array_equal(ber.values, exp.values)  # same seed, same chain
    uni = generate_chain(c, 50, 1, Uniform())
    assert np.array_equal(uni.transformed, uni.values)


def test_apply_transform_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Bernoulli(1.0)


def test_innovation_stream_keys():
    a = innovation_stream(1, 2, 3).random(5)
    b = innovation_stream(1, 2, 3).random(5)
    c = innovation_stream(1, 2, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        innovation_stream()
    with pytest.raises(ValueError):
        innovation_stream(-1)


def test_bank_rows_deterministic_and_independent_of_batch():
    c = cosine_copula({1: 0.3})
    bank = generate_chain_bank(c, 60, [(5, 0), (5, 1), (5, 2)])
    sub = generate_chain_bank(c, 60, [(5, 1)])
    assert np.allclose(bank[1], sub[0], atol=1e-12)
    assert generate_chain_bank(c, 10, []).shape == (0, 10)


@pytest.mark.parametrize("c", SMOOTH + STEPS)
def test_bank_matches_scalar_chain_for_int_keys(c):
    # a one-lane bank runs on the float path, a bank of FLOAT_PATH_LANES
    # lanes on the array path; both reproduce the scalar chain
    chain = generate_chain(c, 80, 31)
    assert np.array_equal(generate_chain_bank(c, 80, [(31,)])[0], chain.values)
    keys = [(31,)] + [(31, r) for r in range(1, sampling.FLOAT_PATH_LANES)]
    assert np.array_equal(generate_chain_bank(c, 80, keys)[0], chain.values)


def test_solver_stops_at_once_on_no_lanes():
    # with no lane left there is nothing to iterate; the terms are never
    # evaluated
    c = two_sine_model(0.2, -0.15)
    calls = []
    sampler = sampling._Sampler(c)
    counted = _logging(sampler.sums, calls)
    empty = np.array([])
    out = sampling._run_lanes(np.empty((0, 5)), counted, sampler.table.phi,
                              np.empty((len(c.terms.indices), 0)), sampler.bound)
    assert out.shape == (0, 5) and calls == []
    assert next_state(c, empty, empty).shape == (0,)


@pytest.mark.parametrize("lanes, n", [(64, 1000), (400, 500)])
def test_bank_stepping_holds_no_second_bank_sized_array(lanes, n):
    # each row holds its stream's draws, and every step overwrites its
    # innovation with the state; a one-row bank first caches the copula's
    # validation, which is not part of stepping
    c = two_sine_model(0.05, -0.2)
    generate_chain_bank(c, 2, [1])
    tracemalloc.start()
    try:
        bank = generate_chain_bank(c, n, [(9, i) for i in range(lanes)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * bank.nbytes


def _random_smooth_copulas(seed=17, per_family=4):
    """VALID copulas of the three smooth families with random signed
    coefficients: sum |lambda_k| sup phi_k^2 = 0.9 keeps the density
    above 0.1.  Legendre indices reach 5."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(per_family):
        def draw(keys, sup2):
            keys = [keys[i] for i in sorted(rng.choice(len(keys), rng.integers(1, 4),
                                                       replace=False))]
            weight = rng.random(len(keys)) * rng.choice([-1.0, 1.0], len(keys))
            scale = 0.9 / sum(abs(a) * sup2(k) for a, k in zip(weight, keys))
            return {k: float(a * scale) for a, k in zip(weight, keys)}
        out.append(cosine_copula(draw([1, 2, 3, 4, 5], lambda k: 2.0)))
        out.append(shifted_legendre_copula(draw([1, 2, 3, 4, 5], lambda k: 2 * k + 1)))
        lam = draw([("sin", 1), ("sin", 2), ("cos", 1), ("cos", 3)], lambda k: 2.0)
        out.append(sine_cosine_copula(sin={k[1]: a for k, a in lam.items() if k[0] == "sin"},
                                      cos={k[1]: a for k, a in lam.items() if k[0] == "cos"}))
    return out


def _logging(f, log):
    # f, logging the lane count of each call's first argument
    def logged(x, *args):
        log.append(np.size(x))
        return f(x, *args)
    return logged


def _counting_stepper(table, log):
    """The float stepper compiled from a copy of its template that logs each
    evaluation of g and c; the term text is inlined and calls nothing, so
    evaluations are counted in the loop itself."""
    line = "            g = (x - w\n"
    assert sampling._STEPPER.count(line) == 1
    template = sampling._STEPPER.replace(line, "            log.append(x)\n" + line)
    return table.compile(template, {**table.namespace(math), "log": log})["run"]


def _assert_early_stop_is_exact(c):
    # without the stop every root is confirmed by one more evaluation of g;
    # with it, that evaluation is skipped where it could only confirm, and
    # the root is the same float on both paths
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.random(300), [0.0, 1.0, 0.0, 1.0]])
    w = np.concatenate([rng.random(300), [0.0, 1.0, 1.0, 0.0]])
    bounded, plain = sampling._Sampler(c), sampling._Sampler(c)
    assert bounded.bound is not None
    plain.bound = None
    # the start tables are built before the counting begins, so that the
    # counts below are the bank's evaluations alone
    assert bounded.starts == plain.starts

    calls, lanes = [], []
    # the float path: the stepper with every evaluation logged; the array
    # path: the term sums, logging the lanes of each evaluation
    run = _counting_stepper(c.terms, calls)
    for sampler in (bounded, plain):
        sampler.stepper = run
        sampler.sums = _logging(sampler.sums, lanes)
    early = 0
    roots = []
    for a, b in zip(u.tolist(), w.tolist()):
        n0 = len(calls)
        v = bounded.advance(np.array([[a, b]]))[0, 1]
        roots.append(v)
        n1 = len(calls)
        assert _same_floats(plain.advance(np.array([[a, b]]))[0, 1], v)
        saved = (len(calls) - n1) - (n1 - n0)
        assert saved in (0, 1)  # at most one evaluation saved
        if saved:
            early += 1
            assert abs(c.conditional_cdf(a, v) - b) <= sampling.RESIDUAL_TOL
    assert early > 0
    # the array path: one bound for every lane, or None, which runs the
    # full iteration, _run_lanes(..., bound=None)
    assert _same_floats(bounded.advance(np.column_stack([u, w]))[:, 1], roots)
    with_bound = sum(lanes)
    assert _same_floats(plain.advance(np.column_stack([u, w]))[:, 1], roots)
    assert with_bound < sum(lanes) - with_bound


@pytest.mark.parametrize("c", [cosine_copula({1: 0.5}),  # boundary: density 0 at corners
                               shifted_legendre_copula({1: 0.1, 3: 0.05, 5: 0.02})]
                         + _random_smooth_copulas())
def test_early_stop_returns_the_full_iterations_roots(c):
    _assert_early_stop_is_exact(c)


@pytest.mark.parametrize("c", STEPS + [
    two_value_step(1.0, 1.0), two_value_step(2.0, 1.0),  # boundary: density 0 on blocks
    piecewise_sign((0.0, 0.5, 1.0), (1.0, -1.0)),
    piecewise_sign((0.0, 0.2, 0.5, 1.0), (0.9, -0.8, 0.7)),
], ids=["two-value", "two-value-alpha0.4", "sign-flip", "two-value-boundary",
        "two-value-alpha2-boundary", "sign-boundary", "sign-3-cells"])
def test_step_early_stop_returns_the_full_iterations_roots(c):
    # g is linear on each piece, so a Newton step that stays on its
    # iterate's piece is the root up to rounding
    _assert_early_stop_is_exact(c)


def test_step_early_stop_needs_a_small_rounding_bound():
    # B = (3K + 10) 2^-53 (1 + sum |lambda_k| sup phi_k^2) bounds |g| at a
    # Newton step on the iterate's piece; above RESIDUAL_TOL there is no stop
    for c, stops in ((two_value_step(1.0, 0.6), True), (two_value_step(500.0, 1.0), True),
                     (two_value_step(1e-4, -1e-4), True), (two_value_step(1e4, 1.0), False),
                     (two_value_step(1e-4, 1.0), False)):
        bound = sampling._Sampler(c).bound
        assert (bound is not None) == stops
        assert bound is None or bound <= sampling.RESIDUAL_TOL


@pytest.mark.parametrize("c", SMOOTH + STEPS + [
    [zero_association_model(0.0), zero_association_model(0.05), zero_association_model(0.1)]])
def test_bank_rows_do_not_depend_on_the_width_routing(c):
    # banks narrower than FLOAT_PATH_LANES step lane by lane on plain
    # floats, wider ones on arrays; a row is the same either way
    width = sampling.FLOAT_PATH_LANES
    keys = [(23, r) for r in range(2 * width)]

    def bank(m):
        lanes = [c[i % len(c)] for i in range(m)] if isinstance(c, list) else c
        return generate_chain_bank(lanes, 60, keys[:m])

    wide = bank(2 * width)
    for m in (1, width - 1, width):
        assert np.array_equal(bank(m), wide[:m])


@pytest.mark.parametrize("models", [
    [zero_association_model(0.05), zero_association_model(0.1),
     zero_association_model(0.11)],
    [shifted_legendre_copula({1: 0.3, 2: 0.15}),
     shifted_legendre_copula({1: -0.2, 2: 0.1})],
    # mu1 = 0 drops both terms: the family's independence copula joins
    [zero_association_model(0.0), zero_association_model(0.05)],
])
def test_bank_with_per_row_copulas_equals_single_copula_banks(models):
    keys = [(13, i) for i in range(12)]
    rows = [models[i % len(models)] for i in range(12)]
    bank = generate_chain_bank(rows, 200, keys)
    for j, c in enumerate(models):
        mine = list(range(j, 12, len(models)))
        alone = generate_chain_bank(c, 200, [keys[i] for i in mine])
        assert np.array_equal(bank[mine], alone)


def test_bank_with_one_copula_list_equals_plain_call():
    c = two_sine_model(0.2, -0.15)
    keys = [(3, r) for r in range(5)]
    assert np.array_equal(generate_chain_bank([c] * 5, 100, keys),
                          generate_chain_bank(c, 100, keys))


def test_wide_per_row_bank_with_term_free_lanes_equals_single_copula_banks():
    # on the array path a term-free lane returns at its first evaluation and
    # moves on at once, so over 1,000 steps its columns run far ahead of the
    # other lanes'
    models = [zero_association_model(0.0), zero_association_model(0.05),
              zero_association_model(0.11)]
    lanes = 2 * sampling.FLOAT_PATH_LANES + 2
    keys = [(19, i) for i in range(lanes)]
    bank = generate_chain_bank([models[i % 3] for i in range(lanes)], 1000, keys)
    for j, c in enumerate(models):
        mine = list(range(j, lanes, 3))
        assert _same_floats(bank[mine], generate_chain_bank(c, 1000, [keys[i] for i in mine]))


@pytest.mark.parametrize("models", [
    [zero_association_model(0.05), cosine_copula({1: 0.1, 2: 0.1})],
    [shifted_legendre_copula({1: 0.1, 2: 0.1}), shifted_legendre_copula({1: 0.1, 3: 0.1})],
    [shifted_legendre_copula({1: 0.1, 2: 0.1}), shifted_legendre_copula({1: 0.1})],
])
def test_bank_rejects_copulas_of_another_family_or_index_set(models):
    with pytest.raises(ValueError, match="one family and one index set"):
        generate_chain_bank(models, 10, [(1,), (2,)])


def test_bank_needs_one_copula_per_key():
    with pytest.raises(ValueError, match="one copula per seed key"):
        generate_chain_bank([fgm(0.5)] * 3, 10, [(1,), (2,)])


# -- the compiled stepper against a plain float loop -------------------------


def _reference_stop(table, bound, q, t, v):
    # M q^2 <= RESIDUAL_TOL where a slope bound exists; on a step family,
    # the Newton step t on the piece of its iterate v
    if table.slopes is None:
        cuts = table.constants["CUTS"]
        return bisect_right(cuts, t) == bisect_right(cuts, v)
    return bound * q * q <= sampling.RESIDUAL_TOL


def _reference_start(start, u, w):
    """v0 = clamp(w + delta, 0, 1), delta bilinear in the start table's
    cell of (u, w), whose nodes are (i / START_N, j / START_N); w where
    there is no table."""
    if start is None:
        return w
    n = sampling.START_N
    i, j = min(int(u * n), n - 1), min(int(w * n), n - 1)
    fu, fw = u * n - i, w * n - j
    (d00, d01), (d10, d11) = [start[a * (n + 1) + j:a * (n + 1) + j + 2] for a in (i, i + 1)]
    near = d00 + fw * (d01 - d00)
    far = d10 + fw * (d11 - d10)
    return min(max(w + (near + fu * (far - near)), 0.0), 1.0)


def _reference_solve(table, s, w, bound, v0):
    """Root of g(v) = v + sum s_k*Phi_k(v) - w on [0,1] by the float solve
    that the compiled stepper replaced, from v0, with the terms from the
    table's float form."""
    lo, hi = 0.0, 1.0
    v = v0
    for _ in range(sampling.MAX_ITER):
        g = v - w
        c = 1.0
        for sk, p, P in zip(s, table.phi(v), table.Phi(v)):
            g += sk * P
            c += sk * p
        if abs(g) <= sampling.RESIDUAL_TOL:
            return v
        if g < 0.0:
            lo = v
        else:
            hi = v
        mid = 0.5 * (lo + hi)
        if hi - lo <= sampling.BRACKET_TOL:
            return mid
        if c > 0.0:
            q = g / c
            t = v - q
            if lo < t < hi:
                if bound is not None and _reference_stop(table, bound, q, t, v):
                    return t
                v = t
                continue
        v = mid
    return v


def _reference_chain(table, state, states, lams, bound, start):
    # the float path's chain loop, with a new coefficient list at every step
    for t, w in enumerate(states):
        s = [lam * p for lam, p in zip(lams, table.phi(state))]
        v0 = _reference_start(start, state, w)
        state = states[t] = _reference_solve(table, s, w, bound, v0)
    return states


def _same_floats(a, b):
    # bit for bit, so that 0.0 and -0.0 differ
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("family,ks", TABLES)
def test_compiled_stepper_equals_the_closure_loop_on_every_table(family, ks):
    # coefficients of alternating sign with sum |lambda_k| sup phi_k^2 = 0.9,
    # with and without the early stop: the slope bound
    # M = sum |lambda_k| sup |phi_k| D_k, or a step family's rounding bound
    # every table runs from v0 = w, and a smooth one also from its copula's
    # start table
    table = term_table(family, ks)
    run = table.compiled(sampling._STEPPER, math)["run"]
    limits = (sampling.MAX_ITER, sampling.RESIDUAL_TOL, sampling.BRACKET_TOL, sampling.START_N)
    sup = [max(map(abs, extrema(family, k))) for k in ks]
    lams = tuple((-1.0) ** i * 0.9 / (len(ks) * s * s) for i, s in enumerate(sup))
    tables = [None]
    if table.slopes is None:
        bounds = [None, (3 * len(ks) + 10) * 2.0 ** -53 * 1.9]
    else:
        bounds = [None, sum(abs(lam) * s * d for lam, s, d in zip(lams, sup, table.slopes))]
        tables.append(sampling._start_table(_alternating(family, ks)))
    states = np.random.default_rng(9).random(300).tolist() + [0.0, 1.0, 1.0, 0.0, 0.5]
    for bound in bounds:
        for tab in tables:
            for start in (0.0, 0.3, 1.0):
                got = run(start, list(states), lams, bound, limits, tab)
                want = _reference_chain(table, start, list(states), lams, bound, tab)
                assert _same_floats(got, want)


def _reference_bank(c, n, keys):
    """generate_chain_bank with every row through the reference loop."""
    sampler = sampling._Sampler(c)
    u = np.empty((len(keys), n))
    for i, key in enumerate(keys):
        innovation_stream(*key).random(n, out=u[i])
    rows = list(zip(sampler.rows, sampler.starts))
    for row, (lams, start) in zip(u, rows * len(u) if len(rows) == 1 else rows):
        row[1:] = _reference_chain(sampler.table, float(row[0]), row[1:].tolist(), lams,
                                   sampler.bound, start)
    return u


@pytest.mark.parametrize("c", [
    cosine_copula({1: 0.5}), two_value_step(1.0, 1.0),  # boundary copulas
    two_value_step(2.0, 1.0), shifted_legendre_copula({1: 0.1, 3: 0.05, 5: 0.02}),
    independence(), shifted_legendre_copula({}),  # no terms
    [zero_association_model(0.0), zero_association_model(0.05), zero_association_model(0.11)],
], ids=["cosine-boundary", "two-value-boundary", "two-value-alpha2", "legendre-135",
        "independence", "legendre-no-terms", "per-row-zero-association"])
@pytest.mark.parametrize("lanes", [1, 5, 31, sampling.FLOAT_PATH_LANES - 1])
def test_float_path_banks_equal_the_closure_loop(c, lanes):
    keys = [(29, r) for r in range(lanes)]
    rows = [c[i % len(c)] for i in range(lanes)] if isinstance(c, list) else c
    bank = generate_chain_bank(rows, 150, keys)
    assert _same_floats(bank, _reference_bank(rows, 150, keys))
    if not isinstance(c, list) and not c.coeffs.entries:
        # with no terms every state is its innovation
        draws = np.array([innovation_stream(*key).random(150) for key in keys])
        assert _same_floats(bank, draws)


def test_one_family_and_index_set_compile_once():
    a, b = cosine_copula({1: 0.3, 2: 0.1}), cosine_copula({1: -0.2, 2: 0.05})
    run = sampling._Sampler(a).stepper
    assert sampling._Sampler(b).stepper is run
    # each term enters g and c in parentheses
    phi, Phi = a.terms.terms[0]
    source = a.terms.source(sampling._STEPPER)
    pad = " " * 17
    assert f"g = (x - w\n{pad}+ s0 * ({Phi})\n" in source
    assert f"c = (1.0\n{pad}+ s0 * ({phi})\n" in source
    assert sampling._Sampler(cosine_copula({1: 0.3})).stepper is not run
    # a single copula's sampler is prepared once, for equal copulas too
    assert sampling._sampler(a) is sampling._sampler(cosine_copula({1: 0.3, 2: 0.1}))
    assert sampling._sampler([a, b]) is not sampling._sampler([a, b])


def _worst_residual(c, u, seed):
    """max |d1C(u_t, u_{t+1}) - w_t| over a chain drawn from stream (seed,)."""
    rng = innovation_stream(seed)
    assert rng.random() == u[0]
    w = rng.random(u.size - 1)
    return float(np.max(np.abs(c.conditional_cdf(u[:-1], u[1:]) - w)))


@pytest.mark.parametrize("c", [two_sine_model(0.05, -0.2)] + STEPS)
def test_newton_converges_within_eight_iterations(monkeypatch, c):
    # on a step family g is piecewise linear, so Newton lands on the root
    # once it reaches the root's piece
    monkeypatch.setattr(sampling, "MAX_ITER", 8)
    chain = generate_chain(c, 3000, 41).values
    assert _worst_residual(c, chain, 41) <= 1e-12
    # rows of a one-lane bank (float path) and of an array-path bank
    assert np.array_equal(generate_chain_bank(c, 3000, [41])[0], chain)
    keys = [(41,)] + [(41, r) for r in range(1, sampling.FLOAT_PATH_LANES)]
    assert np.array_equal(generate_chain_bank(c, 3000, keys)[0], chain)


LANE_CASES = [two_sine_model(0.05, -0.2), shifted_legendre_copula({1: 0.1, 3: 0.05, 5: 0.02}),
              two_value_step(2.0, 1.0)]  # the last a boundary step copula
LANE_IDS = ["two-sine", "legendre-135", "two-value-alpha2-boundary"]


@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("c", LANE_CASES, ids=LANE_IDS)
def test_max_iter_counts_each_lanes_own_evaluations(monkeypatch, c, max_iter):
    # a lane cut short at MAX_ITER evaluations of its column returns its last
    # Newton or midpoint iterate, as the float path does, whatever the other
    # lanes of the array path are doing
    keys = [(43, r) for r in range(sampling.FLOAT_PATH_LANES + 1)]
    full = generate_chain_bank(c, 200, keys)
    monkeypatch.setattr(sampling, "MAX_ITER", max_iter)
    bank = generate_chain_bank(c, 200, keys)
    if max_iter == 1:  # one evaluation per column cuts lanes short in every case
        assert not np.array_equal(bank, full)
    assert _same_floats(bank, [generate_chain_bank(c, 200, [key])[0] for key in keys])


@pytest.mark.parametrize("c", LANE_CASES + [
    [zero_association_model(0.0), zero_association_model(0.05), zero_association_model(0.11)]],
    ids=LANE_IDS + ["per-row-zero-association"])
def test_array_path_makes_the_float_paths_evaluations_and_no_more(monkeypatch, c):
    # every lane moves to its next column as soon as its root is found, so
    # the lanes of all the array path's evaluations add up to the float
    # stepper's evaluations over the same rows
    lanes, n = 100, 300
    sampler = sampling._Sampler([c[i % len(c)] for i in range(lanes)]
                                if isinstance(c, list) else c)
    sampler.starts  # built before the counting begins
    calls, sizes = [], []
    sampler.stepper = _counting_stepper(sampler.table, calls)
    sampler.sums = _logging(sampler.sums, sizes)
    u = np.array([innovation_stream(53, r).random(n) for r in range(lanes)])
    wide = sampler.advance(u.copy())
    assert sizes[0] == lanes and calls == []
    monkeypatch.setattr(sampling, "FLOAT_PATH_LANES", lanes + 1)
    assert _same_floats(sampler.advance(u), wide)
    assert sum(sizes) == len(calls)


def _evaluations(sampler, u):
    # the lanes of every evaluation of the array path over the bank u
    sizes = []
    sampler.sums = _logging(sampler.sums, sizes)
    sampler.advance(u)
    return sum(sizes)


def _alternating(family, ks):
    # the copula of TABLES' (family, ks) with coefficients of alternating
    # sign and sum |lambda_k| sup phi_k^2 = 0.9
    sup = [max(map(abs, extrema(family, k))) for k in ks]
    lams = [(-1.0) ** i * 0.9 / (len(ks) * s * s) for i, s in enumerate(sup)]
    return SpectralCopula(family, SpectralCoefficients(tuple(zip(ks, lams))))


@pytest.mark.parametrize("c, most", [
    (_alternating(family, ks), 1.0) for family, ks in TABLES
    if term_table(family, ks).slopes is not None] + [(two_sine_model(0.05, -0.2), 0.7)],
    ids=["sine-cosine", "cosine", "legendre-1-30", "legendre-135", "two-sine"])
def test_warm_start_saves_evaluations(c, most):
    # a 2,000-lane two-column bank makes fewer evaluations from the start
    # table than from v0 = w on every smooth table, and at least 30% fewer
    # on the two-sine model
    u = np.random.default_rng(47).random((2000, 2))
    cold = sampling._Sampler(c)
    cold.starts = [None]
    assert _evaluations(sampling._Sampler(c), u.copy()) < most * _evaluations(cold, u.copy())


def test_start_table_depends_on_its_copula_alone():
    # a per-row bank's rows share one bound, but each row's start table,
    # built at the bank's first stepping, is its copula's own, bit for bit;
    # a term-free row has none
    models = [zero_association_model(0.05), zero_association_model(0.11),
              zero_association_model(0.0)]
    rows = [models[i % 3] for i in range(2 * sampling.FLOAT_PATH_LANES)]
    sampling._start_table.cache_clear()
    in_bank = sampling._Sampler(rows)
    in_bank.advance(np.array([innovation_stream(61, r).random(50) for r in range(len(rows))]))
    tables = in_bank.starts[:3]
    sampling._start_table.cache_clear()
    alone = [sampling._Sampler(c).starts[0] for c in models]
    assert in_bank.bound != sampling._Sampler(models[0]).bound
    assert alone[2] is None and tables[2] is None
    for j in (0, 1):
        assert tables[j] is not alone[j] and _same_floats(tables[j], alone[j])
        assert len(alone[j]) == (sampling.START_N + 1) ** 2


@pytest.mark.parametrize("c", STEPS + [
    two_value_step(2.0, 1.0), piecewise_sign((0.0, 0.2, 0.5, 1.0), (0.9, -0.8, 0.7)),
    independence(), shifted_legendre_copula({}),
    [zero_association_model(0.0), zero_association_model(0.05), zero_association_model(0.11)],
], ids=["two-value", "two-value-alpha0.4", "sign-flip", "two-value-alpha2-boundary",
        "sign-3-cells", "independence", "legendre-no-terms", "per-row-zero-association"])
@pytest.mark.parametrize("lanes", [5, sampling.FLOAT_PATH_LANES + 1])
def test_step_families_and_term_free_lanes_start_at_w(c, lanes):
    # no start table is read for them: every solve starts at v0 = w, on both
    # paths, and a term-free lane returns its innovation
    keys = [(59, r) for r in range(lanes)]
    rows = [c[i % len(c)] for i in range(lanes)] if isinstance(c, list) else [c] * lanes
    bank = generate_chain_bank(rows if isinstance(c, list) else c, 200, keys)
    for i, (d, key) in enumerate(zip(rows, keys)):
        if d.coeffs.entries and d.terms.slopes is not None:
            continue
        sampler = sampling._Sampler(d)
        draws = innovation_stream(*key).random(200)
        assert sampler.starts == [None]
        want = [draws[0]] + _reference_chain(sampler.table, draws[0], draws[1:].tolist(),
                                             sampler.rows[0], sampler.bound, None)
        assert _same_floats(bank[i], want)
        if not d.coeffs.entries:
            assert _same_floats(bank[i], draws)


@pytest.mark.parametrize("c", [
    cosine_copula({1: 0.5}), fgm(1.0),
    # step copulas whose density is 0 on whole blocks
    two_value_step(1.0, 1.0), two_value_step(1.0, -1.0), two_value_step(2.0, 1.0),
    piecewise_sign((0.0, 0.5, 1.0), (1.0, -1.0)),
])
def test_boundary_copulas_invert_to_tolerance(c):
    # where the density reaches 0, Newton falls back to bisection
    assert c.validate().verdict is Verdict.VALID_BOUNDARY
    chain = generate_chain(c, 3000, 42).values
    assert np.all((chain >= 0.0) & (chain <= 1.0))
    assert _worst_residual(c, chain, 42) <= 1e-12
    for corner in (0.0, 1.0):
        u = np.full(101, corner)
        w = np.linspace(0.0, 1.0, 101)
        v = next_state(c, u, w)
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert np.max(np.abs(c.conditional_cdf(u, v) - w)) <= 1e-12


def test_samplers_refuse_invalid_copula():
    c = cosine_copula({1: 0.9})
    assert c.validate().verdict is Verdict.INVALID
    with pytest.raises(ValueError, match="INVALID"):
        generate_chain(c, 10, 1)
    with pytest.raises(ValueError, match="INVALID"):
        generate_chain_bank(c, 10, [(1,), (2,)])
    with pytest.raises(ValueError, match="INVALID"):
        generate_chain_bank([cosine_copula({1: 0.3}), c], 10, [(1,), (2,)])
    with pytest.raises(ValueError, match="INVALID"):
        next_state(c, 0.3, 0.6)
    # INVALID only through the minimum of P_200 at its outermost critical point
    with pytest.raises(ValueError, match="INVALID"):
        generate_chain_bank(shifted_legendre_copula({200: 0.01}), 10, [(1,), (2,)])


def test_chain_marginal_is_uniform():
    c = two_sine_model(0.15, -0.1)
    chain = generate_chain(c, 20000, 12)
    _, p = ks_uniform(chain.values)
    assert p > 0.01


def test_chain_lag1_dependence_has_expected_sign():
    # positive first sine coefficient induces positive serial correlation
    pos = generate_chain(two_sine_model(0.25, 0.0), 20000, 13)
    assert lag1_autocorrelation(pos.values) > 0.02
    neg = generate_chain(two_sine_model(-0.25, 0.0), 20000, 13)
    assert lag1_autocorrelation(neg.values) < -0.02


def test_one_step_pairs_follow_copula_law():
    # disjoint pairs (u_0,u_1), (u_2,u_3), ... against exact cell masses
    c = two_value_step(1.0, 0.5)
    chain = generate_chain(c, 40000, 21)
    u = chain.values
    x, y = u[0::2], u[1::2]
    edges = np.linspace(0.0, 1.0, 5)
    counts, _, _ = np.histogram2d(x, y, bins=[edges, edges])
    cdf = c.cdf
    probs = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            probs[i, j] = (cdf(edges[i + 1], edges[j + 1])
                           - cdf(edges[i], edges[j + 1])
                           - cdf(edges[i + 1], edges[j])
                           + cdf(edges[i], edges[j]))
    expected = probs * x.size
    stat, df, p = chi2_gof(counts.ravel(), expected.ravel())
    assert p > 0.001


def test_two_step_pairs_follow_fold_law():
    # (u_0, u_2) over disjoint triples follows the fold(2) copula
    c = cosine_copula({1: 0.45})
    chain = generate_chain(c, 45000, 22)
    u = chain.values
    x, y = u[0::3], u[2::3]
    f2 = c.fold(2)
    edges = np.linspace(0.0, 1.0, 5)
    counts, _, _ = np.histogram2d(x, y, bins=[edges, edges])
    probs = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            probs[i, j] = (f2.cdf(edges[i + 1], edges[j + 1])
                           - f2.cdf(edges[i], edges[j + 1])
                           - f2.cdf(edges[i + 1], edges[j])
                           + f2.cdf(edges[i], edges[j]))
    expected = probs * x.size
    stat, df, p = chi2_gof(counts.ravel(), expected.ravel())
    assert p > 0.001


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-0.45, max_value=0.45))
def test_next_state_stays_in_unit_interval(u, w, lam):
    c = cosine_copula({1: lam})
    v = next_state(c, u, w)
    assert 0.0 <= v <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_sample_wl_stays_in_unit_interval(u, q, lam):
    v = sample_wl(lam, u, q)
    assert 0.0 <= v <= 1.0


def test_conditional_cdf_monotone_in_v():
    # the quantity being inverted must be nondecreasing for valid copulas
    c = shifted_legendre_copula({1: 0.3, 2: 0.15})
    v = np.linspace(0.0, 1.0, 200)
    for u in (0.1, 0.37, 0.5, 0.92):
        g = c.conditional_cdf(np.full_like(v, u), v)
        assert np.all(np.diff(g) > -1e-12)
