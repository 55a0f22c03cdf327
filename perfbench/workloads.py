"""The four benchmark workloads.

Each workload is a class with the same five steps:

    __init__(ec, seed)       build the copulas and configs (timed as setup_s)
    prepare(i)               inputs of round i, outside the timed part
    run(inp, clock)          one round of operations, the timed part
    check(inp, out)          (operations, failed, problems) after the timed part
    check_once()             problems from checks made once per run

A round is split into slots, parts of the same cost in every round (a
table, a chain, the i-th copula of the set), each timed by
`clock.slot(name)` (see timing.py).  `clock.span(name, n)` records a trace
span in a traced run and does nothing otherwise.  `work` is the work of one
round in the unit of the workload's throughput, and `min_rounds` the fewest
rounds an untraced run makes.

`failed` lists operations that fail because of a known fault of the
program; `problems` lists wrong outputs, which make the run incorrect.
Only public names of eigencop are used.
"""

from __future__ import annotations

import math
import random

import numpy as np

import oracles

MAX_N = 20  # certify_psi's default fold count; the checks read report.max_n
TWO_SINE = (0.05, -0.2)
RESIDUAL_TOL = 1e-9


def build_copula(ec, spec):
    """eigencop copula for a spec (see oracles), with exactly its coefficients."""
    family, params, terms = spec
    fam = {"sine_cosine": ec.SineCosine, "cosine": ec.Cosine,
           "shifted_legendre": ec.ShiftedLegendre}.get(family)
    if fam is not None:
        fam = fam()
    elif family == "two_value_step":
        fam = ec.TwoValueStep(params["alpha"])
    else:
        fam = ec.PiecewiseSign(params["breakpoints"])
    return ec.SpectralCopula(fam, ec.SpectralCoefficients(tuple(terms)))


def two_sine_spec(mu1, mu2):
    return ("sine_cosine", {}, [(("sin", 1), mu1), (("sin", 2), mu2)])


def _residual_problems(label, spec, values, key, ec):
    """Every transition must solve d1C(u_t, u_{t+1}) = w_t, with w_t drawn
    from innovation_stream(*key) in the documented order: u_1 first, then
    the n-1 innovations."""
    rng = ec.innovation_stream(*key)
    u0 = rng.random()
    w = rng.random(values.size - 1)
    if values[0] != u0:
        return [f"{label}: first state {values[0]!r} is not the stream's first draw {u0!r}"]
    worst = float(np.max(np.abs(oracles.d1C(spec, values[:-1], values[1:]) - w)))
    if worst > RESIDUAL_TOL:
        return [f"{label}: inversion residual {worst:.3e} > {RESIDUAL_TOL:g}"]
    return []


def _bank_matches_chain(ec, label, copula, seed, n=200):
    """A 1-lane bank must be bit-identical to the scalar chain."""
    chain = ec.generate_chain(copula, n, seed).values
    bank = ec.generate_chain_bank(copula, n, [seed])[0]
    if not np.array_equal(chain, bank):
        gap = float(np.max(np.abs(chain - bank)))
        return [f"{label}: 1-lane bank differs from generate_chain by {gap:.3e}"]
    return []


# -- coverage_quick ---------------------------------------------------------

THRESHOLDS = [round(0.1 * k, 1) for k in range(1, 10)]
RATES = [0.5, 1.0, 5.0, 10.0, 20.0, 30.0]
SIZES = [100, 500, 1000]
WEIGHTS = [0.25, 0.5, 0.9, 1.0]
MU1_GRID = [0.05, 0.1, 0.11]
BAND_TAIL = 1e-7  # per side, for each model-variance covered count


def quick_studies(seed: int):
    """The six coverage studies (eight tables) at their quick sizes, as in
    scripts/run_coverage_tables.py --quick; this copy is the benchmark's own."""
    common = {"schema": "eigencop-experiment/1", "n": 1000, "master_seed": seed,
              "copula": {"zero_association": 0.05}}
    out = []
    for mode, name in (("iid", "table1"), ("model", "table2")):
        out.append((name + "_r100", {**common, "experiment": "coverage_bernoulli",
                                     "thresholds": THRESHOLDS, "replicates": 20,
                                     "repeats": 1, "variance_mode": mode}))
        out.append((name + "_r1000", {**common, "experiment": "coverage_bernoulli",
                                      "thresholds": THRESHOLDS, "replicates": 100,
                                      "variance_mode": mode}))
    out.append(("table3", {**common, "experiment": "coverage_exponential",
                           "rates": RATES, "replicates": 20, "repeats": 1,
                           "variance_mode": "model"}))
    for mode, name in (("model", "table4"), ("iid", "table5")):
        out.append((name, {**common, "experiment": "coverage_mean",
                           "sample_sizes": SIZES, "replicates": 20, "repeats": 1,
                           "variance_mode": mode}))
    out.append(("table6", {"schema": "eigencop-experiment/1", "n": 1000,
                           "master_seed": seed, "experiment": "coverage_mu_w",
                           "weights": WEIGHTS, "mu1_values": MU1_GRID,
                           "replicates": 20, "repeats": 1, "variance_mode": "model"}))
    return out


TABLES = [name for name, _ in quick_studies(0)]
ROWS = {"table1_r100": 9, "table1_r1000": 9, "table2_r100": 9, "table2_r1000": 9,
        "table3": 6, "table4": 3, "table5": 3, "table6": 12}


class CoverageQuick:
    """Operation: one coverage row.  run_coverage runs at the library's
    default worker count; EIGENCOP_WORKERS is removed by run.py."""

    work = sum(ROWS.values())  # coverage rows per round
    min_rounds = 2  # a table is one slot of 1-10 s: two rounds average its two probes

    def __init__(self, ec, seed):
        self.ec = ec
        self.configs = [(name, ec.load_experiment(raw)) for name, raw in quick_studies(seed)]

    def prepare(self, i):
        return self.configs

    def run(self, configs, clock):
        tables = {}
        for name, cfg in configs:
            with clock.slot(name), clock.span("coverage.table." + name):
                tables[name] = self.ec.run_coverage(cfg)
        return tables

    def check(self, configs, tables):
        problems = []
        for name, cfg in configs:
            rows = tables[name].rows
            if len(rows) != ROWS[name]:
                problems.append(f"{name}: {len(rows)} rows, expected {ROWS[name]}")
            for r in rows:
                if r.error:
                    problems.append(f"{name} {r.params}: error row {r.error}")
                elif cfg.variance_mode == "model":
                    lo, hi = oracles.binomial_band(r.replicates, cfg.level, BAND_TAIL)
                    if not lo <= r.covered_count <= hi:
                        problems.append(f"{name} {r.params}: covered {r.covered_count}"
                                        f"/{r.replicates} outside [{lo}, {hi}]")
        return sum(len(t.rows) for t in tables.values()), [], problems

    def check_once(self):
        return []


# -- wide_bank --------------------------------------------------------------

BANK_ROWS = 5000
BANK_N = 1000
CLT_DIAG_TOL = 0.1
CLT_OFFDIAG_TOL = 0.05
CHI2_Q95 = -2.0 * math.log(0.05)
CHI2_Q95_TOL = 0.4


class WideBank:
    """Operation: one bank row.  One 5000 x 1000 bank of the two-sine
    (0.05, -0.2) model, then estimate_mu and chi2_statistic on every row."""

    work = BANK_ROWS * (BANK_N - 1)  # transitions per round
    min_rounds = 1

    def __init__(self, ec, seed):
        self.ec = ec
        self.seed = seed
        self.spec = two_sine_spec(*TWO_SINE)
        self.copula = ec.two_sine_model(*TWO_SINE)

    def prepare(self, i):
        return [(self.seed, i, 0, r) for r in range(BANK_ROWS)]

    def run(self, keys, clock):
        ec = self.ec
        with clock.slot("bank"):
            with clock.span("sampling.generate_chain_bank", len(keys)):
                bank = ec.generate_chain_bank(self.copula, BANK_N, keys)
            with clock.span("estimation.estimate_mu", len(bank)):
                ests = [ec.estimate_mu(row) for row in bank]
            with clock.span("estimation.chi2_statistic", len(ests)):
                stats = [ec.chi2_statistic(e, TWO_SINE) for e in ests]
        return bank, ests, stats

    def check(self, keys, out):
        bank, ests, stats = out
        problems = []
        for r, key in enumerate(keys):
            problems += _residual_problems(f"bank row {r}", self.spec, bank[r], key, self.ec)
            if len(problems) > 5:
                break
        mu1, mu2 = TWO_SINE
        z = math.sqrt(BANK_N - 1) * np.column_stack(
            [[e.mu1 - mu1 for e in ests], [e.mu2 - mu2 for e in ests]])
        cov = np.cov(z, rowvar=False)
        if not (abs(cov[0, 0] - 1.0) <= CLT_DIAG_TOL and abs(cov[1, 1] - 1.0) <= CLT_DIAG_TOL
                and abs(cov[0, 1] + mu1 * mu2) <= CLT_OFFDIAG_TOL):
            problems.append(f"CLT covariance {cov.tolist()} off the limit [[1, {-mu1 * mu2}], ...]")
        q95 = float(np.percentile(stats, 95.0))
        if abs(q95 - CHI2_Q95) > CHI2_Q95_TOL:
            problems.append(f"chi-square 95th percentile {q95:.3f}, limit {CHI2_Q95:.3f}")
        return len(keys), [], problems

    def check_once(self):
        return _bank_matches_chain(self.ec, "two-sine", self.copula, self.seed)


# -- scalar_chains ----------------------------------------------------------

SCALAR_N = 5000
WL_LAMBDA = 0.5
WL_TOL = 1e-12

SCALAR_SPECS = {
    "sine_cosine": two_sine_spec(*TWO_SINE),
    "cosine": ("cosine", {}, [(1, 0.3), (2, -0.15)]),
    "shifted_legendre": ("shifted_legendre", {}, [(1, 0.2), (2, 0.05)]),
    "two_value_step": ("two_value_step", {"alpha": 1.0}, [(1, WL_LAMBDA)]),
    "piecewise_sign": ("piecewise_sign", {"breakpoints": (0.0, 0.4, 1.0)},
                       [(1, 0.6 * 0.4), (2, -0.5 * 0.6)]),
}
FAMILIES = list(SCALAR_SPECS)


class ScalarChains:
    """Operation: one chain.  One chain per family through generate_chain,
    and the two-value-step chain again through sample_wl; every round
    samples the same chains."""

    work = (len(FAMILIES) + 1) * (SCALAR_N - 1)  # transitions per round
    min_rounds = 1

    def __init__(self, ec, seed):
        self.ec = ec
        self.seed = seed
        self.copulas = {f: build_copula(ec, s) for f, s in SCALAR_SPECS.items()}
        # the same chains every round, so that rounds cost the same
        state = np.random.SeedSequence(seed).generate_state(len(FAMILIES))
        self.chain_seeds = {f: int(s) for f, s in zip(FAMILIES, state)}

    def prepare(self, i):
        return self.chain_seeds

    def run(self, seeds, clock):
        ec = self.ec
        chains = {}
        for f in FAMILIES:
            with clock.slot(f), clock.span("sampling.generate_chain." + f, SCALAR_N - 1):
                chains[f] = ec.generate_chain(self.copulas[f], SCALAR_N, seeds[f]).values
        with clock.slot("sample_wl"), clock.span("sampling.sample_wl", SCALAR_N - 1):
            rng = ec.innovation_stream(seeds["two_value_step"])
            u = rng.random()
            q = rng.random(SCALAR_N - 1)
            wl = [u]
            for qt in q:
                u = ec.sample_wl(WL_LAMBDA, u, qt)
                wl.append(u)
        return chains, np.array(wl)

    def check(self, seeds, out):
        chains, wl = out
        problems = []
        for f in FAMILIES:
            problems += _residual_problems(f"{f} chain", SCALAR_SPECS[f], chains[f],
                                           (seeds[f],), self.ec)
        gap = float(np.max(np.abs(wl - chains["two_value_step"])))
        if gap > WL_TOL:
            problems.append(f"sample_wl differs from generate_chain by {gap:.3e}")
        return len(chains) + 1, [], problems

    def check_once(self):
        return [p for f in FAMILIES for p in
                _bank_matches_chain(self.ec, f, self.copulas[f], self.seed + 1)]


# -- verdicts ---------------------------------------------------------------

MULTI_PER_FAMILY = 8
SINGLE_KINDS = ("valid", "invalid", "near1", "valid", "invalid", "near1", "either", "either")
# Round i scales every coefficient by 1 - i * ROUND_SCALE: each round's
# copulas are new to validate's memo, at the same cost as round 0's.
ROUND_SCALE = 1e-12
# How close to a certificate threshold a single-term copula's exact fold
# range may come.  Nearer, a midpoint-grid observation and the exact range
# can disagree for some seeds and not others; the grid of the Legendre
# family misses its endpoint extrema by up to 2.3% at index 3.
THRESHOLD_DELTA = {"shifted_legendre": 0.05}
DEFAULT_DELTA = 0.01
STEP_FAMILIES = ("two_value_step", "piecewise_sign")
ASSOC_TOL = {"smooth": 1e-8, "step": 1e-6}


def _partition(rng):
    while True:
        cuts = sorted(rng.uniform(0.15, 0.85) for _ in range(2))
        bp = (0.0, cuts[0], cuts[1], 1.0)
        if min(b - a for a, b in zip(bp, bp[1:])) >= 0.1:
            return bp


def _multi_spec(rng, family):
    """Random multi-term copula that is valid by the analytic condition:
    its density margin is at least 0.1."""
    if family == "two_value_step":  # the family has a single function
        params = {"alpha": rng.uniform(0.4, 2.5)}
        keys = [1]
    elif family == "piecewise_sign":
        bp = _partition(rng)
        theta = [rng.uniform(-0.9, 0.9) for _ in range(3)]
        return (family, {"breakpoints": bp},
                [(k, theta[k - 1] * (bp[k] - bp[k - 1])) for k in (1, 2, 3)])
    else:
        params = {}
        keys = {"sine_cosine": [("sin", 1), ("sin", 2), ("cos", 1), ("cos", 3)],
                "cosine": [1, 2, 4], "shifted_legendre": [1, 2, 3]}[family]
    g = [rng.uniform(-1.0, 1.0) for _ in keys]
    bound = sum(abs(x) * max(e * e for e in oracles.extrema(family, params, k))
                for x, k in zip(g, keys))
    scale = rng.uniform(0.3, 0.9) / bound
    return family, params, [(k, scale * x) for k, x in zip(keys, g)]


def _single_spec(rng, family, kind):
    """Random single-term copula whose exact density range is known:
    kind 'valid' or 'invalid' by that range, or 'near1' with |lambda| close
    to 1, where the fold search runs long."""
    delta = THRESHOLD_DELTA.get(family, DEFAULT_DELTA)
    for _ in range(10000):
        if family == "sine_cosine":
            params, k = {}, (rng.choice(("sin", "cos")), rng.randint(1, 3))
        elif family == "cosine":
            params, k = {}, rng.randint(1, 6)
        elif family == "shifted_legendre":
            params, k = {}, rng.randint(1, 3)
        elif family == "two_value_step":
            params, k = {"alpha": rng.uniform(0.4, 2.5)}, 1
        else:
            bp = _partition(rng)
            params, k = {"breakpoints": bp}, rng.randint(1, 3)
        lo, hi = oracles.extrema(family, params, k)
        sign = rng.choice((1.0, -1.0))
        limit = 1.0 / (abs(lo * hi) if sign > 0 else max(lo * lo, hi * hi))
        if kind == "valid":
            lam = sign * rng.uniform(0.05, 0.95) * limit
        elif kind == "invalid":
            lam = sign * rng.uniform(1.05, 3.0) * limit
        else:
            lam = sign * rng.uniform(0.975, 0.995)
        spec = (family, params, [(k, lam)])
        if not oracles.near_threshold(spec, MAX_N, delta):
            return spec
    raise RuntimeError(f"no {kind} {family} copula clear of the thresholds")


KNOWN_FAULTS = [
    # validate() says VALID, but density(0, 1/1024) = -0.8: the 512-point
    # midpoint grid aliases phi_1024 to a constant.
    ("cosine {1024: 0.9}", ("cosine", {}, [(1024, 0.9)])),
    # certify_psi() certifies sup < 2 at n = 1, but c(0, 0) = 2 exactly; the
    # first fold that certifies is n = 2.
    ("fgm(1.0)", ("shifted_legendre", {}, [(1, 1.0 / 3.0)])),
]


def verdict_specs(seed: int):
    """The verdict set: (label, spec, single_term, known_fault)."""
    rng = random.Random(f"verdicts/{seed}")
    out = []
    for family in FAMILIES:
        for j in range(MULTI_PER_FAMILY):
            out.append((f"{family} multi {j}", _multi_spec(rng, family), False, False))
        for j, kind in enumerate(SINGLE_KINDS):
            if kind == "either":
                kind = rng.choice(("valid", "invalid"))
            out.append((f"{family} {kind} {j}", _single_spec(rng, family, kind), True, False))
    out += [(label, spec, True, True) for label, spec in KNOWN_FAULTS]
    return out


def scaled(spec, factor: float):
    family, params, terms = spec
    return family, params, [(k, lam * factor) for k, lam in terms]


def check_verdict(spec, single, report, mixing, assoc):
    """Problems with one copula's validate, certify_psi and associate results."""
    family = spec[0]
    problems = []
    tol = ASSOC_TOL["step" if family in STEP_FAMILIES else "smooth"]
    if not (assoc.rho_gap <= tol and assoc.tau_gap <= tol):
        problems.append(f"association routes differ: rho {assoc.rho_gap:.2e}, tau {assoc.tau_gap:.2e}")
    if family == "piecewise_sign":
        rho, tau = oracles.piecewise_association(spec)
        if abs(assoc.rho_closed - rho) > tol or abs(assoc.tau_closed - tau) > tol:
            problems.append(f"piecewise association ({assoc.rho_closed}, {assoc.tau_closed})"
                            f" != closed form ({rho}, {tau})")
    verdict = report.verdict.value
    cert = (mixing.certificate.value, mixing.certified_n)
    if single:
        if verdict != oracles.expected_verdict(spec):
            problems.append(f"validate says {verdict}, exact range says "
                            f"{oracles.expected_verdict(spec)}")
        want = oracles.expected_certificate(spec, mixing.max_n)
        if cert != want:
            problems.append(f"certify_psi says {cert}, exact fold ranges say {want}")
        return problems
    # multi-term: the analytic margin proves validity; the envelope bounds
    # every fold and certifies sup < 2 once it falls below 1
    if verdict != "valid":
        problems.append(f"validate says {verdict}, analytic margin "
                        f"{oracles.analytic_margin(spec):.3f} proves valid")
    env1 = oracles.envelope(spec, 1)
    if report.grid_min_density < 1.0 - env1 - 1e-9 or report.grid_max_density > 1.0 + env1 + 1e-9:
        problems.append("validate's grid range leaves the analytic envelope")
    if cert[0] not in ("certified_less_than_two", "certified_bounded_density"):
        problems.append(f"certify_psi says {cert[0]} for a copula with margin > 0")
    for n, lo_d, hi_d in mixing.fold_density_ranges:
        env = oracles.envelope(spec, n)
        if lo_d < 1.0 - env - 1e-9 or hi_d > 1.0 + env + 1e-9:
            problems.append(f"fold {n} range ({lo_d}, {hi_d}) leaves the envelope 1 +/- {env}")
    n_env = next((n for n in range(1, mixing.max_n + 1)
                  if oracles.envelope(spec, n) < 1.0 - 1e-8), None)
    if n_env is not None and not (cert[0] == "certified_less_than_two" and cert[1] <= n_env):
        problems.append(f"certify_psi says {cert}; the envelope certifies sup < 2 at n={n_env}")
    return problems


class Verdicts:
    """Operation: one copula through validate, certify_psi and associate.
    Every round rescales the set's coefficients (see ROUND_SCALE), so
    validate's memo never hits, except on the two fixed known-fault
    copulas."""

    min_rounds = 1

    def __init__(self, ec, seed):
        self.ec = ec
        self.seed = seed
        self.specs = verdict_specs(seed)
        self.first = self._build(0)
        self.work = len(self.first)  # copulas per round

    def _build(self, i):
        out = []
        for label, spec, single, fault in self.specs:
            if not fault:
                spec = scaled(spec, 1.0 - i * ROUND_SCALE)
            out.append((label, spec, single, fault, build_copula(self.ec, spec)))
        return out

    def prepare(self, i):
        return self.first if i == 0 else self._build(i)

    def run(self, items, clock):
        ec = self.ec
        out = []
        for slot, (_, spec, _, _, c) in enumerate(items):
            kind = "step" if spec[0] in STEP_FAMILIES else "smooth"
            with clock.slot(slot):
                with clock.span("copula.validate"):
                    report = c.validate()
                with clock.span("mixing.certify_psi"):
                    mixing = ec.certify_psi(c)
                with clock.span("association.associate." + kind):
                    assoc = ec.associate(c)
            out.append((report, mixing, assoc))
        return out

    def check(self, items, out):
        failed, problems = [], []
        for (label, spec, single, fault, _), res in zip(items, out):
            found = check_verdict(spec, single, *res)
            if found and fault:
                failed.append(f"{label}: " + "; ".join(found))
            else:
                problems += [f"{label}: {p}" for p in found]
        return len(items), failed, problems

    def check_once(self):
        return []


WORKLOADS = {"coverage_quick": CoverageQuick, "wide_bank": WideBank,
             "scalar_chains": ScalarChains, "verdicts": Verdicts}
