"""Per-layer measurements of the traced run.

Spans are recorded from the benchmark's own files around calls into
eigencop's public functions; nothing inside the program is instrumented.
The one exception is coverage's call into sampling.generate_chain_bank:
during the coverage pass the name that eigencop.coverage looks up is
replaced by a wrapper that records a span per call and its lane count.

Every traced run reports every metric below, whatever its workload:
micro-benchmarks at fixed sizes, then one traced round of coverage_quick
and one of verdicts (reused when the workload is that one).
"""

from __future__ import annotations

import os
import statistics
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

import timing
import workloads as wl

BASIS = {  # family -> (family object factory, representative index)
    "sine_cosine": (lambda ec: ec.SineCosine(), ("sin", 2)),
    "cosine": (lambda ec: ec.Cosine(), 3),
    "shifted_legendre": (lambda ec: ec.ShiftedLegendre(), 3),
    "two_value_step": (lambda ec: ec.TwoValueStep(2.0), 1),
    "piecewise_sign": (lambda ec: ec.PiecewiseSign((0.0, 0.3, 0.7, 1.0)), 2),
}
SMOOTH_LANES = (20, 100, 1000, 10000)

PER_LAYER = (
    [(f"basis.eval_{f}_us.{fam}", "us", "lower") for f in ("phi", "Phi") for fam in BASIS]
    + [(f"sampling.next_state_us_per_lane.smooth.L{n}", "us", "lower") for n in SMOOTH_LANES]
    + [("sampling.next_state_us_per_lane.step.L1000", "us", "lower")]
    + [(f"sampling.scalar_step_us.{fam}", "us", "lower") for fam in wl.FAMILIES]
    + [("sampling.sample_wl_us", "us", "lower"),
       ("sampling.stream_seed_ms_per_1k_keys", "ms", "lower"),
       ("sampling.bank_s", "s", "lower"),
       ("sampling.bank_calls", "count", "lower"),
       ("sampling.lanes_per_bank_call", "count", "higher"),
       ("copula.validate_ms", "ms", "lower"),
       ("copula.density_grid_ms", "ms", "lower"),
       ("mixing.certify_psi_ms", "ms", "lower"),
       ("mixing.folds_per_certify", "count", "lower"),
       ("association.associate_ms.smooth", "ms", "lower"),
       ("association.associate_ms.step", "ms", "lower"),
       ("estimation.estimate_mu_us", "us", "lower"),
       ("estimation.chi2_statistic_us", "us", "lower")]
    + [(f"coverage.table_s.{t}", "s", "lower") for t in wl.TABLES]
    + [("coverage.stats_s", "s", "lower"),
       ("coverage.threads2_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, work count)."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, n=1):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, t0, perf_counter(), parent, n)
            self._open.pop()

    def _match(self, name):
        return [s for s in self.spans if s is not None and s[0] == name]

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self._match(name))

    def count(self, name) -> int:
        return len(self._match(name))

    def work(self, name) -> int:
        return sum(s[4] for s in self._match(name))

    def mean(self, name) -> float:
        return self.total(name) / max(self.count(name), 1)

    def as_json(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "n": s[4]}
                for s in self.spans if s is not None]


def _per_call(fn, calls: int, reps: int = 5) -> float:
    """Median over reps of the mean seconds per call in a batch of calls."""
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples)


def micro(ec, seed: int) -> dict:
    """Single-layer costs at fixed sizes, inputs drawn from the seed."""
    rng = np.random.default_rng([seed, 7])
    m = {}
    x = rng.random(1000)
    for fam, (make, k) in BASIS.items():
        family = make(ec)
        m[f"basis.eval_phi_us.{fam}"] = 1e6 * _per_call(lambda: ec.eval_phi(family, k, x), 200)
        m[f"basis.eval_Phi_us.{fam}"] = 1e6 * _per_call(lambda: ec.eval_Phi(family, k, x), 200)

    two_sine = ec.two_sine_model(*wl.TWO_SINE)
    step = wl.build_copula(ec, wl.SCALAR_SPECS["two_value_step"])
    for name, c, lanes, calls in ([("smooth", two_sine, n, max(1, 20000 // n)) for n in SMOOTH_LANES]
                                  + [("step", step, 1000, 20)]):
        u, w = rng.random(lanes), rng.random(lanes)
        m[f"sampling.next_state_us_per_lane.{name}.L{lanes}"] = (
            1e6 * _per_call(lambda: ec.next_state(c, u, w), calls) / lanes)

    for fam, spec in wl.SCALAR_SPECS.items():
        c = wl.build_copula(ec, spec)
        m[f"sampling.scalar_step_us.{fam}"] = (
            1e6 * _per_call(lambda: ec.generate_chain(c, 1001, seed), 1, 3) / 1000)
    q = rng.random(500)
    m["sampling.sample_wl_us"] = 1e6 * _per_call(
        lambda: [ec.sample_wl(wl.WL_LAMBDA, 0.3, qt) for qt in q], 1) / q.size
    m["sampling.stream_seed_ms_per_1k_keys"] = 1e3 * _per_call(
        lambda: [ec.innovation_stream(seed, 0, 0, r) for r in range(1000)], 1)

    chain = ec.generate_chain(two_sine, 1000, seed).values
    est = ec.estimate_mu(chain)
    m["estimation.estimate_mu_us"] = 1e6 * _per_call(lambda: ec.estimate_mu(chain), 100)
    m["estimation.chi2_statistic_us"] = 1e6 * _per_call(
        lambda: ec.chi2_statistic(est, wl.TWO_SINE), 1000)
    return m


@contextmanager
def traced_bank_calls(tracer):
    """Record a span around each generate_chain_bank call made by coverage."""
    mod = sys.modules["eigencop.coverage"]
    orig = getattr(mod, "generate_chain_bank", None)
    if orig is None:  # coverage no longer calls it by this name
        yield
        return

    def wrapped(c, n, seed_keys):
        keys = list(seed_keys)
        with tracer.span("sampling.generate_chain_bank", len(keys)):
            return orig(c, n, keys)

    mod.generate_chain_bank = wrapped
    try:
        yield
    finally:
        mod.generate_chain_bank = orig


def coverage_metrics(tracer, rounds: int) -> dict:
    m = {f"coverage.table_s.{t}": tracer.mean("coverage.table." + t) for t in wl.TABLES}
    bank = "sampling.generate_chain_bank"
    calls = tracer.count(bank)
    m["sampling.bank_s"] = tracer.total(bank) / rounds
    m["sampling.bank_calls"] = calls / rounds
    m["sampling.lanes_per_bank_call"] = tracer.work(bank) / max(calls, 1)
    tables = sum(tracer.total("coverage.table." + t) for t in wl.TABLES)
    m["coverage.stats_s"] = (tables - tracer.total(bank)) / rounds
    return m


def threads2(workload, reference) -> tuple[float, list]:
    """Seconds for the same tables with EIGENCOP_WORKERS=2, and problems if
    any table differs in a byte from the 1-worker one."""
    os.environ["EIGENCOP_WORKERS"] = "2"
    try:
        t0 = perf_counter()
        tables = workload.run(workload.prepare(0), timing.Clock(no_span))
        elapsed = perf_counter() - t0
    finally:
        del os.environ["EIGENCOP_WORKERS"]
    problems = [f"{name}: 2-worker table differs from the 1-worker table"
                for name, t in tables.items() if t.to_csv() != reference[name].to_csv()]
    return elapsed, problems


def verdict_metrics(tracer, items, outputs) -> dict:
    m = {"copula.validate_ms": 1e3 * tracer.mean("copula.validate"),
         "mixing.certify_psi_ms": 1e3 * tracer.mean("mixing.certify_psi"),
         "association.associate_ms.smooth": 1e3 * tracer.mean("association.associate.smooth"),
         "association.associate_ms.step": 1e3 * tracer.mean("association.associate.step"),
         "mixing.folds_per_certify": statistics.mean(
             len(mix.fold_density_ranges) for _, mix, _ in outputs)}
    t0 = perf_counter()
    for item in items:
        item[-1].density_grid()
    m["copula.density_grid_ms"] = 1e3 * (perf_counter() - t0) / len(items)
    return m


_NULL = nullcontext()


def no_span(name, n=1):
    """The span of an untraced run: records nothing."""
    return _NULL
