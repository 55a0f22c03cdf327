"""Coverage-probability studies for functionals of copula-driven chains.

A study is an experiment record ({"schema": "eigencop-experiment/1",
"experiment": kind, ...}) giving n, replicates (or R), master_seed and
optionally level, variance_mode and repeats; `_STUDIES` declares each
kind's parameter lists and whether it takes a "copula" record.

For each parameter cell the harness simulates `replicates` independent
stationary chains, builds a Wald interval for the cell's target from each
chain, and reports the fraction of intervals containing the truth.  Two
variance modes are offered: "model" plugs in the long-run variance of the
chain functional under the cell's copula (`estimation.long_run_variance`,
closed form for every family), "iid" uses the variance one would use
for independent data (Bernoulli p(1-p), exponential mean^2, uniform 1/12).
The gap between the two is the point of the study: intervals built as if
the data were independent undercover once the chain is dependent.

For the weighted-coefficient study there is no independence variant, so
"model" selects the variance expression the interval construction was
published with and "iid" the delta-method variance from the joint CLT of
the two pair averages.

Replicate r of cell c in repeat j draws its innovations from the stream
keyed (master_seed, j, c, r), so results are reproducible; rows that share
chains (thresholds, sample sizes, weights) share a cell.  One bank steps
every repeat and cell of a study, each lane with its cell's copula, and a
row depends only on its keys and copula.  A ValueError or ArithmeticError
while drawing the bank becomes error rows for every row of the study, and
one while computing a row an error row for that row; any other exception
propagates.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import (ConfigError, _build, _integer, _real, copula_to_config,
                     load_record, parse_copula_config)
from .copula import Record, SpectralCopula, Verdict, zero_association_model
from .estimation import long_run_variance, sine_pair_means, weighted_mu
from .sampling import Bernoulli, Exponential, Uniform, generate_chain_bank
from .statutil import normal_quantile

_NUMERICAL = (ValueError, ArithmeticError)

EXPERIMENT_SCHEMA = "eigencop-experiment/1"


@dataclass(frozen=True)
class ExperimentConfig:
    """One coverage study: a chain model, an experiment kind with its
    parameter lists, and the Monte Carlo shape."""

    kind: str
    copula: SpectralCopula | None
    n: int
    replicates: int
    level: float
    master_seed: int
    variance_mode: str
    repeats: int
    lists: tuple  # ((key, values), ...) in the order of the kind's table entry

    def as_dict(self) -> dict:
        out = {"schema": EXPERIMENT_SCHEMA, "experiment": self.kind,
               **{key: getattr(self, key) for key, _, _ in _FIELDS}}
        if self.copula is not None:
            out["copula"] = copula_to_config(self.copula)
        out.update((key, list(values)) for key, values in self.lists)
        return out


def _entry(convert, ok, message: str):
    # parser for one field or list entry: convert it, then require ok(value, n)
    def parse(obj, field_name: str, n: int):
        x = convert(obj, field_name)
        if not ok(x, n):
            raise ConfigError(field_name, message)
        return x
    return parse


def _mu1(obj, field_name: str, n: int) -> float:
    mu1 = _real(obj, field_name)
    _build(field_name, zero_association_model, mu1)
    return mu1


# the record's scalar fields in `as_dict` order, each (key, parser, the
# value a missing one defaults to); "R" may stand for "replicates"
_FIELDS = (
    ("n", _entry(_integer, lambda n, _: n >= 2, "chain length must be at least 2"), 0),
    ("replicates",
     _entry(_integer, lambda r, _: r >= 1, "replicate count must be at least 1"), 0),
    ("level", _entry(_real, lambda x, _: 0.0 < x < 1.0, "level must be in (0,1)"), 0.95),
    ("master_seed", _entry(_integer, lambda s, _: s >= 0, "must be nonnegative"), 0),
    ("variance_mode", _entry(lambda obj, _: obj, lambda m, _: m in ("model", "iid"),
                             "expected 'model' or 'iid'"), "model"),
    ("repeats", _entry(_integer, lambda r, _: r >= 1, "must be at least 1"), 1),
)


def parse_experiment_config(obj) -> ExperimentConfig:
    """Build a study from its experiment record (see the module docstring)."""
    if not isinstance(obj, dict):
        raise ConfigError("experiment", "expected an object")
    if obj.get("schema") != EXPERIMENT_SCHEMA:
        raise ConfigError("schema", f"expected {EXPERIMENT_SCHEMA!r}")
    kind = obj.get("experiment")
    if not isinstance(kind, str) or kind not in _STUDIES:
        raise ConfigError("experiment",
                          f"unknown kind {kind!r}; expected one of {list(_STUDIES)}")
    extra = set(obj) - _KEYS
    if extra:
        raise ConfigError(sorted(extra)[0], "unexpected key")

    if "replicates" in obj and "R" in obj:
        raise ConfigError("R", "give either 'replicates' or 'R', not both")
    fields = {}
    for key, parse, default in _FIELDS:
        name = "R" if key == "replicates" and "R" in obj else key
        fields[key] = parse(obj.get(name, default), name, None)
    n = fields["n"]

    study = _STUDIES[kind]
    copula = None
    if study.copula_from is None:
        if "copula" not in obj:
            raise ConfigError("copula", "missing")
        copula = parse_copula_config(obj["copula"])
        if copula.validate().verdict is Verdict.INVALID:
            raise ConfigError("copula", "validate() finds this copula INVALID, "
                              "so its chains cannot be sampled")
    lists = []
    for key, entry, default in study.lists:
        vals = obj.get(key) if key in obj or default is None else default(n)
        if not isinstance(vals, list) or not vals:
            raise ConfigError(key, f"kind {kind!r} requires a nonempty list")
        lists.append((key, tuple(entry(v, f"{key}[{i}]", n) for i, v in enumerate(vals))))
    if copula is None and "copula" in obj:
        raise ConfigError("copula", f"{kind} derives its copulas from {study.copula_from}")
    return ExperimentConfig(kind, copula, lists=tuple(lists), **fields)


def load_experiment(source) -> ExperimentConfig:
    """Accept a dict, a JSON string, or a path to a JSON file."""
    return load_record(source, parse_experiment_config, "experiment")


@dataclass(frozen=True)
class CoverageRow(Record):
    repeat: int
    params: dict
    coverage: float | None
    covered_count: int | None
    replicates: int
    mean_estimate: float | None
    mean_halfwidth: float | None
    error: str | None = None


@dataclass(frozen=True)
class CoverageTable:
    rows: tuple
    config: ExperimentConfig

    def to_json(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "rows": [r.as_dict() for r in self.rows],
        }

    def to_csv(self) -> str:
        cols = _STUDIES[self.config.kind].columns
        buf = io.StringIO()
        wr = csv.writer(buf)  # RFC-4180: minimal quoting, CRLF rows
        wr.writerow(["repeat", *cols, "coverage", "covered", "replicates",
                     "mean_estimate", "mean_halfwidth", "error"])
        for row in self.rows:
            blank = lambda x: "" if x is None else x
            wr.writerow([row.repeat, *(row.params[c] for c in cols),
                         blank(row.coverage), blank(row.covered_count),
                         row.replicates, blank(row.mean_estimate),
                         blank(row.mean_halfwidth), row.error or ""])
        return buf.getvalue()


def _summarize(repeat: int, params: dict, covered, est, half, n_rep: int) -> CoverageRow:
    count = int(np.count_nonzero(covered))
    return CoverageRow(repeat, params, 100.0 * count / n_rep, count, n_rep,
                       float(np.mean(est)), float(np.mean(half)))


def _cover(est, sigma2, n_eff: int, z: float, target: float):
    half = z * np.sqrt(np.maximum(np.asarray(sigma2, dtype=float), 0.0) / n_eff)
    covered = np.abs(est - target) <= half
    return covered, half


def _error_row(repeat: int, params: dict, n_rep: int, exc: Exception) -> CoverageRow:
    msg = f"{type(exc).__name__}: {exc}"
    return CoverageRow(repeat, params, None, None, n_rep, None, None, msg)


def _bernoulli(cfg: ExperimentConfig, bank, p: dict):
    a = p["a"]
    est = np.mean(bank <= a, axis=1)
    if cfg.variance_mode == "model":
        return est, long_run_variance(cfg.copula, Bernoulli(a)), cfg.n, a
    return est, est * (1.0 - est), cfg.n, a


def _exponential(cfg: ExperimentConfig, bank, p: dict):
    rate = p["rate"]
    est = np.mean(-rate * np.log1p(-bank), axis=1)
    if cfg.variance_mode == "model":
        return est, long_run_variance(cfg.copula, Exponential(rate)), cfg.n, rate
    return est, est * est, cfg.n, rate


def _mean(cfg: ExperimentConfig, bank, p: dict):
    m = p["sample_size"]
    est = np.mean(bank[:, :m], axis=1)
    if cfg.variance_mode == "model":
        return est, long_run_variance(cfg.copula, Uniform()), m, 0.5
    return est, 1.0 / 12.0, m, 0.5


def _mu_w(cfg: ExperimentConfig, pair_means, p: dict):
    n_pairs = cfg.n - 1
    wm = weighted_mu(*pair_means.T, p["w"], n_pairs)
    s2 = wm.variance if cfg.variance_mode == "model" else wm.variance_delta
    return wm.estimate, s2, n_pairs, p["mu1"]


@dataclass(frozen=True)
class _Study:
    # the kind's parameter lists, each (key, parser of one entry, the list
    # a missing one defaults to as a function of n, or None if required)
    lists: tuple
    columns: tuple  # the CSV parameter columns
    # (config, *list values) -> the cells of one repeat, each as
    # (copula, row parameters)
    cells: Callable
    reduce: Callable | None  # row-wise reduction of the bank
    # (config, block of the row's cell, row parameters) ->
    # (estimate, variance, n_eff, target)
    statistic: Callable
    copula_from: str | None = None  # the list the cells build copulas from


_STUDIES = {
    "coverage_bernoulli": _Study(
        (("thresholds",
          _entry(_real, lambda x, n: 0.0 < x < 1.0, "must be in (0.0,1.0)"), None),),
        ("a",),
        lambda cfg, thresholds: [(cfg.copula, [{"a": a} for a in thresholds])],
        None, _bernoulli),
    "coverage_exponential": _Study(
        (("rates", _entry(_real, lambda x, n: x > 0.0, "must be positive"), None),),
        ("rate",),
        lambda cfg, rates: [(cfg.copula, [{"rate": rate}]) for rate in rates],
        None, _exponential),
    "coverage_mean": _Study(
        (("sample_sizes",
          _entry(_integer, lambda m, n: 2 <= m <= n, "must be between 2 and n"),
          lambda n: [n]),),
        ("sample_size",),
        lambda cfg, sizes: [(cfg.copula, [{"sample_size": m} for m in sizes])],
        None, _mean),
    "coverage_mu_w": _Study(
        (("weights",
          _entry(_real, lambda w, n: 0.0 <= w <= 1.0, "must be in [0,1]"), None),
         ("mu1_values", _mu1, None)),
        ("mu1", "w"),
        lambda cfg, weights, mu1_values: [
            (zero_association_model(mu1), [{"mu1": mu1, "w": w} for w in weights])
            for mu1 in mu1_values],
        lambda bank: np.column_stack(sine_pair_means(bank)), _mu_w,
        copula_from="mu1_values"),
}

# every key an experiment record may carry; a kind ignores the lists of
# the others
_KEYS = ({"schema", "experiment", "copula", "R"} | {key for key, _, _ in _FIELDS}
         | {key for study in _STUDIES.values() for key, _, _ in study.lists})


def run_coverage(config: ExperimentConfig) -> CoverageTable:
    """Run the study described by `config`, every repeat and cell in one
    bank; rows come back ordered by (repeat, cell, parameter)."""
    study = _STUDIES[config.kind]
    z = normal_quantile(0.5 * (1.0 + config.level))
    n_rep = config.replicates
    blocks = [(repeat, cell, copula, params) for repeat in range(config.repeats)
              for cell, (copula, params) in enumerate(
                  study.cells(config, *(values for _, values in config.lists)))]
    keys = [(config.master_seed, repeat, cell, r)
            for repeat, cell, _, _ in blocks for r in range(n_rep)]
    copulas = [copula for _, _, copula, _ in blocks for _ in range(n_rep)]
    try:
        data = generate_chain_bank(copulas, config.n, keys)
        if study.reduce is not None:
            data = study.reduce(data)
    except _NUMERICAL as exc:
        return CoverageTable(tuple(_error_row(repeat, p, n_rep, exc)
                                   for repeat, _, _, params in blocks
                                   for p in params), config)
    rows = []
    for b, (repeat, _, _, params) in enumerate(blocks):
        block = data[b * n_rep:(b + 1) * n_rep]
        for p in params:
            try:
                est, s2, n_eff, target = study.statistic(config, block, p)
                covered, half = _cover(est, s2, n_eff, z, target)
                rows.append(_summarize(repeat, p, covered, est, half, n_rep))
            except _NUMERICAL as exc:
                rows.append(_error_row(repeat, p, n_rep, exc))
    return CoverageTable(tuple(rows), config)
