"""Coverage-probability studies for functionals of copula-driven chains.

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
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig
from .copula import zero_association_model
from .estimation import long_run_variance, sine_pair_means, weighted_mu
from .sampling import Bernoulli, Exponential, Uniform, generate_chain_bank
from .statutil import normal_quantile

_NUMERICAL = (ValueError, ArithmeticError)


@dataclass(frozen=True)
class CoverageRow:
    repeat: int
    params: dict
    coverage: float | None
    covered_count: int | None
    replicates: int
    mean_estimate: float | None
    mean_halfwidth: float | None
    error: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


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
        cols = _STUDIES[self.config.kind][0]
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


# Per kind: the CSV parameter columns; the cells of one repeat, each as
# (copula, row parameters); the row-wise reduction of the bank, or None;
# and the statistic giving (estimate, variance, n_eff, target) for one row
# from the block of its cell.
_STUDIES = {
    "coverage_bernoulli": (
        ("a",),
        lambda cfg: [(cfg.copula, [{"a": a} for a in cfg.thresholds])],
        None, _bernoulli),
    "coverage_exponential": (
        ("rate",),
        lambda cfg: [(cfg.copula, [{"rate": rate}]) for rate in cfg.rates],
        None, _exponential),
    "coverage_mean": (
        ("sample_size",),
        lambda cfg: [(cfg.copula, [{"sample_size": m} for m in cfg.sample_sizes])],
        None, _mean),
    "coverage_mu_w": (
        ("mu1", "w"),
        lambda cfg: [(zero_association_model(mu1),
                      [{"mu1": mu1, "w": w} for w in cfg.weights])
                     for mu1 in cfg.mu1_values],
        lambda bank: np.column_stack(sine_pair_means(bank)), _mu_w),
}


def run_coverage(config: ExperimentConfig) -> CoverageTable:
    """Run the study described by `config`, every repeat and cell in one
    bank; rows come back ordered by (repeat, cell, parameter)."""
    _, cells, reduce, statistic = _STUDIES[config.kind]
    z = normal_quantile(0.5 * (1.0 + config.level))
    n_rep = config.replicates
    blocks = [(repeat, cell, copula, params) for repeat in range(config.repeats)
              for cell, (copula, params) in enumerate(cells(config))]
    keys = [(config.master_seed, repeat, cell, r)
            for repeat, cell, _, _ in blocks for r in range(n_rep)]
    copulas = [copula for _, _, copula, _ in blocks for _ in range(n_rep)]
    try:
        data = generate_chain_bank(copulas, config.n, keys)
        if reduce is not None:
            data = reduce(data)
    except _NUMERICAL as exc:
        return CoverageTable(tuple(_error_row(repeat, p, n_rep, exc)
                                   for repeat, _, _, params in blocks
                                   for p in params), config)
    rows = []
    for b, (repeat, _, _, params) in enumerate(blocks):
        block = data[b * n_rep:(b + 1) * n_rep]
        for p in params:
            try:
                est, s2, n_eff, target = statistic(config, block, p)
                covered, half = _cover(est, s2, n_eff, z, target)
                rows.append(_summarize(repeat, p, covered, est, half, n_rep))
            except _NUMERICAL as exc:
                rows.append(_error_row(repeat, p, n_rep, exc))
    return CoverageTable(tuple(rows), config)
