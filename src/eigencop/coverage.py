"""Coverage-probability studies for functionals of copula-driven chains.

For each parameter cell the harness simulates `replicates` independent
stationary chains, builds a Wald interval for the cell's target from each
chain, and reports the fraction of intervals containing the truth.  Two
variance modes are offered: "model" plugs in the closed-form long-run
variance of the chain functional, "iid" uses the variance one would use
for independent data (Bernoulli p(1-p), exponential mean^2, uniform 1/12).
The gap between the two is the point of the study: intervals built as if
the data were independent undercover once the chain is dependent.

For the weighted-coefficient study there is no independence variant, so
"model" selects the variance expression the interval construction was
published with and "iid" the delta-method variance from the joint CLT of
the two pair averages.

Replicate r of cell c in repeat j draws its innovations from the stream
keyed (master_seed, j, c, r), so results are reproducible and independent
of scheduling; cells that share chains (thresholds, sample sizes, weights)
use cell key 0 and reuse one bank per repeat, and the exponential study
steps all its rate cells in one bank per repeat.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .copula import zero_association_model
from .estimation import (sigma2_exponential, sigma2_indicator,
                         sigma2_uniform_mean, sine_pair_means, weighted_mu)
from .sampling import generate_chain_bank
from .statutil import normal_quantile

WORKERS_ENV = "EIGENCOP_WORKERS"

_PARAM_COLS = {
    "coverage_bernoulli": ("a",),
    "coverage_exponential": ("rate",),
    "coverage_mean": ("sample_size",),
    "coverage_mu_w": ("mu1", "w"),
}


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
        return {
            "repeat": self.repeat,
            "params": dict(self.params),
            "coverage": self.coverage,
            "covered_count": self.covered_count,
            "replicates": self.replicates,
            "mean_estimate": self.mean_estimate,
            "mean_halfwidth": self.mean_halfwidth,
            "error": self.error,
        }


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
        cols = _PARAM_COLS[self.config.kind]
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


def _mu1_of(c) -> float:
    return c.coeffs.get(("sin", 1), 0.0)


def _summarize(repeat: int, params: dict, covered, est, half, n_rep: int) -> CoverageRow:
    count = int(np.count_nonzero(covered))
    return CoverageRow(repeat, params, 100.0 * count / n_rep, count, n_rep,
                       float(np.mean(est)), float(np.mean(half)))


def _cover(est, sigma2, n_eff: int, z: float, target: float):
    half = z * np.sqrt(np.maximum(np.asarray(sigma2, dtype=float), 0.0) / n_eff)
    covered = np.abs(est - target) <= half
    return covered, half


def _error_rows(repeat: int, params_list, n_rep: int, exc: Exception):
    msg = f"{type(exc).__name__}: {exc}"
    return [CoverageRow(repeat, p, None, None, n_rep, None, None, msg)
            for p in params_list]


def _bank(cfg: ExperimentConfig, copula, repeat: int, *cells: int) -> np.ndarray:
    """Rows keyed (master_seed, repeat, cell, r), cell by cell."""
    keys = [(cfg.master_seed, repeat, cell, r)
            for cell in cells for r in range(cfg.replicates)]
    return generate_chain_bank(copula, cfg.n, keys)


def _run_bernoulli(cfg: ExperimentConfig, z: float, repeat: int):
    params = [{"a": a} for a in cfg.thresholds]
    try:
        bank = _bank(cfg, cfg.copula, repeat, 0)
    except Exception as exc:
        return _error_rows(repeat, params, cfg.replicates, exc)
    mu1 = _mu1_of(cfg.copula)
    rows = []
    for a, p in zip(cfg.thresholds, params):
        try:
            est = np.mean(bank <= a, axis=1)
            if cfg.variance_mode == "model":
                s2 = sigma2_indicator(a, mu1)
            else:
                s2 = est * (1.0 - est)
            covered, half = _cover(est, s2, cfg.n, z, a)
            rows.append(_summarize(repeat, p, covered, est, half, cfg.replicates))
        except Exception as exc:
            rows.extend(_error_rows(repeat, [p], cfg.replicates, exc))
    return rows


def _run_exponential(cfg: ExperimentConfig, z: float, repeat: int):
    params = [{"rate": rate} for rate in cfg.rates]
    n_rep = cfg.replicates
    try:
        bank = _bank(cfg, cfg.copula, repeat, *range(len(cfg.rates)))
    except Exception as exc:
        return _error_rows(repeat, params, n_rep, exc)
    mu1 = _mu1_of(cfg.copula)
    rows = []
    for cell, (rate, p) in enumerate(zip(cfg.rates, params)):
        try:
            x = -rate * np.log1p(-bank[cell * n_rep:(cell + 1) * n_rep])
            est = np.mean(x, axis=1)
            if cfg.variance_mode == "model":
                s2 = sigma2_exponential(rate, mu1)
            else:
                s2 = est * est
            covered, half = _cover(est, s2, cfg.n, z, rate)
            rows.append(_summarize(repeat, p, covered, est, half, n_rep))
        except Exception as exc:
            rows.extend(_error_rows(repeat, [p], n_rep, exc))
    return rows


def _run_mean(cfg: ExperimentConfig, z: float, repeat: int):
    params = [{"sample_size": m} for m in cfg.sample_sizes]
    try:
        bank = _bank(cfg, cfg.copula, repeat, 0)
    except Exception as exc:
        return _error_rows(repeat, params, cfg.replicates, exc)
    mu1 = _mu1_of(cfg.copula)
    rows = []
    for m, p in zip(cfg.sample_sizes, params):
        try:
            est = np.mean(bank[:, :m], axis=1)
            if cfg.variance_mode == "model":
                s2 = sigma2_uniform_mean(mu1)
            else:
                s2 = 1.0 / 12.0
            covered, half = _cover(est, s2, m, z, 0.5)
            rows.append(_summarize(repeat, p, covered, est, half, cfg.replicates))
        except Exception as exc:
            rows.extend(_error_rows(repeat, [p], cfg.replicates, exc))
    return rows


def _run_mu_w(cfg: ExperimentConfig, z: float, repeat: int, cell: int):
    mu1 = cfg.mu1_values[cell]
    params = [{"mu1": mu1, "w": w} for w in cfg.weights]
    try:
        copula = zero_association_model(mu1)
        m1, m2 = sine_pair_means(_bank(cfg, copula, repeat, cell))
    except Exception as exc:
        return _error_rows(repeat, params, cfg.replicates, exc)
    n_pairs = cfg.n - 1
    rows = []
    for w, p in zip(cfg.weights, params):
        try:
            wm = weighted_mu(m1, m2, w, n_pairs)
            s2 = wm.variance if cfg.variance_mode == "model" else wm.variance_delta
            covered, half = _cover(wm.estimate, s2, n_pairs, z, mu1)
            rows.append(_summarize(repeat, p, covered, wm.estimate, half,
                                   cfg.replicates))
        except Exception as exc:
            rows.extend(_error_rows(repeat, [p], cfg.replicates, exc))
    return rows


def run_coverage(config: ExperimentConfig, threads: int = None) -> CoverageTable:
    """Run the study described by `config`; rows come back ordered by
    (repeat, cell) regardless of the worker count."""
    if threads is None:
        threads = int(os.environ.get(WORKERS_ENV, "1"))
    if threads < 1:
        raise ValueError("threads must be at least 1")

    z = normal_quantile(0.5 * (1.0 + config.level))
    kind = config.kind

    tasks = []
    for repeat in range(config.repeats):
        if kind == "coverage_bernoulli":
            tasks.append(lambda j=repeat: _run_bernoulli(config, z, j))
        elif kind == "coverage_mean":
            tasks.append(lambda j=repeat: _run_mean(config, z, j))
        elif kind == "coverage_exponential":
            tasks.append(lambda j=repeat: _run_exponential(config, z, j))
        elif kind == "coverage_mu_w":
            for cell in range(len(config.mu1_values)):
                tasks.append(lambda j=repeat, c=cell: _run_mu_w(config, z, j, c))
        else:
            raise ValueError(f"unknown experiment kind {kind!r}")

    if threads == 1:
        results = [t() for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: t(), tasks))

    rows = [row for sub in results for row in sub]
    return CoverageTable(tuple(rows), config)
