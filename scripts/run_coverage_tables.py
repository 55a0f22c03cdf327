#!/usr/bin/env python3
"""Run the six coverage-probability studies at desk scale and write one
CSV per table.

The studies probe Wald intervals built from chain-aware long-run
variances against naive iid variances, on chains drawn from the
zero-association model (mu1, -4*mu1) with mu1 = 0.05 unless a study
varies it:

  table1  Bernoulli indicators, iid variance, thresholds 0.1..0.9
  table2  Bernoulli indicators, model variance, same thresholds
  table3  exponential transform, model variance, rates 0.5..30
  table4  plain mean, model variance, sample sizes 100/500/1000
  table5  plain mean, iid variance, same sizes
  table6  weighted coefficient estimator, weights x mu1 grid

Replicate counts mirror the published studies (rows of R=100 plus one
R=1000 row for the Bernoulli case); --quick cuts them down for a smoke
run.  Every cell stream is keyed by (master seed, repeat, cell,
replicate), so reruns with the same seed are byte-identical.  Every table
is written in full; the exit status is 4 when any row carries an error,
as for `eigencop coverage`, and 0 otherwise.
"""

import argparse
import pathlib
import sys
import time

from eigencop import load_experiment, run_coverage

THRESHOLDS = [round(0.1 * k, 1) for k in range(1, 10)]
RATES = [0.5, 1.0, 5.0, 10.0, 20.0, 30.0]
SIZES = [100, 500, 1000]
WEIGHTS = [0.25, 0.5, 0.9, 1.0]
MU1_GRID = [0.05, 0.1, 0.11]


def studies(seed: int, quick: bool):
    n = 1000
    r_small = 20 if quick else 100
    r_big = 100 if quick else 1000
    reps = 1 if quick else 2
    common = {"schema": "eigencop-experiment/1", "n": n, "master_seed": seed,
              "copula": {"zero_association": 0.05}}

    for mode, name in (("iid", "table1"), ("model", "table2")):
        yield name + "_r100", {**common, "experiment": "coverage_bernoulli",
                               "thresholds": THRESHOLDS, "replicates": r_small,
                               "repeats": reps, "variance_mode": mode}
        yield name + "_r1000", {**common, "experiment": "coverage_bernoulli",
                                "thresholds": THRESHOLDS, "replicates": r_big,
                                "variance_mode": mode}

    yield "table3", {**common, "experiment": "coverage_exponential",
                     "rates": RATES, "replicates": r_small,
                     "repeats": 3 if not quick else 1, "variance_mode": "model"}

    for mode, name in (("model", "table4"), ("iid", "table5")):
        yield name, {**common, "experiment": "coverage_mean",
                     "sample_sizes": SIZES, "replicates": r_small,
                     "repeats": 6 if not quick else 1, "variance_mode": mode}

    yield "table6", {"schema": "eigencop-experiment/1", "n": n,
                     "master_seed": seed, "experiment": "coverage_mu_w",
                     "weights": WEIGHTS, "mu1_values": MU1_GRID,
                     "replicates": r_small, "repeats": reps,
                     "variance_mode": "model"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="coverage_tables",
                    help="directory for the CSV outputs")
    ap.add_argument("--seed", type=int, default=19)
    ap.add_argument("--quick", action="store_true",
                    help="small replicate counts for a fast smoke run")
    args = ap.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    failed = 0
    for name, raw in studies(args.seed, args.quick):
        cfg = load_experiment(raw)
        t1 = time.time()
        table = run_coverage(cfg)
        dest = out_dir / f"{name}.csv"
        dest.write_text(table.to_csv(), encoding="utf-8", newline="")
        bad = sum(1 for r in table.rows if r.error)
        failed += bad
        status = f"{bad} failed cells" if bad else "ok"
        print(f"{name:14s} {len(table.rows):3d} rows  {time.time() - t1:6.1f}s  {status}")
    print(f"total {time.time() - t0:.1f}s -> {out_dir}")
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
