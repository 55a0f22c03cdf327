"""Command-line front end.

Every subcommand reads a JSON config (see `config` and `coverage`), writes
machine readable JSON or CSV to stdout or --out, and exits 0 on success and 1 on
any usage or config error.  The mixing subcommand additionally maps its
verdict onto the exit code: 0 when a certificate was found, 2 on a
boundary (non-mixing) verdict, 3 when the search was inconclusive.  The
coverage subcommand writes its table in full and exits 4 when any row
carries an error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import association, coverage, estimation, mixing, sampling
from .config import ConfigError, copula_to_config, load_copula
from .copula import DENSITY_GRID_N, sine_counterexample
from .statutil import chi2_cdf


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        # newline="" keeps CSV row terminators byte-exact
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse_transform(text: str):
    name, _, arg = text.partition(":")
    if name == "uniform" and not arg:
        return sampling.Uniform()
    try:
        if name == "exponential":
            return sampling.Exponential(float(arg))
        if name == "bernoulli":
            return sampling.Bernoulli(float(arg))
    except ValueError as exc:
        raise ConfigError("transform", str(exc)) from exc
    raise ConfigError("transform",
                      f"expected uniform, exponential:RATE or bernoulli:A, got {text!r}")


def _cmd_validate(args) -> int:
    c = load_copula(args.config)
    report = c.validate(grid_n=args.grid_n)
    _emit(_json_text({"copula": copula_to_config(c),
                      "report": report.as_dict()}), args.out)
    return 0


def _cmd_density_grid(args) -> int:
    c = load_copula(args.config)
    g, m = c.density_grid(grid_n=args.grid_n)
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["u", "v", "density"])
    for i, u in enumerate(g):
        for j, v in enumerate(g):
            wr.writerow([u, v, m[i, j]])
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_cdf(args) -> int:
    c = load_copula(args.config)
    u, v = args.u, args.v
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ConfigError("u", "point must lie in the unit square")
    _emit(_json_text({
        "u": u,
        "v": v,
        "cdf": c.cdf(u, v),
        "density": c.density(u, v),
        "conditional_cdf": c.conditional_cdf(u, v),
    }), args.out)
    return 0


def _cmd_sample(args) -> int:
    c = load_copula(args.config)
    transform = _parse_transform(args.transform)
    chain = sampling.generate_chain(c, args.n, args.seed, transform)
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["index", "u", "x"])
    for i in range(chain.n):
        wr.writerow([i, chain.values[i], chain.transformed[i]])
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_associate(args) -> int:
    c = load_copula(args.config)
    report = association.associate(c)
    _emit(_json_text({"copula": copula_to_config(c),
                      **report.as_dict()}), args.out)
    return 0


def _cmd_mixing(args) -> int:
    c = load_copula(args.config)
    report = mixing.certify_psi(c, max_n=args.max_n, grid_n=args.grid_n)
    _emit(_json_text(report.as_dict()), args.out)
    if report.certificate in (mixing.Certificate.CERTIFIED_LESS_THAN_TWO,
                              mixing.Certificate.CERTIFIED_BOUNDED_DENSITY):
        return 0
    if report.certificate is mixing.Certificate.BOUNDARY_NON_MIXING:
        return 2
    return 3


def _cmd_estimate(args) -> int:
    c = load_copula(args.config)
    chain = sampling.generate_chain(c, args.n, args.seed)
    est = estimation.estimate_mu(chain.values)
    out = {"mu_estimate": est.as_dict()}
    if args.null is not None:
        try:
            mu01, mu02 = (float(t) for t in args.null.split(","))
        except ValueError as exc:
            raise ConfigError("null", "expected MU1,MU2") from exc
        stat = estimation.chi2_statistic(est, (mu01, mu02))
        out["chi2"] = {"null": [mu01, mu02], "statistic": stat, "df": 2,
                       "p_value": 1.0 - chi2_cdf(stat, 2)}
    if args.weight is not None:
        wm = estimation.estimate_mu_weighted(chain.values, args.weight)
        lo, hi = estimation.wald_interval(wm.estimate,
                                          wm.variance, wm.n_pairs, args.level)
        out["weighted"] = {**wm.as_dict(), "level": args.level,
                           "lower": lo, "upper": hi}
    _emit(_json_text(out), args.out)
    return 0


def _cmd_coverage(args) -> int:
    cfg = coverage.load_experiment(args.config)
    if args.seed is not None:
        cfg = coverage.parse_experiment_config({**cfg.as_dict(), "master_seed": args.seed})
    table = coverage.run_coverage(cfg)
    if args.json:
        _emit(_json_text(table.to_json()), args.out)
    else:
        _emit(table.to_csv(), args.out)
    return 4 if any(row.error for row in table.rows) else 0


def _cmd_counterexample(args) -> int:
    record = sine_counterexample(args.terms, grid_points=args.grid_points)
    _emit(_json_text(record.as_dict()), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="eigencop",
                     description="eigen-expansion copulas: validation, "
                                 "sampling, association, mixing, estimation "
                                 "and coverage studies")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, config=True):
        p = sub.add_parser(name, help=helptext)
        if config:
            p.add_argument("--config", required=True,
                           help="path to a JSON config (or inline JSON)")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, "check a copula config for validity")
    p.add_argument("--grid-n", type=int, default=DENSITY_GRID_N)

    p = add("density-grid", _cmd_density_grid, "density on a midpoint grid as CSV")
    p.add_argument("--grid-n", type=int, default=64)

    p = add("cdf", _cmd_cdf, "CDF, density and conditional CDF at one point")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)

    p = add("sample", _cmd_sample, "simulate a stationary chain as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transform", default="uniform",
                   help="uniform, exponential:RATE or bernoulli:A")

    add("associate", _cmd_associate, "Spearman and Kendall association measures")

    p = add("mixing", _cmd_mixing, "psi-mixing certificate search")
    p.add_argument("--max-n", type=int, default=mixing.DEFAULT_MAX_N)
    p.add_argument("--grid-n", type=int, default=DENSITY_GRID_N)

    p = add("estimate", _cmd_estimate, "simulate a chain and estimate its coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--null", default=None, help="MU1,MU2 joint null for the chi-square test")
    p.add_argument("--weight", type=float, default=None,
                   help="convex weight for the combined coefficient estimator")
    p.add_argument("--level", type=float, default=0.95)

    p = add("coverage", _cmd_coverage, "run a coverage-probability study")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    p = add("counterexample", _cmd_counterexample,
            "margin defect of the truncated sine-system CDF candidate",
            config=False)
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--grid-points", type=int, default=4001)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"eigencop: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"eigencop: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
