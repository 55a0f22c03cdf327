#!/usr/bin/env python3
"""Paired identity check of two source trees, written to IDENTITY_<label>.json.

    python3 scripts/identity_pair.py --base <rev> --label <label>

The base and head revisions (head: HEAD unless --head names another) are
each exported with `git archive` into a temporary directory, as their
committed files alone, as `bench_pair.py` does; the directory is removed at
the end.  Each tree runs the catalogue below in its own process, with
`eigencop` imported from that tree's `src/` and called through public names
only, so both trees answer the same calls:

- chains for every copula of COPULAS, and one with each transform;
- banks of 1, 31, 63, 64, 65 and 200 lanes for every copula, 64- and
  65-lane banks of 1 and 2 columns too, and per-row banks of several
  copulas;
- 1,000-step banks whose lanes drift apart on the array path: 200 lanes
  of `two_sine`, `legendre_135` and `sign_3_cells`, and 130 per-row
  zero-association lanes, a third of them term-free;
- `next_state` on scalars, 0-d and 2-D arrays and 1 to 1,000 lanes, and
  `sample_wl` on scalars and arrays;
- `eval_phi` and `eval_Phi` on fixed points for every family and index of
  TABLES;
- `extrema` of every even-index shifted Legendre function up to k = 200,
  and the `validate` records of the one-term Legendre copulas of
  LEGENDRE_EVEN_VALIDATE;
- the `validate`, `certify_psi` (max_n 20 and 3) and `associate` records of
  the copulas of the tree's own `perfbench/workloads.verdict_specs`, seeds
  1 to 5 (read, not changed);
- the CSVs of the tree's `scripts/run_coverage_tables.py --quick`;
- the config echo and `associate` record of copulas built with numpy
  integer indices;
- stdout, stderr and exit code of the command line on the tree's
  `scripts/configs` and on a few inline configs (`estimate` with and
  without `--weight`), and of a few refused arguments;
- the type and message of each error in ERRORS.

The file gives a sha256 per output for each side.  Where an output differs
and both sides hold the same numbers of floats in the same layout, it adds
the largest absolute difference and the largest distance in units in the
last place (the count of floats between the two values, which is large
near 0: from 1e-16 to 0 it is about 4e18).  The exit status is 0 when
every output is identical, else 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import pickle
import platform
import re
import struct
import subprocess
import sys
import tempfile

from bench_pair import ROOT, export, git, src_lines


# -- the catalogue, run inside each tree's process ---------------------------


def copulas(ec):
    """One or more copulas of every family, boundary and term-free ones too."""
    return {
        "cosine": ec.cosine_copula({1: 0.35, 2: -0.1}),
        "cosine_boundary": ec.cosine_copula({1: 0.5}),
        "legendre": ec.shifted_legendre_copula({1: 0.3, 2: 0.15}),
        "legendre_135": ec.shifted_legendre_copula({1: 0.1, 3: 0.05, 5: 0.02}),
        "two_sine": ec.two_sine_model(0.2, -0.15),
        "sine_cosine": ec.sine_cosine_copula(sin={1: 0.1}, cos={1: 0.1, 3: 0.05}),
        "two_value_1": ec.two_value_step(1.0, 0.6),
        "two_value_04": ec.two_value_step(0.4, -0.3),
        "two_value_boundary": ec.two_value_step(1.0, 1.0),
        "two_value_2_boundary": ec.two_value_step(2.0, 1.0),
        "sign_flip": ec.piecewise_sign((0.0, 0.3, 1.0), (0.7, -0.5)),
        "sign_3_cells": ec.piecewise_sign((0.0, 0.2, 0.5, 1.0), (0.9, -0.8, 0.7)),
        "sign_boundary": ec.piecewise_sign((0.0, 0.5, 1.0), (1.0, -1.0)),
        "independence": ec.independence(),
    }


def tables(ec):
    """(name, family, indices): every family, index gaps and high indices."""
    return [
        ("sine_cosine", ec.SineCosine(), [("sin", 1), ("cos", 1), ("sin", 2), ("cos", 3),
                                          ("sin", 7), ("sin", 1024), ("cos", 1024)]),
        ("cosine", ec.Cosine(), [1, 2, 3, 7, 1024]),
        ("legendre", ec.ShiftedLegendre(), list(range(1, 31))),
        ("two_value_0.4", ec.TwoValueStep(0.4), [1]),
        ("two_value_1", ec.TwoValueStep(1.0), [1]),
        ("two_value_3", ec.TwoValueStep(3.0), [1]),
        ("two_value_0.7", ec.TwoValueStep(0.7), [1]),
        ("sign_3", ec.PiecewiseSign((0.0, 0.25, 0.6, 1.0)), [1, 2, 3]),
        ("sign_1", ec.PiecewiseSign((0.0, 1.0)), [1]),
    ]


def table_points(ec, family):
    import numpy as np
    edges = list(family.breakpoints) if isinstance(family, ec.PiecewiseSign) else []
    cuts = [1.0 / (family.alpha + 1.0)] if isinstance(family, ec.TwoValueStep) else []
    return np.concatenate([np.linspace(0.0, 1.0, 257), (np.arange(128) + 0.5) / 128,
                           np.array([0.0, 1.0, *cuts, *edges])])


def errors(ec):
    """(name, call) pairs that must raise."""
    import numpy as np
    fgm = ec.fgm(0.5)
    return [
        ("next_state_range", lambda: ec.next_state(fgm, 1.2, 0.5)),
        ("next_state_shapes", lambda: ec.next_state(fgm, np.array([0.1, 0.2]), np.array([0.3]))),
        ("next_state_nan", lambda: ec.next_state(fgm, math.nan, 0.5)),
        ("next_state_invalid", lambda: ec.next_state(ec.fgm(1.5), 0.5, 0.5)),
        ("sample_wl_lambda", lambda: ec.sample_wl(1.1, 0.5, 0.5)),
        ("sample_wl_nan", lambda: ec.sample_wl(0.5, math.nan, 0.3)),
        ("sample_wl_shapes", lambda: ec.sample_wl(0.5, np.array([0.1, 0.2]),
                                                  np.array([0.1, 0.2, 0.3]))),
        ("bank_keys", lambda: ec.generate_chain_bank([fgm] * 3, 10, [(1,), (2,)])),
        ("bank_families", lambda: ec.generate_chain_bank(
            [ec.zero_association_model(0.05), ec.cosine_copula({1: 0.1})], 10, [(1,), (2,)])),
        ("bank_length", lambda: ec.generate_chain_bank(fgm, 0, [1])),
        ("stream_empty", lambda: ec.innovation_stream()),
        ("stream_negative", lambda: ec.innovation_stream(-1)),
        ("eval_phi_float_index", lambda: ec.eval_phi(ec.Cosine(), 1.0, 0.5)),
        ("eval_phi_zero_index", lambda: ec.eval_phi(ec.Cosine(), 0, 0.5)),
        ("eval_Phi_range", lambda: ec.eval_Phi(ec.Cosine(), 1, 1.5)),
        ("two_value_alpha", lambda: ec.TwoValueStep(0.0)),
        ("two_value_rounds", lambda: ec.TwoValueStep(1.1e-16)),
        ("sign_breakpoints", lambda: ec.PiecewiseSign((0.0, 0.5))),
        ("coefficient_inf", lambda: ec.cosine_copula({1: math.inf})),
        ("coefficient_duplicate", lambda: ec.SpectralCoefficients(((1, 0.1), (1, 0.2)))),
        ("two_sine_range", lambda: ec.two_sine_model(0.4, 0.4)),
        ("zero_association_range", lambda: ec.zero_association_model(0.2)),
        ("validate_grid", lambda: fgm.validate(1)),
        ("certify_max_n", lambda: ec.certify_psi(fgm, max_n=0)),
        ("fold_power", lambda: fgm.fold(0)),
        ("exponential_rate", lambda: ec.Exponential(0.0)),
        ("bernoulli_threshold", lambda: ec.Bernoulli(1.0)),
        ("config_family", lambda: ec.parse_copula_config({"basis": {"family": "tan"},
                                                          "lambda": [[1, 0.1]]})),
        # NaN, non-integral and bool arguments
        ("validate_float_grid", lambda: fgm.validate(2.5)),
        ("density_grid_float", lambda: fgm.density_grid(8.0)),
        ("certify_float_grid", lambda: ec.certify_psi(fgm, grid_n=100.0)),
        ("certify_float_max_n", lambda: ec.certify_psi(fgm, max_n=2.5)),
        ("rho_float_n_max", lambda: ec.rho_sequence(fgm, 2.5)),
        ("fold_bool", lambda: fgm.fold(True)),
        ("chain_bool_seed", lambda: ec.generate_chain(fgm, 5, True)),
        ("bank_bool_length", lambda: ec.generate_chain_bank(fgm, True, [1])),
        ("stream_bool", lambda: ec.innovation_stream(True)),
        ("counterexample_float_terms", lambda: ec.sine_counterexample(2.5)),
        ("counterexample_float_grid", lambda: ec.sine_counterexample(3, grid_points=100.0)),
        ("counterexample_negative", lambda: ec.sine_counterexample(-1)),
        ("estimate_mu_range", lambda: ec.estimate_mu([0.1, 5.0, 0.3])),
        ("estimate_mu_nan", lambda: ec.estimate_mu([0.1, math.nan, 0.3])),
        ("transform_range", lambda: ec.apply_transform(ec.Exponential(1.0), [2.0])),
        ("sine_cosine_float_index", lambda: ec.sine_cosine_copula(sin={1.5: 0.1})),
        ("sine_cosine_str_index", lambda: ec.sine_cosine_copula(sin={"1": 0.1})),
        ("sample_wl_nan_lambda", lambda: ec.sample_wl(math.nan, 0.3, 0.4)),
        ("wald_nan_variance", lambda: ec.wald_interval(0.5, math.nan, 10, 0.95)),
        ("mean_ci_nan_variance", lambda: ec.mean_ci([0.2, 0.4], math.nan)),
        # non-finite config numbers and the transform and count they reached
        ("experiment_infinite_rate", lambda: ec.load_experiment(
            '{"schema": "eigencop-experiment/1", "experiment": "coverage_exponential", '
            '"copula": {"fgm": 0.3}, "rates": [Infinity], "n": 50, "R": 4}')),
        ("fgm_huge_integer", lambda: ec.parse_copula_config({"fgm": 10 ** 400})),
        ("exponential_infinite_rate", lambda: ec.Exponential(math.inf)),
        ("wald_zero_n", lambda: ec.wald_interval(0.5, 0.1, 0, 0.95)),
        # bool indices and alpha, whose config echo no reader takes
        ("cosine_bool_index", lambda: ec.cosine_copula({True: 0.3})),
        ("sine_cosine_bool_index", lambda: ec.SpectralCopula(
            ec.SineCosine(), ec.SpectralCoefficients(((("sin", True), 0.1),)))),
        ("two_value_bool_alpha", lambda: ec.two_value_step(True, 0.5)),
    ]


# one-term copulas lambda_k = 0.01 for even k on either side of 156, the
# first k at which a 4096-point grid misses the outermost critical point of P_k
LEGENDRE_EVEN_VALIDATE = (154, 156, 200)


CLI_INLINE = [
    ("cosine_1024", '{"basis": {"family": "cosine"}, "lambda": [[1024, 0.9]]}'),
    ("cosine_invalid", '{"basis": {"family": "cosine"}, "lambda": [[1, 5.0]]}'),
    ("legendre_two_terms", '{"basis": {"family": "shifted_legendre"}, '
                           '"lambda": [[1, 0.3], [2, 0.1]]}'),
    ("fgm_0.9", '{"fgm": 0.9}'),
]


def cli_calls(tree: pathlib.Path):
    """(name, argv) for the command line on the tree's configs."""
    calls = [("counterexample", ["counterexample", "--terms", "10"]),
             ("cdf_outside", ["cdf", "--config", '{"fgm": 0.5}', "--u", "0.3", "--v", "2"]),
             ("sample_infinite_rate", ["sample", "--config", '{"fgm": 0.5}', "--n", "5",
                                       "--transform", "exponential:inf"])]
    configs = [(p.stem, str(p.relative_to(tree)))
               for p in sorted((tree / "scripts" / "configs").glob("*.json"))]
    for name, config in configs + CLI_INLINE:
        if name.startswith("experiment"):
            calls.append((f"{name}.coverage", ["coverage", "--config", config]))
            continue
        for sub, extra in (("validate", []), ("cdf", ["--u", "0.3", "--v", "0.6"]),
                           ("density-grid", ["--grid-n", "16"]),
                           ("sample", ["--n", "200", "--seed", "7"]),
                           ("sample.exponential", ["--n", "200", "--transform", "exponential:2.0"]),
                           ("associate", []), ("mixing", []),
                           ("estimate", ["--n", "500", "--seed", "3"]),
                           ("estimate.weight", ["--n", "500", "--seed", "3", "--weight", "0.5",
                                                "--null", "0.05,-0.2"])):
            calls.append((f"{name}.{sub}", [sub.split(".")[0], "--config", config, *extra]))
    return calls


def catalogue(tree: pathlib.Path):
    """Yield (name, thunk); a thunk returns floats (an array or a number) or
    text."""
    import numpy as np
    import eigencop as ec
    from eigencop import cli

    cops = copulas(ec)
    for name, c in cops.items():
        yield f"chain.{name}", lambda c=c: ec.generate_chain(c, 300, 7).values
        for lanes in (1, 31, 63, 64, 65, 200):
            yield (f"bank.{name}.{lanes}",
                   lambda c=c, lanes=lanes: ec.generate_chain_bank(
                       c, 60, [(11, r) for r in range(lanes)]))
        for lanes in (64, 65):
            for n in (1, 2):
                yield (f"bank.{name}.{lanes}.n{n}",
                       lambda c=c, lanes=lanes, n=n: ec.generate_chain_bank(
                           c, n, [(17, r) for r in range(lanes)]))
    for name in ("two_sine", "legendre_135", "sign_3_cells"):
        yield (f"bank_long.{name}.200",
               lambda c=cops[name]: ec.generate_chain_bank(
                   c, 1000, [(19, r) for r in range(200)]))
    for t in (ec.Uniform(), ec.Exponential(2.0), ec.Bernoulli(0.4)):
        yield (f"chain.legendre.{type(t).__name__}",
               lambda t=t: ec.generate_chain(cops["legendre"], 300, 5, t).transformed)
    per_row = {"zero_association": [ec.zero_association_model(m) for m in (0.0, 0.05, 0.11)],
               "legendre": [ec.shifted_legendre_copula({1: 0.3, 2: 0.15}),
                            ec.shifted_legendre_copula({1: -0.2, 2: 0.1})]}
    for name, models in per_row.items():
        for lanes in (5, 64, 130):
            yield (f"bank_per_row.{name}.{lanes}",
                   lambda models=models, lanes=lanes: ec.generate_chain_bank(
                       [models[i % len(models)] for i in range(lanes)], 60,
                       [(13, r) for r in range(lanes)]))
    yield ("bank_per_row_long.zero_association.130",
           lambda models=per_row["zero_association"]: ec.generate_chain_bank(
               [models[i % 3] for i in range(130)], 1000, [(23, r) for r in range(130)]))

    rng = np.random.default_rng(3)
    u, w = rng.random(1000), rng.random(1000)
    for name, c in cops.items():
        yield (f"next_state.{name}.scalar",
               lambda c=c: [ec.next_state(c, a, b) for a, b in zip(u[:20].tolist(), w[:20].tolist())])
        yield f"next_state.{name}.0d", lambda c=c: ec.next_state(c, np.array(u[0]), np.array(w[0]))
        yield (f"next_state.{name}.2d",
               lambda c=c: ec.next_state(c, u[:20].reshape(4, 5), w[:20].reshape(4, 5)))
        for lanes in (1, 63, 64, 1000):
            yield (f"next_state.{name}.{lanes}",
                   lambda c=c, lanes=lanes: ec.next_state(c, u[:lanes], w[:lanes]))
    for lam in (0.5, -0.7, 1.0, -1.0):
        yield (f"sample_wl.{lam}.scalar",
               lambda lam=lam: [ec.sample_wl(lam, a, b) for a, b in zip(u[:50].tolist(), w[:50].tolist())])
        yield f"sample_wl.{lam}.1000", lambda lam=lam: ec.sample_wl(lam, u, w)
        yield (f"sample_wl.{lam}.2d",
               lambda lam=lam: ec.sample_wl(lam, u[:20].reshape(4, 5), w[:20].reshape(4, 5)))

    for name, family, ks in tables(ec):
        x = table_points(ec, family)
        for k in ks:
            yield f"eval_phi.{name}.{k}", lambda family=family, k=k, x=x: ec.eval_phi(family, k, x)
            yield f"eval_Phi.{name}.{k}", lambda family=family, k=k, x=x: ec.eval_Phi(family, k, x)

    for k in range(2, 201, 2):
        yield f"extrema.legendre.{k}", lambda k=k: ec.extrema(ec.ShiftedLegendre(), k)
    for k in LEGENDRE_EVEN_VALIDATE:
        yield (f"legendre_even.{k}.validate",
               lambda k=k: _record(ec.shifted_legendre_copula({k: 0.01}).validate()))

    def echo(make):
        c = make()
        return json.dumps({"copula": ec.copula_to_config(c), **ec.associate(c).as_dict()})
    i64 = np.int64
    for name, make in (("cosine", lambda: ec.cosine_copula({i64(2): 0.3})),
                       ("legendre", lambda: ec.shifted_legendre_copula({i64(1): 0.2})),
                       ("sine_cosine", lambda: ec.SpectralCopula(
                           ec.SineCosine(), ec.SpectralCoefficients(((("cos", i64(3)), 0.1),))))):
        yield f"numpy_index.{name}", lambda make=make: echo(make)

    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    for seed in range(1, 6):
        for label, spec, _, _ in workloads.verdict_specs(seed):
            c = workloads.build_copula(ec, spec)
            key = f"verdicts.{seed}.{label}"
            yield f"{key}.validate", lambda c=c: _record(c.validate())
            yield f"{key}.certify_psi", lambda c=c: _record(ec.certify_psi(c))
            yield f"{key}.certify_psi.3", lambda c=c: _record(ec.certify_psi(c, max_n=3))
            yield f"{key}.associate", lambda c=c: _record(ec.associate(c))

    with tempfile.TemporaryDirectory(prefix="identity_tables_") as out:
        subprocess.run([sys.executable, "scripts/run_coverage_tables.py", "--quick",
                        "--out-dir", out], cwd=tree, check=True, capture_output=True)
        csvs = {p.name: p.read_text(encoding="utf-8") for p in sorted(pathlib.Path(out).iterdir())}
    for name, text in csvs.items():
        yield f"quick_tables.{name}", lambda text=text: text

    for name, argv in cli_calls(tree):
        yield f"cli.{name}", lambda argv=argv: _cli(cli, argv)

    for name, call in errors(ec):
        yield f"error.{name}", call


def _record(rec) -> str:
    return json.dumps(rec.as_dict(), sort_keys=True)


def _cli(cli, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n-- stdout --\n{out.getvalue()}-- stderr --\n{err.getvalue()}"


def run_catalogue(tree: pathlib.Path, out_path: pathlib.Path) -> None:
    """Every output of the catalogue as ("floats", array) or ("text", str),
    pickled to out_path; a call that raises gives its type and message."""
    import numpy as np
    outputs = {}
    for name, thunk in catalogue(tree):
        try:
            value = thunk()
        except Exception as exc:  # the error is the output
            outputs[name] = ("text", f"raises {type(exc).__name__}: {exc}")
            continue
        if isinstance(value, str):
            outputs[name] = ("text", value)
        elif name.startswith("error."):
            outputs[name] = ("text", "returned without an error")
        else:
            outputs[name] = ("floats", np.asarray(value, dtype=float))
    out_path.write_bytes(pickle.dumps(outputs))


# -- comparison ---------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def digest(kind: str, value) -> str:
    if kind == "floats":
        data = repr(value.shape).encode() + value.tobytes()
    else:
        data = value.encode("utf-8")
    return hashlib.sha256(kind.encode() + b":" + data).hexdigest()


def numbers(kind: str, value):
    """(layout, floats): the layout is the shape, or the text with every
    number taken out."""
    if kind == "floats":
        return ("floats", value.shape), value.ravel().tolist()
    return ("text", _NUMBER.sub("#", value)), [float(t) for t in _NUMBER.findall(value)]


def _ordered(x: float) -> int:
    # the float's bits as an integer that counts representable values
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def float_difference(a, b) -> dict | None:
    """The largest absolute and ulp differences between two outputs with
    the same layout, else None."""
    (layout_a, xs), (layout_b, ys) = numbers(*a), numbers(*b)
    if layout_a != layout_b:
        return None
    pairs = [(x, y) for x, y in zip(xs, ys) if struct.pack("<d", x) != struct.pack("<d", y)]
    finite = [(x, y) for x, y in pairs if math.isfinite(x) and math.isfinite(y)]
    return {"floats_differing": len(pairs),
            "max_abs_diff": max((abs(x - y) for x, y in finite), default=None),
            "max_ulp": max((abs(_ordered(x) - _ordered(y)) for x, y in finite), default=None)}


def compare(base: dict, head: dict) -> dict:
    results = {}
    for name in list(base) + [n for n in head if n not in base]:
        entry = {side: digest(*outs[name]) if name in outs else None
                 for side, outs in (("base", base), ("head", head))}
        entry["identical"] = entry["base"] == entry["head"]
        if not entry["identical"] and name in base and name in head:
            diff = float_difference(base[name], head[name])
            if diff is not None:
                entry.update(diff)
            else:
                entry["texts"] = {side: outs[name][1] for side, outs in
                                  (("base", base), ("head", head)) if outs[name][0] == "text"}
        results[name] = entry
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision to check (default: HEAD)")
    ap.add_argument("--label", help="the output is IDENTITY_<label>.json")
    ap.add_argument("--catalogue", nargs=2, metavar=("TREE", "OUT"),
                    help=argparse.SUPPRESS)  # one tree's side, in its own process
    args = ap.parse_args(argv)
    if args.catalogue:
        run_catalogue(pathlib.Path(args.catalogue[0]), pathlib.Path(args.catalogue[1]))
        return 0
    if not (args.base and args.label):
        ap.error("--base and --label are required")
    record = {"label": args.label, "python": platform.python_version(),
              "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                      capture_output=True, text=True).stdout.strip()}
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="identity_pair_") as work:
        for side, rev in (("base", args.base), ("head", args.head)):
            tree = export(rev, pathlib.Path(work) / side)
            record[side] = {"rev": git("rev-parse", rev), "src_lines": src_lines(tree)}
            out = pathlib.Path(work) / f"{side}.pickle"
            proc = subprocess.run(
                [sys.executable, str(pathlib.Path(__file__).resolve()), "--catalogue",
                 str(tree), str(out)],
                cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"the {side} tree ({rev}) failed to run the catalogue", file=sys.stderr)
                return 1
            outputs[side] = pickle.loads(out.read_bytes())
    results = compare(outputs["base"], outputs["head"])
    differ = [name for name, entry in results.items() if not entry["identical"]]
    record.update(outputs=len(results), identical=len(results) - len(differ), differ=differ,
                  results=results)
    out_path = ROOT / f"IDENTITY_{args.label}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(results) - len(differ)} of {len(results)} outputs identical; "
          f"written to {out_path.name}")
    for name in differ:
        entry = results[name]
        detail = (f"max_abs_diff {entry['max_abs_diff']}, max_ulp {entry['max_ulp']}"
                  if "max_ulp" in entry else "text differs")
        print(f"  differs: {name} ({detail})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
