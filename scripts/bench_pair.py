#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, written to BENCH_<label>.json.

    python3 scripts/bench_pair.py --base <rev> --label <label> \\
        --plan coverage_quick=10,wide_bank=4,scalar_chains=4,verdicts=4

The base and head revisions (head: HEAD unless --head names another) are
each exported with `git archive` into a temporary directory, as their
committed files alone, the way the benchmark is run on a change; the
directory is removed when the series ends.  Each tree's own
`perfbench/run.py` runs from its root (run.py imports `eigencop` from that
tree's `src/`), one run at a time.  Pair i of a workload runs both trees on
seed seed0 + i; even pairs run the base first, odd pairs the head, so a
drift in machine speed does not favour one side.

For every workload and every metric of BENCHMARK.json that the runs print
(end-to-end untraced, per-layer with --trace 1) the file gives both sides'
medians and quartiles, the head's median change, the number of
pairs the head wins (by the metric's `better` direction), and whether the
median gap exceeds the base's interquartile range.  It also gives the seeds,
each run's metrics, the failed share of operations per side, the `src/` line
count and the revisions and versions.  The file is rewritten after every
run, so an interrupted series keeps what it measured.  The exit status is 1
when any run failed its checks or exited abnormally, else 0.
"""

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """The committed files of rev, unpacked into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def src_lines(tree: pathlib.Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=1800)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: both sides' quartiles, the head's change and its wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(r["base"]["metrics"][name], r["head"]["metrics"][name]) for r in runs
                 if name in r["base"]["metrics"] and name in r["head"]["metrics"]]
        if not pairs:
            continue
        base, head = [b for b, _ in pairs], [h for _, h in pairs]
        qb, qh = quartiles(base), quartiles(head)
        wins = sum((h < b) if lower else (h > b) for b, h in pairs)
        out[name] = {"unit": m["unit"], "better": m["better"], "pairs": len(pairs),
                     "base_median": qb[1], "base_quartiles": [qb[0], qb[2]],
                     "head_median": qh[1], "head_quartiles": [qh[0], qh[2]],
                     "change": qh[1] / qb[1] - 1.0 if qb[1] else None,
                     "head_wins": wins,
                     "gap_exceeds_base_iqr": abs(qh[1] - qb[1]) > qb[2] - qb[0]}
    return out


def failed_share(runs: list, side: str) -> dict:
    attempted = sum(r[side]["attempted"] for r in runs)
    failed = sum(r[side]["failed"] for r in runs)
    return {"failed": failed, "attempted": attempted,
            "share": failed / attempted if attempted else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision to measure (default: HEAD)")
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    ap.add_argument("--plan", default="coverage_quick=10",
                    help="comma-separated workload=pairs (default coverage_quick=10)")
    ap.add_argument("--seed0", type=int, default=9101, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as work:
        trees = {side: export(rev, pathlib.Path(work) / side)
                 for side, rev in (("base", args.base), ("head", args.head))}
        return series(args, trees)


def series(args, trees: dict) -> int:
    """Run the plan's pairs on the exported trees, rewriting the output
    file after every run; 1 if any run failed, else 0."""
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.plan.split(","))]
    manifest = json.loads((trees["base"] / "BENCHMARK.json").read_text())
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    out_path = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        **{side: {"rev": git("rev-parse", rev), "src_lines": src_lines(trees[side])}
           for side, rev in (("base", args.base), ("head", args.head))},
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                capture_output=True, text=True).stdout.strip(),
        "workloads": {},
    }
    ok = True
    for workload, n_pairs in plan:
        runs = []
        entry = record["workloads"][workload] = {"runs": runs}
        for i in range(n_pairs):
            seed = args.seed0 + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds, args.trace)
                ok &= pair[side]["exit"] == 0 and pair[side]["correct"]
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()),
                      flush=True)
            runs.append(pair)
            entry.update(seeds=[r["seed"] for r in runs], metrics=summarize(runs, metrics),
                         failed_base=failed_share(runs, "base"),
                         failed_head=failed_share(runs, "head"))
            out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
