#!/usr/bin/env python3
"""Benchmark of eigencop: four workloads, their correctness checks, and
end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --manifest > BENCHMARK.json

Run from the root of a source tree; the program is imported from its src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  The raw record of the
run, spans included, goes to perfbench/out/.  See perfbench/README.md.
"""

import os

# one process, numpy's BLAS pool held to one thread, and run_coverage at the
# library's default worker count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EIGENCOP_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import timing  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_WHY = {
    "coverage_quick": "the paper's coverage study at quick sizes: narrow banks, per-step dispatch and per-call set-up",
    "wide_bank": "one 5000x1000 two-sine bank plus estimators: wide numpy steps and solver iterations",
    "scalar_chains": "one long plain-float chain per family plus sample_wl: Python per-step overhead",
    "verdicts": "distinct copulas through validate, certify_psi and associate: the only copula/mixing/association load",
}
END_TO_END = [  # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
SETUP_REPS = 5


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_eigencop():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import eigencop
    except ImportError as exc:
        fail(f"cannot import eigencop from {src}: {exc}")
    if src.resolve() not in pathlib.Path(eigencop.__file__).resolve().parents:
        fail(f"eigencop was imported from {eigencop.__file__}, not from {src}")
    return eigencop


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import eigencop and build the workload's inputs, in a
    fresh interpreter (this function runs in a child process), at the
    reference speed of timing.py."""
    before, _ = timing.probe()
    t0 = perf_counter()
    ec = import_eigencop()
    import workloads
    workloads.WORKLOADS[workload](ec, seed)
    elapsed = perf_counter() - t0
    after, _ = timing.probe()
    return elapsed * timing.PROBE_REF_S / (0.5 * (before + after))


def setup_seconds(workload: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


class Pass:
    """Rounds of one workload: slot times, operations, failures, problems.

    An untraced pass runs until it has measured `seconds` and made the
    workload's min_rounds; a traced pass makes exactly `rounds`, numbered
    from `first_round` so that it meets no memoised result of an earlier
    pass."""

    def __init__(self, work, span, seconds=0.0, min_rounds=1, rounds=None, first_round=0,
                 keep_last=False):
        self.clock = timing.Clock(span)
        self.ops, self.failed, self.problems = 0, [], []
        self.rounds, self.last = 0, None
        while True:
            inp = work.prepare(first_round + self.rounds)
            out = work.run(inp, self.clock)
            self.clock.end_round()
            ops, failed, problems = work.check(inp, out)
            self.ops += ops
            self.failed += failed
            self.problems += problems
            self.last = (inp, out) if keep_last else None
            del inp, out
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    break
            elif self.rounds >= min_rounds and self.clock.measured_s() >= seconds:
                break

    def round_s(self) -> float:
        return self.clock.round_s()


def environment() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                sha = loose.read_text().strip()
            elif packed.is_file():
                sha = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + name)), "unknown")
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "git_sha": sha, "src_lines": src_lines}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = None if trace else setup_seconds(name, seed)
    ec = import_eigencop()
    import layers
    import workloads

    work = workloads.WORKLOADS[name](ec, seed)
    if not trace:
        ref = Pass(work, layers.no_span, seconds=seconds, min_rounds=work.min_rounds)
    else:  # half the time untraced, the same rounds traced; the difference is the overhead
        ref = Pass(work, layers.no_span, seconds=seconds / 2)
    problems = ref.problems + work.check_once()
    passes = [ref]
    spans = None
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "round_s": ref.round_s(),
            "throughput_per_s": work.work / ref.round_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tracer = layers.Tracer()
        is_cov, is_ver = name == "coverage_quick", name == "verdicts"
        with layers.traced_bank_calls(tracer):
            traced = Pass(work, tracer.span, rounds=ref.rounds, first_round=ref.rounds,
                          keep_last=is_cov or is_ver)
        passes.append(traced)
        problems += traced.problems
        metrics = layers.micro(ec, seed)
        metrics["trace.overhead_pct"] = 100.0 * (traced.round_s() / ref.round_s() - 1.0)

        cov, cov_tracer, cov_pass = work, tracer, traced
        if not is_cov:  # one traced coverage round on the side
            cov, cov_tracer = workloads.CoverageQuick(ec, seed), layers.Tracer()
            with layers.traced_bank_calls(cov_tracer):
                cov_pass = Pass(cov, cov_tracer.span, rounds=1, keep_last=True)
            problems += cov_pass.problems
        metrics.update(layers.coverage_metrics(cov_tracer, cov_pass.rounds))
        metrics["coverage.threads2_s"], found = layers.threads2(cov, cov_pass.last[1])
        problems += found

        ver, ver_tracer, ver_pass = work, tracer, traced
        if not is_ver:  # one traced verdicts round on the side
            ver, ver_tracer = workloads.Verdicts(ec, seed), layers.Tracer()
            ver_pass = Pass(ver, ver_tracer.span, rounds=1, keep_last=True)
            problems += ver_pass.problems
        metrics.update(layers.verdict_metrics(ver_tracer, *ver_pass.last))
        spans = {"workload": tracer.as_json()}
        if cov_tracer is not tracer:
            spans["coverage_quick"] = cov_tracer.as_json()
        if ver_tracer is not tracer:
            spans["verdicts"] = ver_tracer.as_json()

    units = dict((m[0], m[1]) for m in (END_TO_END if not trace else layers.PER_LAYER))
    result = {
        "correct": not problems,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "setup_s": setup,
              "slot_s": [{str(k): v for k, v in p.clock.scaled.items()} for p in passes],
              "slot_raw_s": [{str(k): v for k, v in p.clock.raw.items()} for p in passes],
              "probe_s": [p.clock.probes for p in passes],
              "failed_ops": sorted(set(f for p in passes for f in p.failed)),
              "problems": problems, "result": result, "spans": spans}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict):
    """Human-readable lines; the caller prints the result line last."""
    print("env " + json.dumps(record["env"]))
    for f in record["failed_ops"]:
        print(f"failed (known fault): {f}")
    for p in record["problems"][:20]:
        print(f"PROBLEM: {p}")
    res = record["result"]
    print(f"{record['workload']}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for k, m in res["metrics"].items():
        print(f"  {k:48s} {m['value']:14.6g} {m['unit']}")


def manifest() -> dict:
    import layers
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--manifest", action="store_true",
                    help="print the BENCHMARK.json that describes this benchmark")
    args = ap.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(record)
        print(json.dumps(record["result"]))
        return 0 if record["result"]["correct"] else 1
    # every workload, each in a process of its own; one combined result line
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_WHY:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode not in (0, 1):
            fail(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
