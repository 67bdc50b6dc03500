#!/usr/bin/env python3
"""Benchmark of the twohop command line: one process, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed makes a fixed pool of scenario
files and flags (see workloads.py); the benchmark calls the public entry
point ``twohop.cli.main(argv)`` in-process on them, one op after the
other, in whole passes over the pool until ``--seconds`` have gone by, so
that every op runs equally often.  A run makes at least two passes, so that
each op's median and the tail have the same sample size whether one pass
takes more or less than ``--seconds`` on the host.
Every output value is then checked against an independent reference
(reference.py, check.py) outside the timed region; reference values are
cached per generated op under ``.bench_run/refcache``.

--trace 0 prints the end-to-end metrics: a table of all of them, then as
the last line a JSON object with the metrics named in BENCHMARK.json.
--trace 1 runs one pass untraced and one pass with every twohop module
wrapped (tracing.py), and prints the per-layer metrics; their counts repeat
exactly for a fixed seed.

A failed op (nonzero exit, NaN, or a value outside the reference check)
counts as missing every latency limit: it enters the percentiles as +inf
and adds no verified points.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from workloads import RATIONALE, WORKLOADS, generate, setup_op  # noqa: E402

SETUP_REPEATS = 3
REFERENCE_TIMEOUT_S = 150
WORK = ROOT / ".bench_run"

# The end-to-end metrics of the final JSON line (BENCHMARK.json "end_to_end").
# points_per_s is ser_points_per_s or cdf_points_per_s, whichever the
# workload produces, so that every workload reports every metric.  op_s_p50
# is printed but not gated: points_per_s already moves with the typical op,
# and op_s_tail with the slow ones.
CONTRACT = ("op_s_tail", "points_per_s", "peak_rss_mb", "setup_s")

_SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from twohop.cli import main
main(sys.argv[2:])
print(time.perf_counter() - started)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(scenario: Path, op, out: Path) -> list[float]:
    """Fresh-interpreter times of ``import twohop`` plus the fixed warm-up op."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC),
             *op.argv(str(scenario)), "--out", str(out)],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_op(main, op, scenario: Path, out: Path) -> tuple[float, int, str]:
    """Time one CLI call; returns (seconds, exit code, output text)."""
    argv = [*op.argv(str(scenario)), "--out", str(out)]
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op with an exit code of its own
        code = -1
    elapsed = time.perf_counter() - started
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    return elapsed, code, text


def run_pass(main, pool, paths, out: Path) -> list:
    """One pass over the pool: [(op, seconds, exit code, output text)]."""
    return [(op, *run_op(main, op, paths[op.name], out)) for op in pool]


def run_for(main, pool, paths, out: Path, seconds: float) -> list:
    """Whole passes over the pool until ``seconds`` have gone by (at least two)."""
    records = []
    started = time.perf_counter()
    while len(records) < 2 * len(pool) or time.perf_counter() - started < seconds:
        records += run_pass(main, pool, paths, out)
    return records


def references(pool, claims: Path) -> dict:
    """Reference values per op: cached, or computed by worker processes.

    Each worker is a plain interpreter running check.py over the missing
    ops, taking one at a time by creating its claim file in ``claims``.
    Every worker is waited for (and killed first on an error), so no
    process outlives the benchmark.
    """
    cache = WORK / "refcache"
    cache.mkdir(parents=True, exist_ok=True)
    missing = [op for op in pool if check.cached(op, cache) is None]
    workers = min(2, os.cpu_count() or 1, len(missing))
    procs = []
    try:
        for _ in range(workers):
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "check.py"), str(cache), str(claims)],
                stdin=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(pickle.dumps(missing))
            proc.stdin.close()
        for proc in procs:
            if proc.wait(timeout=REFERENCE_TIMEOUT_S) != 0:
                raise RuntimeError(f"reference worker exited with {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return {op.name: check.cached(op, cache) for op in pool}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, records, verdicts, setup, peak_rss_kb: int) -> dict:
    """All nine end-to-end metrics: {name: (value, unit, note)}.

    Each op of the pool counts once, at the median of its executions, so
    that a run is the same mix of work whatever its length; a slow spell
    on a shared machine then moves one execution rather than the metric.
    The tail is taken over all executions; every op runs equally often.
    """
    per_op: dict = {}
    for (op, seconds, _, _), v in zip(records, verdicts):
        per_op.setdefault(op.name, (op, [], []))[1].append(seconds)
        per_op[op.name][2].append(v)
    medians = {name: statistics.median(ts) for name, (_, ts, _) in per_op.items()}
    busy = sum(medians.values())
    failed_ops = {name for name, (_, _, vs) in per_op.items() if any(v.failure for v in vs)}
    verified = sum(vs[0].verified for name, (_, _, vs) in per_op.items()
                   if name not in failed_ops)
    is_cdf = workload == "cdf-mc"
    # Equivalent-SNR samples: one set per CDF op, one per sweep point otherwise.
    samples = sum(op.samples * (1 if is_cdf else len(op.hop2_db))
                  for name, (op, _, _) in per_op.items() if name not in failed_ops)
    op_times = [math.inf if name in failed_ops else t for name, t in medians.items()]
    runs = [math.inf if v.failure else t for (_, t, _, _), v in zip(records, verdicts)]
    value, pct = tail(runs)
    failed = sum(1 for v in verdicts if v.failure)
    na = "not produced by this workload"
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)}: import twohop + the fixed warm-up op"),
        "op_s_p50": (statistics.median(op_times), "s",
                     f"median over {len(op_times)} ops of each op's median time"),
        "op_s_tail": (value, "s", f"p{pct:.1f} over {len(runs)} executions"),
        "ser_points_per_s": (0.0 if is_cdf else verified / busy, "1/s",
                             na if is_cdf else f"{verified} verified SER values per pass"),
        "cdf_points_per_s": (verified / busy if is_cdf else 0.0, "1/s",
                             f"{verified} verified CDF values per pass" if is_cdf else na),
        "mc_samples_per_s": (samples / busy, "1/s",
                             f"{samples} equivalent-SNR samples per pass" if samples else na),
        "failed_frac": (failed / len(records), "ratio",
                        f"{failed} of {len(records)} executions"),
        "max_err_over_tol": (max((v.worst_err_over_tol for v in verdicts), default=0.0),
                             "ratio", "closed-form values reported converged"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB",
                        "workload process, before the reference checks"),
    }


def report_checks(pool, refs, records, verdicts) -> None:
    methods = [refs[op.name]["method"] for op in pool]
    print(f"  checked against: closed form for {methods.count('closed-form')} ops, "
          f"Monte-Carlo oracle for {methods.count('monte-carlo')} ops")
    seen = set()
    for (op, _, _, _), v in zip(records, verdicts):
        if v.failure and op.name not in seen:
            seen.add(op.name)
            print(f"  failed {op.name} [{v.failure}]: {v.detail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twohop" / "__init__.py").is_file():
        print(f"bench: no twohop sources under {SRC}", file=sys.stderr)
        return 2
    threads = min(2, os.cpu_count() or 1)
    pool = generate(args.workload, args.seed, threads)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for op in pool:
            paths[op.name] = run_dir / f"{op.name}.scenario"
            paths[op.name].write_text(op.scenario, encoding="utf-8")
        out = run_dir / "out.csv"
        warm = setup_op(args.workload, threads)
        warm_path = run_dir / "setup.scenario"
        warm_path.write_text(warm.scenario, encoding="utf-8")
        setup = [] if args.trace else measure_setup(warm_path, warm, out)

        sys.path.insert(0, str(SRC))
        from twohop import cli
        run_op(cli.main, warm, warm_path, out)

        print(f"twohop benchmark: workload {args.workload}, seed {args.seed}, "
              f"{len(pool)} distinct ops")
        print(f"  why: {RATIONALE[args.workload]}")
        if args.trace:
            return traced(cli, pool, paths, out, run_dir)

        records = run_for(cli.main, pool, paths, out, args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        refs = references(pool, run_dir)
        verdicts = [check.verdict(op, code, text, refs[op.name])
                    for op, _, code, text in records]
        metrics = end_to_end(args.workload, records, verdicts, setup, peak_rss_kb)
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<18} {value:>14.6g} {unit:<5}  {note}")
        report_checks(pool, refs, records, verdicts)
        failed = sum(1 for v in verdicts if v.failure)
        metrics["points_per_s"] = (metrics["ser_points_per_s"][0]
                                   + metrics["cdf_points_per_s"][0], "1/s", "")
        # A percentile that falls on a failed op is +inf: JSON has no such
        # number, so it is written as null (and "correct" is false).
        result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
                  "metrics": {k: {"value": metrics[k][0] if math.isfinite(metrics[k][0])
                                  else None, "unit": metrics[k][1]}
                              for k in CONTRACT}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def traced(cli, pool, paths, out, claims: Path) -> int:
    import tracing  # imports twohop, so only after the untraced set-up

    plain = run_pass(cli.main, pool, paths, out)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run_pass(cli.main, pool, paths, out)
    finally:
        tracer.uninstall()
    refs = references(pool, claims)
    verdicts = [check.verdict(op, code, text, refs[op.name]) for op, _, code, text in records]
    metrics = tracer.metrics()
    untraced = sum(t for _, t, _, _ in plain)
    traced_s = sum(t for _, t, _, _ in records)
    metrics["trace.overhead_s"] = traced_s - untraced
    metrics["trace.overhead_frac"] = (traced_s - untraced) / untraced
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g}")
    report_checks(pool, refs, records, verdicts)
    failed = sum(1 for v in verdicts if v.failure)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": tracing.UNITS[k][0]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
