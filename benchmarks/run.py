"""Benchmark of the relabel pipeline, one workload per process.

    python3 benchmarks/run.py --workload noise-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): noise-sweep, scaled-scene,
solve-replay.  The run sets up, warms up, then repeats the workload's timed
window until --seconds of timed work have accrued, checking every result
outside the timed code.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half traced, reports the per-layer metrics and the
tracing overhead, and writes the spans to .bench_out/.

A table of every metric with its unit and sample count goes to standard
output, and the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The run exits 2 when the package source is
missing from src/.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def locate_package() -> None:
    """Put the checkout's src/ first on the import path, or exit 2."""
    src = ROOT / "src"
    if not (src / "relabel" / "__init__.py").is_file():
        print(f"benchmark: no package source at {src / 'relabel'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(section: dict, setup_s: float) -> list[tuple]:
    """(name, value, unit, samples) for every end-to-end metric.

    Each window yields its throughput and its p50 and p90 stop latency.
    The run reports the throughput that three quarters of its windows
    reach and the latencies that three quarters of its windows stay
    under.  On a shared host, spells of spare capacity make some windows
    faster than the steady state; these quantiles keep such spells out and
    were steadier from run to run than whole-run figures or medians."""
    windows = section["windows"]
    rates = [stops / elapsed for stops, elapsed, _ in windows]
    p50 = [percentile(lat, 0.5) / 1e6 for *_, lat in windows]
    p90 = [percentile(lat, 0.9) / 1e6 for *_, lat in windows]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = f"{len(windows)} windows, {section['stops']} stops"
    return [
        ("setup_s", setup_s, "s", f"{SETUP_REPEATS} set-ups"),
        ("stops_per_s", percentile(rates, 0.25), "1/s", samples),
        ("stop_ms_p50", percentile(p50, 0.75), "ms", samples),
        ("stop_ms_p90", percentile(p90, 0.75), "ms", samples),
        ("peak_rss_mb", peak_kb / 1024.0, "MB", "1 process"),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    for var in THREAD_POOLS:  # one thread, set before numpy is imported
        os.environ[var] = "1"
    locate_package()
    import layers
    import verify
    import workloads
    from relabel import solver
    from spans import Patches, write_spans

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _START

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    checker = verify.Checker(solver)
    patches = Patches()
    workload.install(patches)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.build(args.seed)
            builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.warm_up(inputs, args.seed, checker)
        setup_s = import_s + statistics.median(builds) + time.perf_counter() - start

        if args.trace:
            untraced = workloads.measure(workload, inputs, args.seconds / 2, checker)
            traced, spans, timed_from = layers.traced_run(
                workload, inputs, args.seed, args.seconds / 2, checker, patches
            )
            metrics = layers.per_layer(spans, timed_from, traced, untraced)
            write_spans(spans, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            section = workloads.measure(workload, inputs, args.seconds, checker)
            metrics = end_to_end(section, setup_s)
    finally:
        patches.restore()

    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{'metric':36} {'value':>14} {'unit':6} samples")
    for name, value, unit, samples in metrics:
        print(f"{name:36} {value:14.6g} {unit:6} {samples}")
    print(f"{'failed_frac':36} {failed_frac:14.6g} {'1':6} {checker.attempted} checked stops")
    for reason, count in sorted(checker.reasons.items()):
        print(f"failed check: {reason} ({count})")
    report = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
