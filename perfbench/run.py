"""Benchmark of the kiselman package, driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload arith-r6 --seed 1 --seconds 45 --trace 0

With `--trace 0` the workload runs for about `--seconds` and the last line of
stdout is a JSON object holding every end-to-end metric.  With `--trace 1` it
runs one in-process pass with wrappers on the package's public functions
between two untraced ones, and the JSON holds every per-layer metric
instead; the spans go to `.perfbench_out/`.  The lines before the JSON are a readable
report.  Every output is checked outside the timed region; wrong or failed
operations are counted in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from harness import Harness, median
from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS, Tally

def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def _print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:34s} {value:16.6f} {unit}")


def timed_run(workload, args, harness: Harness, setup_s: float, setup_again) -> str:
    setups = [setup_s] + [setup_again() for _ in range(workload.setup_repeats - 1)]
    tally = Tally(workload)
    workload.timed(args.seconds, harness, tally)
    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        **workload.end_to_end(tally.samples),
    }
    report = {
        **workload.report(tally.samples),
        "setup_s": metrics["setup_s"],
        "failed_share": (tally.failed / tally.attempted, "share"),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    _print_table(f"{args.workload} seed={args.seed} ops={tally.attempted} "
                 f"inputs={len(tally.samples)}", report)
    return _result(tally.failed == 0, tally.attempted, tally.failed, metrics)


def traced_run(workload, args, harness: Harness) -> str:
    import kiselman

    tally = Tally(workload)
    # Untraced passes on both sides of the traced one, so that a slow patch
    # of a shared machine shows up less in the overhead.
    before, first = workload.in_process_pass(harness, 0)
    tally.add(first)
    tracer = Tracer()
    tracer.install(kiselman)
    try:
        wall, records = workload.in_process_pass(harness, 1, tracer)
    finally:
        tracer.uninstall()
    tally.add(records)
    after, records = workload.in_process_pass(harness, 2)
    tally.add(records)
    extras = workload.layer_extras(harness, args.seed, first, tally)
    metrics = per_layer_metrics(tracer, wall, (before + after) / 2, extras)
    trace_path = harness.out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
    _print_table(f"{args.workload} seed={args.seed} traced ops={tally.attempted} "
                 f"spans in {trace_path.relative_to(harness.root)}", metrics)
    return _result(tally.failed == 0, tally.attempted, tally.failed, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kiselman" / "__init__.py").is_file():
        print("perfbench: src/kiselman not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("KISELMAN_CACHE_DIR", None)

    workload = WORKLOADS[args.workload]()
    with Harness(root, f"{args.workload}-{args.seed}") as harness:
        start = time.perf_counter()
        workload.setup(args.seed, harness)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            line = traced_run(workload, args, harness)
        else:
            line = timed_run(workload, args, harness, setup_s,
                             lambda: harness.setup_in_child(args.workload, args.seed))
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
