"""Record the benchmark's numbers for the code in the working tree.

    python3 perfbench/baseline.py --commit <id> --out perfbench/baseline.json

Run from the repository root.  For each workload it makes one `--trace 0`
run per seed, one more on a held-out seed, and one `--trace 1` run on the
first seed, one after another.  It writes every metric's median, quartiles
and spread (the distance between the quartiles over the median), and the
readable report's figures, with the machine and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[1:-1]:
        name, value, unit = line.split()
        report[name] = (float(value), unit)
    return {"result": json.loads(lines[-1]), "report": report}


def summary(runs: list[dict], field: str) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        items = (run["result"]["metrics"].items() if field == "metrics"
                 else ((k, {"value": v, "unit": u}) for k, (v, u) in run["report"].items()))
        for name, m in items:
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        mid = statistics.median(vals)
        out[name] = {"unit": units[name], "median": mid, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / mid if mid else None, "values": vals}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--held-out", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "commit": args.commit,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "held_out_seed": args.held_out,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        if args.workloads and name not in args.workloads:
            continue
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        held_out = run_once(name, args.held_out, seconds, 0)
        traced = run_once(name, args.seeds[0], seconds, 1)
        record["workloads"][name] = {
            "why": entry["why"],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "end_to_end": summary(runs, "metrics"),
            "report": summary(runs, "report"),
            "held_out": {k: m["value"] for k, m in held_out["result"]["metrics"].items()},
            "per_layer": {k: m["value"] for k, m in traced["result"]["metrics"].items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: " + ", ".join(
            f"{k} {v['median']:.4g} ({v['spread']:.3f})"
            for k, v in record["workloads"][name]["end_to_end"].items()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
