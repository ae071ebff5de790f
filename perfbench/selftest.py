"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root; takes about half a minute.  It checks that
the fold reference agrees with the package, that every metric named in
BENCHMARK.json is emitted with its unit, that a corrupted output is counted
as failed, that `verify.checks` repeats exactly, and that the benchmark
exits non-zero without printing a result when the package is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from harness import Harness  # noqa: E402
from reference import canonical_reference  # noqa: E402
from workloads import Arith, Cli  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_workloads():
    return [
        Arith(rank=4, words=30, min_len=5, max_len=60, pairs=200),
        Cli(enum_rank=3, rank=3, oneshot_rank=4, oneshots=6, min_passes=1),
    ]


def quiet(fn, *args):
    """Call fn with its report lines swallowed; return the result line."""
    with contextlib.redirect_stdout(io.StringIO()):
        return json.loads(fn(*args))


def timed(workload, harness: Harness, corrupt=None) -> dict:
    args = SimpleNamespace(workload=workload.name, seed=3, seconds=0.1)
    workload.setup(args.seed, harness)
    if corrupt is not None:
        plain = workload.timed

        def corrupted(seconds, h, tally):
            add = tally.add

            def add_corrupted(records):
                if tally.attempted == 0:
                    corrupt(records[0])
                add(records)

            tally.add = add_corrupted
            plain(seconds, h, tally)

        workload.timed = corrupted
    return quiet(run.timed_run, workload, args, harness, 0.5, lambda: 0.5)


def traced(workload, harness: Harness, seed: int = 3) -> dict:
    args = SimpleNamespace(workload=workload.name, seed=seed, seconds=0.1)
    workload.setup(seed, harness)
    return quiet(run.traced_run, workload, args, harness)


def units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def check_metrics(result: dict, wanted: dict[str, str], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{what}: every metric emitted with its unit")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{what}: every value is a number")


def corrupt_output(record) -> None:
    out = record.output
    if isinstance(out, tuple):  # (exit code, stdout) of a command
        record.output = (out[0], out[1] + b"9\n")
    else:  # the Word canonical_form returned: append a letter
        record.output = type(out)(out.letters + out.letters[:1], out.rank)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, per_layer = units(spec["end_to_end"]), units(spec["per_layer"])

    import kiselman
    rng = random.Random(0)
    agree = True
    for _ in range(3000):
        rank = rng.randint(1, 7)
        letters = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 40)))
        agree &= canonical_reference(letters) == kiselman.rewrite.canonical_letters(letters)
    expect(agree, "fold reference agrees with canonical_letters on 3000 words")

    with Harness(ROOT, "selftest") as harness:
        for workload in tiny_workloads():
            result = timed(workload, harness)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload.name}: tiny timed run is correct")
            check_metrics(result, e2e, f"{workload.name} --trace 0")
            expect(all(m["value"] > 0 for m in result["metrics"].values()),
                   f"{workload.name}: end-to-end metrics are non-zero")

            result = traced(workload, harness)
            expect(result["correct"], f"{workload.name}: tiny traced run is correct")
            check_metrics(result, per_layer, f"{workload.name} --trace 1")

        for workload in tiny_workloads():
            result = timed(workload, harness, corrupt=corrupt_output)
            expect(result["failed"] == 1 and not result["correct"],
                   f"{workload.name}: a corrupted output is counted as failed")

        checks = [traced(Cli(enum_rank=3, rank=3, oneshot_rank=4, oneshots=3), harness)
                  ["metrics"]["verify.checks"]["value"] for _ in range(2)]
        expect(checks[0] > 0 and checks[0] == checks[1], "verify.checks repeats exactly")

        bare = harness.workdir / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "arith-r6",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without the package the benchmark fails and prints no result")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
