"""Child processes, the working directory and the statistics the workloads share."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median  # noqa: F401  (shared with the workloads)

# A child that runs longer than this is killed and counted as failed, so a
# hung command cannot push a run past its time limit.
CHILD_TIMEOUT_S = 150.0

# Fixed so that set iteration inside the children cannot vary between runs.
CHILD_HASH_SEED = "0"

OUT_DIR = ".perfbench_out"


@dataclass
class ChildResult:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes


class Harness:
    """Owns the working directory, the child environment and the peak RSS.

    Children run with the benchmark's own interpreter, `PYTHONPATH` pointing
    at `src`, a fixed `PYTHONHASHSEED` and no `KISELMAN_CACHE_DIR`: a stray
    cache directory in the caller's environment would turn a cold `enum`
    into a warm one.
    """

    def __init__(self, root: Path, tag: str) -> None:
        self.root = root
        self.out_dir = root / OUT_DIR
        self.workdir = self.out_dir / f"{tag}-{os.getpid()}"
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("PYTHON") and key != "KISELMAN_CACHE_DIR"
        }
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = CHILD_HASH_SEED
        self.child_maxrss_kb = 0

    def __enter__(self) -> "Harness":
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_child(self, argv: list[str]) -> ChildResult:
        """Run one child to completion; wall time includes process start."""
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        return ChildResult(seconds, proc.returncode, out_path.read_bytes(),
                           err_path.read_bytes())

    def run_kiselman(self, argv: list[str]) -> ChildResult:
        return self.run_child([sys.executable, "-m", "kiselman", *argv])

    def setup_in_child(self, workload: str, seed: int) -> float:
        """Set the workload up again in a fresh interpreter; its setup time."""
        script = Path(__file__).resolve().parent / "run.py"
        res = self.run_child([
            sys.executable, str(script), "--workload", workload,
            "--seed", str(seed), "--setup-only",
        ])
        if res.code != 0:
            raise RuntimeError(
                f"setup child failed with code {res.code}: "
                f"{res.stderr.decode(errors='replace')[-2000:]}"
            )
        return json.loads(res.stdout.decode().splitlines()[-1])["setup_s"]

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.child_maxrss_kb) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
