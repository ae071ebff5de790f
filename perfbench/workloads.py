"""The benchmark workloads: seeded inputs, timed passes and output checks.

Both are closed loops with one client: each operation starts only
after the previous one has ended.  A workload sorts its operations into
two classes, heavy and light, and every workload reports the same
end-to-end metrics over them (see README.md for what each class holds).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import shutil
import time
from dataclasses import dataclass

from harness import Harness, median, percentile
from reference import CanonicalChecker, canonical_reference, parse_text_word
from tracing import SUITES


@dataclass
class Record:
    """One timed operation and its output, checked after the timed region."""

    label: str
    key: int
    seconds: float
    output: object
    pass_index: int


def _import_package():
    importlib.import_module("kiselman.cli")
    return importlib.import_module("kiselman")


def _deadline_passes(run_pass, seconds: float, min_passes: int) -> float:
    """Run passes until the next one would end well past `seconds`."""
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < min_passes or (
        time.perf_counter() - start + median(durations) / 2 < seconds
    ):
        t0 = time.perf_counter()
        run_pass(len(durations))
        durations.append(time.perf_counter() - t0)
    return start


Samples = dict[tuple[str, int], list[float]]


class Tally:
    """Times per input, and operations attempted and failed, over a run.

    Each pass is checked and folded in as soon as it ends; only the times
    of a pass are kept, not its outputs.
    """

    def __init__(self, workload: "Workload") -> None:
        self.check = workload.check
        self.samples: Samples = {}
        self.attempted = 0
        self.failed = 0

    def add(self, records: list[Record]) -> None:
        for r in records:
            self.samples.setdefault((r.label, r.key), []).append(r.seconds)
            self.attempted += 1
            try:
                ok = self.check(r)
            except Exception:  # a malformed output is a failed operation
                ok = False
            self.failed += not ok


class Workload:
    name = ""
    heavy: tuple[str, ...] = ()
    min_passes = 2
    # Set-up runs this many times per run, all but the first in a fresh
    # interpreter so that tables built at import or on first use are paid
    # again; the median is reported.
    setup_repeats = 3

    def end_to_end(self, samples: Samples) -> dict[str, tuple[float, str]]:
        """The metrics every workload reports, over its heavy and light ops.

        `heavy_s` is the sum, over the heavy operations, of each one's median
        time over the passes of the run.  `light_p50_ms` is the median of
        every time of every light operation.  The host's speed drifts by 15
        to 40 % over seconds to minutes; a median over a whole run follows
        that drift less than a fastest time or a tail does.
        """
        heavy = [median(times) for (label, _), times in samples.items()
                 if label in self.heavy]
        light = [t for (label, _), times in samples.items()
                 if label not in self.heavy for t in times]
        return {
            "heavy_s": (sum(heavy), "s"),
            "light_p50_ms": (median(light) * 1e3, "ms"),
        }

    def layer_extras(self, harness: Harness, seed: int, first: list[Record],
                     tally: Tally) -> dict[str, float]:
        return {}


class Arith(Workload):
    """In-process `canonical_form` on random words, then `multiply` on pairs."""

    name = "arith-r6"
    heavy = ("canon",)

    def __init__(self, rank: int = 6, words: int = 1000, min_len: int = 10,
                 max_len: int = 1000, pairs: int = 20000) -> None:
        self.rank = rank
        self.n_words = words
        self.min_len = min_len
        self.max_len = max_len
        self.n_pairs = pairs

    def setup(self, seed: int, harness: Harness) -> None:
        k = self.kiselman = _import_package()
        rng = random.Random(seed)
        rank = self.rank
        self.words = []
        for i in range(self.n_words):
            # Stratified log-uniform lengths: every seed covers the whole range.
            u = (i + rng.random()) / self.n_words
            length = round(self.min_len * (self.max_len / self.min_len) ** u)
            if i % 2 == 0:
                alphabet = list(range(1, rank + 1))
            else:
                alphabet = sorted(rng.sample(range(1, rank + 1), rng.randint(2, max(2, rank - 1))))
            self.words.append(k.Word(tuple(rng.choice(alphabet) for _ in range(length)), rank))
        rng.shuffle(self.words)
        universe = sorted(k.enumerate_canonical_words(rank), key=lambda w: (len(w), w.letters))
        elements = {}
        self.pairs = []
        for _ in range(self.n_pairs):
            x, y = rng.choice(universe), rng.choice(universe)
            for w in (x, y):
                if w not in elements:
                    elements[w] = k.Element(w)
            self.pairs.append((elements[x], elements[y]))
        self.letters = sum(len(w) for w in self.words)
        self.canon_ref = [canonical_reference(w.letters) for w in self.words]
        self.mul_ref = [canonical_reference(x.word.letters + y.word.letters)
                        for x, y in self.pairs]
        self.checker = CanonicalChecker(k, rank)
        for w in sorted(self.words, key=len)[:20]:
            k.canonical_form(w)
        for x, y in self.pairs[:200]:
            k.multiply(x, y)

    def _pass(self, pass_index: int, tracer=None) -> list[Record]:
        canon = self.kiselman.rewrite.canonical_form
        mul = self.kiselman.algebra.multiply
        if tracer is not None:
            canon = tracer.wrap("bench.canon", canon, operation=True)
            mul = tracer.wrap("bench.mul", mul, operation=True)
        clock = time.perf_counter
        records = []
        # The multiplies run in slices between the words, so that both
        # kinds sample the host's speed over the whole pass.
        per_word = -(-len(self.pairs) // len(self.words))
        for i, w in enumerate(self.words):
            t0 = clock()
            try:
                out = canon(w)
            except Exception as exc:
                out = exc
            records.append(Record("canon", i, clock() - t0, out, pass_index))
            for j in range(i * per_word, min((i + 1) * per_word, len(self.pairs))):
                x, y = self.pairs[j]
                t0 = clock()
                try:
                    out = mul(x, y)
                except Exception as exc:
                    out = exc
                records.append(Record("mul", j, clock() - t0, out, pass_index))
        return records

    def timed(self, seconds: float, harness: Harness, tally: Tally) -> None:
        _deadline_passes(lambda p: tally.add(self._pass(p)), seconds, self.min_passes)

    def in_process_pass(self, harness: Harness, pass_index: int, tracer=None):
        start = time.perf_counter()
        records = self._pass(pass_index, tracer)
        return time.perf_counter() - start, records

    def check(self, r: Record) -> bool:
        if r.label == "canon":
            return self.checker.ok(self.words[r.key].letters, r.output.letters,
                                   self.canon_ref[r.key])
        x, y = self.pairs[r.key]
        return self.checker.ok(x.word.letters + y.word.letters, r.output.word.letters,
                               self.mul_ref[r.key])

    def report(self, samples: Samples) -> dict[str, tuple[float, str]]:
        canon = [median(t) for (label, _), t in samples.items() if label == "canon"]
        mul = [median(t) for (label, _), t in samples.items() if label == "mul"]
        return {
            "canon_letters_per_s": (self.letters / sum(canon), "1/s"),
            "canon_p50_ms": (median(canon) * 1e3, "ms"),
            "canon_p99_ms": (percentile(canon, 0.99) * 1e3, "ms"),
            "mul_per_s": (len(mul) / sum(mul), "1/s"),
            "mul_p99_us": (percentile(mul, 0.99) * 1e6, "us"),
        }


@dataclass
class Step:
    label: str
    key: int
    argv: tuple[str, ...]
    fresh_dir: str | None = None  # emptied before the step, outside its timing


class Cli(Workload):
    """The `kiselman` CLI as a user runs it, one child process per command.

    A pass runs `enum --n 6 --format csv` into an empty cache (cold) and
    twice from the filled cache (warm), then rank-5 `stats`, `solve` and
    `verify`.  The seeded one-shot rank-6 `canon`, `mul` and `canon --trace`
    calls are spread between those commands, so that they sample the whole
    pass.  The traced run makes the same calls in-process through
    `kiselman.cli.main`.
    """

    name = "cli"
    heavy = ("cold", "warm", "stats", "solve", "verify")

    def __init__(self, enum_rank: int = 6, rank: int = 5, oneshot_rank: int = 6,
                 oneshots: int = 17, min_passes: int = 2) -> None:
        self.enum_rank = enum_rank
        self.rank = rank
        self.oneshot_rank = oneshot_rank
        self.n_oneshots = oneshots
        self.min_passes = min_passes

    def setup(self, seed: int, harness: Harness) -> None:
        k = self.kiselman = _import_package()
        self.seed = seed
        self.workdir = harness.workdir
        words = sorted((w.letters for w in k.enumerate_canonical_words(self.enum_rank)),
                       key=lambda letters: (len(letters), letters))
        lines = ["index,length,word"]
        lines.extend(f"{i},{len(w)},{' '.join(map(str, w))}" for i, w in enumerate(words))
        self.expected_enum = ("\n".join(lines) + "\n").encode()
        self.cache_header = f"kiselman-cache v1 n={self.enum_rank} count={len(words)}"
        self.cardinality = len(k.enumerate_canonical_words(self.rank))
        self.one_down = len(k.enumerate_canonical_words(self.rank - 1))
        self.checker = CanonicalChecker(k, self.oneshot_rank)
        rng = random.Random(seed)
        alphabet = range(1, self.oneshot_rank + 1)
        self.oneshots = []
        for i in range(self.n_oneshots):
            if i % 3 == 1:
                parts = tuple(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                              for _ in range(2))
            else:
                parts = (tuple(rng.choice(alphabet) for _ in range(rng.randint(3, 12))),)
            source = sum(parts, ())
            self.oneshots.append((parts, source, canonical_reference(source)))
        warm_up = harness.run_kiselman(["enum", "--n", "2", "--format", "csv"])
        if warm_up.code != 0:
            raise RuntimeError(f"warm-up enum failed: {warm_up.stderr.decode(errors='replace')}")

    def oneshot_steps(self) -> list[Step]:
        n = str(self.oneshot_rank)
        steps = []
        for key in range(self.n_oneshots):
            texts = tuple(" ".join(map(str, p)) for p in self.oneshots[key][0])
            if key % 3 == 0:
                steps.append(Step("canon", key, ("canon", "--n", n, *texts)))
            elif key % 3 == 1:
                steps.append(Step("mul", key, ("mul", "--n", n, *texts)))
            else:
                steps.append(Step("trace", key, ("canon", "--n", n, "--trace", *texts)))
        return steps

    def pass_steps(self, pass_index: int) -> list[Step]:
        cache = f"cache-{pass_index}"
        enum = ("enum", "--n", str(self.enum_rank), "--format", "csv",
                "--cache-dir", "{work}/" + cache)
        common = ("--n", str(self.rank), "--format", "json", "--seed", str(self.seed))
        heavy = [
            Step("cold", 0, enum, fresh_dir=cache),
            Step("warm", 0, enum),
            Step("warm", 0, enum),
            Step("stats", 0, ("stats", *common)),
            Step("solve", 0, ("solve", "--y", "1", *common)),
            Step("verify", 0, ("verify", *common)),
        ]
        light = self.oneshot_steps()
        steps = []
        for i, step in enumerate(heavy):
            steps.append(step)
            steps.extend(light[i::len(heavy)])
        return steps

    def _run_step(self, step: Step, pass_index: int, harness: Harness,
                  in_process: bool, tracer=None) -> Record:
        if step.fresh_dir is not None:
            path = harness.workdir / step.fresh_dir
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
        argv = [a.replace("{work}", str(harness.workdir)) for a in step.argv]
        if not in_process:
            res = harness.run_kiselman(argv)
            return Record(step.label, step.key, res.seconds, (res.code, res.stdout), pass_index)
        main = self.kiselman.cli.main
        if tracer is not None:
            main = tracer.wrap(f"bench.{step.label}", main, operation=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception:
                code = -1
            seconds = time.perf_counter() - t0
        return Record(step.label, step.key, seconds, (code, out.getvalue().encode()), pass_index)

    def timed(self, seconds: float, harness: Harness, tally: Tally) -> None:
        """Whole passes, then one-shots alone until the time is up."""
        def run_pass(p: int) -> None:
            tally.add([self._run_step(step, p, harness, in_process=False)
                       for step in self.pass_steps(p)])

        start = _deadline_passes(run_pass, seconds, self.min_passes)
        for step in itertools.cycle(self.oneshot_steps()):
            if time.perf_counter() - start >= seconds:
                break
            tally.add([self._run_step(step, 0, harness, in_process=False)])

    def in_process_pass(self, harness: Harness, pass_index: int, tracer=None):
        start = time.perf_counter()
        records = [self._run_step(step, pass_index, harness, True, tracer)
                   for step in self.pass_steps(pass_index)]
        return time.perf_counter() - start, records

    def layer_extras(self, harness: Harness, seed: int, first: list[Record],
                     tally: Tally) -> dict[str, float]:
        """The `verify` suites one by one, and `cli.startup_ms`.

        `cli.startup_ms` is child wall time minus in-process `cli.main` time,
        over the one-shots of the first pass, which `first` holds as run
        in-process and untraced.
        """
        verify = self.kiselman.verify

        def run(names: list[str]) -> float:
            t0 = time.perf_counter()
            verify.run_suites(self.rank, seed=seed, names=names)
            return time.perf_counter() - t0

        context = median([run([]) for _ in range(5)])
        extras = {"verify.context_s": context}
        for name in verify.SUITE_NAMES:
            extras[f"verify.suite.{name}_s"] = run([name]) - context
        children = [self._run_step(s, 0, harness, in_process=False)
                    for s in self.oneshot_steps()]
        tally.add(children)
        inner = [r.seconds for r in first if r.label not in self.heavy]
        extras["cli.startup_ms"] = (median([r.seconds for r in children])
                                    - median(inner)) * 1e3
        return extras

    def check(self, r: Record) -> bool:
        code, stdout = r.output
        if code != 0:
            return False
        if r.label in ("cold", "warm"):
            if stdout != self.expected_enum:
                return False
            if r.label == "cold":
                cache = self.workdir / f"cache-{r.pass_index}" / f"k{self.enum_rank}.cache"
                with open(cache, encoding="ascii") as f:
                    return f.readline().rstrip("\n") == self.cache_header
            return True
        text = stdout.decode()
        if r.label == "stats":
            doc = json.loads(text)
            return (doc["cardinality"] == self.cardinality
                    and doc["idempotents"] == 2 ** self.rank
                    and sum(doc["zero_threshold_histogram"].values()) == self.cardinality)
        if r.label == "solve":
            doc = json.loads(text)
            special = " ".join(str(i) for i in range(self.rank, 1, -1))
            return (doc["count"] == 1 + self.one_down
                    and len(set(doc["solutions"])) == doc["count"]
                    and doc["decomposition"]["special"] == special
                    and len(doc["decomposition"]["t"]) == self.one_down)
        if r.label == "verify":
            doc = json.loads(text)
            return (doc["all_passed"] is True and doc["aborted"] is False
                    and [suite["name"] for suite in doc["suites"]] == list(SUITES))
        _, source, ref = self.oneshots[r.key]
        lines = text.splitlines()
        if r.label == "trace":
            prefix = "canonical: "
            if not lines[-1].startswith(prefix):
                return False
            result = parse_text_word(lines[-1][len(prefix):])
            if len(lines) - 1 != len(source) - len(result):
                return False
        else:
            if len(lines) != 1:
                return False
            result = parse_text_word(lines[0])
        return self.checker.ok(source, result, ref)

    def report(self, samples: Samples) -> dict[str, tuple[float, str]]:
        light = [t for (label, _), times in samples.items()
                 if label not in self.heavy for t in times]
        return {
            "enum_cold_s": (median(samples[("cold", 0)]), "s"),
            "enum_warm_s": (median(samples[("warm", 0)]), "s"),
            "stats_s": (median(samples[("stats", 0)]), "s"),
            "solve_s": (median(samples[("solve", 0)]), "s"),
            "verify_s": (median(samples[("verify", 0)]), "s"),
            "oneshot_p50_ms": (median(light) * 1e3, "ms"),
            "oneshot_p90_ms": (percentile(light, 0.90) * 1e3, "ms"),
        }


WORKLOADS = {w.name: w for w in (Arith, Cli)}
