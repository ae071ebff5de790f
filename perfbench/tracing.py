"""Wrappers on the package's public functions, for the traced run.

`Tracer.install` replaces every module-level binding of a public function
of the package, wherever it was imported, with a wrapper: calls from one
layer into another go through those bindings, so `algebra.canonical_letters`,
`enumeration.canonical_letters`, `verify.multiply` and `cli.run_suites` are
all seen.  Each call pushes a frame on a stack, so a call's self time is its
duration minus the time of the wrapped calls made inside it.

Every call is added to a (function, caller) table of count, busy time and
self time.  Only the first SPANS_PER_FUNCTION calls of each function are
also kept as individual spans: the rank-6 closure alone makes about half a
million `canonical_letters` calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("words", "rewrite", "algebra", "enumeration", "equations", "verify", "cli")
SPANS_PER_FUNCTION = 2000
CLI_COMMANDS = ("canon", "mul", "enum", "solve", "verify", "stats")
SUITES = (
    "cardinality", "confluence", "idempotents", "content", "antiautomorphism",
    "word_bounds", "prefix_stability", "prefix_recovery", "zero_cancellation",
    "solution_structure", "prefix_bijection", "parity",
)
CLOSURES = ("enumeration.enumerate_elements", "enumeration.generated_submonoid")
SOLVERS = ("equations.solve_right_zero", "equations.solve_left_zero")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list = []
        self.calls: dict[tuple[str, str | None], list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.recorded: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None, operation: bool = False):
        """A wrapper that times fn as `name`; `operation` starts a new op id."""
        stack, spans, calls, recorded = self.stack, self.spans, self.calls, self.recorded
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if operation:
                tracer.op += 1
            parent = stack[-1] if stack else None
            span_id = -1
            if recorded[name] < SPANS_PER_FUNCTION:
                recorded[name] += 1
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                parent_name = None
                parent_span = -1
                if parent is not None:
                    parent[1] += duration
                    parent_name = parent[0]
                    parent_span = parent[2]
                entry = calls.get((name, parent_name))
                if entry is None:
                    entry = calls[(name, parent_name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                if span_id >= 0:
                    spans[span_id] = (name, start, end, parent_span, tracer.op)
            if observe is not None:
                observe(tracer.counters, args, result, duration, own)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer at every binding."""
        observers = _observers(package)
        targets: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            names = ["main"] if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    targets[id(fn)] = (fn, self.wrap(name, fn, observers.get(name)))
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
            "call_fields": ["name", "caller", "count", "busy_s", "self_s"],
            "calls": [[n, p, *e] for (n, p), e in sorted(
                self.calls.items(), key=lambda kv: -kv[1][1])],
        }
        path.write_text(json.dumps(payload))

    def count(self, name: str, callers=None) -> int:
        return sum(e[0] for (n, p), e in self.calls.items()
                   if n == name and (callers is None or p in callers))

    def busy(self, name: str) -> float:
        return sum(e[1] for (n, _), e in self.calls.items() if n == name)

    def self_by_layer(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for (n, _), e in self.calls.items():
            out[n.split(".", 1)[0]] += e[2]
        return out


def _observers(package) -> dict:
    cache_path = package.enumeration.cache_path

    def canonical(c, args, result, duration, own):
        c["letters_in"] += len(args[0])
        c["letters_out"] += len(result)

    def closure(c, args, result, duration, own):
        c["closure_rounds"] += result.frontier_rounds
        c["closure_new"] += result.cardinality - 1

    def submonoid(c, args, result, duration, own):
        c["closure_new"] += len(result) - 1

    def write_cache(c, args, result, duration, own):
        c["cache_bytes"] += result.stat().st_size

    def read_cache(c, args, result, duration, own):
        if result is not None:
            c["cache_bytes"] += cache_path(args[0], args[1]).stat().st_size

    def cancellation(c, args, result, duration, own):
        c["cancellation_pairs"] += result.checked_pairs

    def run_suites(c, args, result, duration, own):
        c["verify_checks"] += sum(s["checks"] for s in result["suites"])

    def main(c, args, result, duration, own):
        command = args[0][0] if args and args[0] else "?"
        c[f"cli.main_s.{command}"] += duration
        c[f"cli.self_s.{command}"] += own

    return {
        "rewrite.canonical_letters": canonical,
        "enumeration.enumerate_elements": closure,
        "enumeration.generated_submonoid": submonoid,
        "enumeration.write_cache": write_cache,
        "enumeration.read_cache": read_cache,
        "equations.verify_zero_cancellation": cancellation,
        "verify.run_suites": run_suites,
        "cli.main": main,
    }


def per_layer_metrics(t: Tracer, wall: float, untraced: float,
                      extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; layers a workload does not reach read 0."""
    c = t.counters
    selfs = t.self_by_layer()
    library_self = sum(selfs[layer] for layer in LAYERS)
    products = t.count("rewrite.canonical_letters", CLOSURES)
    letters_in = c["letters_in"]
    mul_rewrite = sum(e[1] for (n, p), e in t.calls.items()
                      if p == "algebra.multiply" and n.startswith("rewrite."))
    m: dict[str, tuple[float, str]] = {
        "rewrite.canonical_calls": (t.count("rewrite.canonical_letters"), "count"),
        "rewrite.canonical_busy_s": (t.busy("rewrite.canonical_letters"), "s"),
        "rewrite.letters_in": (letters_in, "count"),
        "rewrite.deleted_share": (
            (letters_in - c["letters_out"]) / letters_in if letters_in else 0.0, "share"),
        "rewrite.trace_busy_s": (t.busy("rewrite.reduction_trace"), "s"),
        "rewrite.normal_forms_calls": (t.count("rewrite.all_normal_forms"), "count"),
        "rewrite.normal_forms_busy_s": (t.busy("rewrite.all_normal_forms"), "s"),
        "words.is_canonical_calls": (t.count("words.is_canonical"), "count"),
        "words.is_canonical_busy_s": (t.busy("words.is_canonical"), "s"),
        "words.parse_busy_s": (t.busy("words.parse_word"), "s"),
        "algebra.multiply_calls": (t.count("algebra.multiply"), "count"),
        "algebra.multiply_busy_s": (t.busy("algebra.multiply"), "s"),
        "algebra.multiply_self_s": (t.busy("algebra.multiply") - mul_rewrite, "s"),
        "algebra.zero_threshold_calls": (t.count("algebra.zero_threshold"), "count"),
        "algebra.zero_threshold_busy_s": (t.busy("algebra.zero_threshold"), "s"),
        "algebra.antiautomorphism_busy_s": (t.busy("algebra.antiautomorphism"), "s"),
        "enumeration.closure_busy_s": (sum(t.busy(n) for n in CLOSURES), "s"),
        "enumeration.closure_products": (products, "count"),
        "enumeration.closure_rounds": (c["closure_rounds"], "count"),
        "enumeration.closure_yield": (
            c["closure_new"] / products if products else 0.0, "share"),
        "enumeration.cache_write_busy_s": (t.busy("enumeration.write_cache"), "s"),
        "enumeration.cache_read_busy_s": (t.busy("enumeration.read_cache"), "s"),
        "enumeration.cache_bytes": (c["cache_bytes"], "bytes"),
        "enumeration.direct_busy_s": (t.busy("enumeration.enumerate_canonical_words"), "s"),
        "enumeration.parity_busy_s": (t.busy("enumeration.parity_report"), "s"),
        "equations.solve_busy_s": (sum(t.busy(n) for n in SOLVERS), "s"),
        "equations.solve_scanned": (t.count("algebra.multiply", SOLVERS), "count"),
        "equations.construct_busy_s": (
            t.busy("equations.construct_right_zero_solutions"), "s"),
        "equations.cancellation_busy_s": (
            t.busy("equations.verify_zero_cancellation"), "s"),
        "equations.cancellation_pairs": (c["cancellation_pairs"], "count"),
        "verify.context_s": (extra.get("verify.context_s", 0.0), "s"),
        "verify.checks": (c["verify_checks"], "count"),
    }
    for suite in SUITES:
        name = f"verify.suite.{suite}_s"
        m[name] = (extra.get(name, 0.0), "s")
    for command in CLI_COMMANDS:
        m[f"cli.main_s.{command}"] = (c[f"cli.main_s.{command}"], "s")
        m[f"cli.self_s.{command}"] = (c[f"cli.self_s.{command}"], "s")
    m["cli.startup_ms"] = (extra.get("cli.startup_ms", 0.0), "ms")
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (selfs[layer], "s")
    m["bench.self_s"] = (wall - library_self, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_s"] = (untraced, "s")
    m["trace.overhead_share"] = (wall / untraced - 1.0, "share")
    m["trace.attributed_share"] = (library_self / wall, "share")
    return m
