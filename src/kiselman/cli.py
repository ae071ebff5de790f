"""Command line interface.

Commands: canon, mul, enum, solve, verify, stats.  Exit codes: 0 ok,
2 usage or validation, 3 resource cap, 4 correctness failure.  Output
for a given (command, flags, seed) is byte-identical across runs, and
error paths write to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .algebra import display, from_word, multiply, sort_key
from .enumeration import (
    DEFAULT_ELEMENT_LIMIT,
    MAX_DEFAULT_RANK,
    Semigroup,
    write_cache,
)
from .equations import solve_right_zero
from .errors import (
    DomainError,
    InvariantError,
    ResourceLimitError,
    ValidationError,
)
from .rewrite import canonical_form, reduction_trace
from .verify import SUITE_NAMES, run_suites
from .words import parse_word

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

_DEFAULT_SUITE_SAMPLES = 1000


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs beyond its positional arguments."""

    rank: int
    command: str
    format: str = "text"
    cache_dir: str | None = None
    element_limit: int = DEFAULT_ELEMENT_LIMIT
    seed: int = 0
    trace: bool = False
    allow_large: bool = False
    suite: str = "all"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiselman",
        description="Canonical forms, enumeration and zero-equation "
        "solving for Kiselman's semigroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", dest="rank", type=int, required=True,
                       help="number of generators")
        p.add_argument("--format", choices=["text", "json", "csv"],
                       default="text")
        p.add_argument("--cache-dir", default=None,
                       help="directory for per-rank enumeration caches "
                       "(default: $KISELMAN_CACHE_DIR)")
        p.add_argument("--limit", dest="element_limit", type=int,
                       default=DEFAULT_ELEMENT_LIMIT,
                       help="enumeration element cap")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks")
        p.add_argument("--allow-large", action="store_true",
                       help=f"permit ranks above {MAX_DEFAULT_RANK}")

    canon = sub.add_parser("canon", help="canonical form of a word")
    common(canon)
    canon.add_argument("word", help='word text, e.g. "1 2 1" ("" for empty)')
    canon.add_argument("--trace", action="store_true",
                       help="print the deletion chain")

    mul = sub.add_parser("mul", help="product of two words")
    common(mul)
    mul.add_argument("left")
    mul.add_argument("right")

    enum = sub.add_parser("enum", help="list every element at a rank")
    common(enum)

    solve = sub.add_parser("solve", help="solve x * y = zero for x")
    common(solve)
    solve.add_argument("--y", dest="y_text", required=True,
                       help="right factor as word text")

    verify = sub.add_parser("verify", help="run the verification suites")
    common(verify)
    verify.add_argument("--suite", default="all",
                        choices=["all"] + SUITE_NAMES)

    stats = sub.add_parser("stats", help="summary numbers for a rank")
    common(stats)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        rank=args.rank,
        command=args.command,
        format=args.format,
        cache_dir=args.cache_dir or os.environ.get("KISELMAN_CACHE_DIR"),
        element_limit=args.element_limit,
        seed=args.seed,
        trace=getattr(args, "trace", False),
        allow_large=args.allow_large,
        suite=getattr(args, "suite", "all"),
    )


def _check_rank_policy(config: RunConfig) -> None:
    if config.rank > MAX_DEFAULT_RANK and not config.allow_large:
        raise ResourceLimitError(
            f"rank {config.rank} exceeds the default cap of "
            f"{MAX_DEFAULT_RANK}; pass --allow-large to proceed"
        )


def _reject_csv(config: RunConfig) -> None:
    if config.format == "csv":
        raise ValidationError(
            "csv output is only available for flat tables (enum, stats)"
        )


def _emit_csv(header: list[str], rows: Iterable[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _write_cache(config: RunConfig, words: list[tuple[int, ...]]) -> None:
    if config.cache_dir is not None:
        try:
            write_cache(config.cache_dir, config.rank, words)
        except OSError as exc:
            raise ValidationError(
                f"cannot write the cache to {config.cache_dir}: {exc}"
            ) from exc


def _cmd_canon(config: RunConfig, text: str) -> int:
    _reject_csv(config)
    w = parse_word(text, config.rank)
    if config.format == "json":
        payload: dict = {"rank": config.rank, "input": str(w)}
        if config.trace:
            trace = reduction_trace(w)
            payload["canonical"] = str(trace.final)
            payload["trace"] = [
                {
                    "kind": red.kind.value,
                    "letter": red.letter,
                    "keep": red.kept_position,
                    "remove": red.removed_position,
                    "result": str(word),
                }
                for red, word in trace.steps
            ]
        else:
            payload["canonical"] = str(canonical_form(w))
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if config.trace:
        trace = reduction_trace(w)
        for red, word in trace.steps:
            print(f"{red.describe()} -> {word}")
        print(f"canonical: {trace.final}")
    else:
        print(str(canonical_form(w)))
    return EXIT_OK


def _cmd_mul(config: RunConfig, left_text: str, right_text: str) -> int:
    _reject_csv(config)
    x = from_word(parse_word(left_text, config.rank))
    y = from_word(parse_word(right_text, config.rank))
    product = multiply(x, y)
    if config.format == "json":
        print(json.dumps(
            {
                "rank": config.rank,
                "left": str(x),
                "right": str(y),
                "product": str(product),
            },
            indent=2,
        ))
    else:
        print(display(product))
    return EXIT_OK


def _cmd_enum(config: RunConfig) -> int:
    _check_rank_policy(config)
    # keep only the words: holding the table while the words are
    # written and formatted would raise the peak memory
    words = sorted(
        Semigroup(config.rank, limit=config.element_limit).words, key=sort_key
    )
    _write_cache(config, words)
    texts = [" ".join(map(str, letters)) for letters in words]
    if config.format == "json":
        print(json.dumps(
            {"rank": config.rank, "count": len(texts), "words": texts},
            indent=2,
        ))
    elif config.format == "csv":
        rows = (
            [index, len(letters), text]
            for index, (letters, text) in enumerate(zip(words, texts))
        )
        _emit_csv(["index", "length", "word"], rows)
    else:
        print(f"n={config.rank} count={len(texts)}")
        for text in texts:
            print(text or "e")
    return EXIT_OK


def _cmd_solve(config: RunConfig, y_text: str) -> int:
    _reject_csv(config)
    _check_rank_policy(config)
    y = from_word(parse_word(y_text, config.rank))
    solved = solve_right_zero(y, limit=config.element_limit)
    ordered = solved.sorted_solutions()
    decomposition = None
    if solved.decomposition is not None:
        decomposition = {
            "special": str(solved.decomposition.special),
            "t": [
                str(x)
                for x in sorted(solved.decomposition.containing_one, key=sort_key)
            ],
        }
    if config.format == "json":
        print(json.dumps(
            {
                "rank": config.rank,
                "y": str(y),
                "count": len(ordered),
                "solutions": [str(x) for x in ordered],
                "decomposition": decomposition,
            },
            indent=2,
        ))
    else:
        print(f"n={config.rank} y={display(y)} count={len(ordered)}")
        for x in ordered:
            print(display(x))
        if decomposition is not None:
            t_parts = ", ".join(w or "e" for w in decomposition["t"])
            print(f"decomposition: special={decomposition['special'] or 'e'} "
                  f"t=[{t_parts}]")
    return EXIT_OK


def _print_verify_report(config: RunConfig, report: dict) -> None:
    if config.format == "json":
        print(json.dumps(report, indent=2))
        return
    for suite in report["suites"]:
        line = f"{suite['status'].upper():4s} {suite['name']} checks={suite['checks']}"
        print(line)
        for failure in suite["failures"]:
            print(f"     counterexample: {failure}")
    failed = sum(1 for s in report["suites"] if s["status"] == "fail")
    tail = (
        f"aborted: {report.get('error', '')}"
        if report["aborted"]
        else f"suites={len(report['suites'])} failures={failed}"
    )
    print(f"verify rank={report['rank']} seed={report['seed']} {tail}")


def _cmd_verify(config: RunConfig) -> int:
    _reject_csv(config)
    try:
        _check_rank_policy(config)
    except ResourceLimitError as exc:
        report = {
            "rank": config.rank,
            "seed": config.seed,
            "samples": _DEFAULT_SUITE_SAMPLES,
            "aborted": True,
            "all_passed": False,
            "error": str(exc),
            "suites": [],
        }
        _print_verify_report(config, report)
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    names = None if config.suite == "all" else [config.suite]
    report = run_suites(
        config.rank,
        seed=config.seed,
        samples=_DEFAULT_SUITE_SAMPLES,
        limit=config.element_limit,
        names=names,
    )
    _print_verify_report(config, report)
    if report["aborted"]:
        print(f"resource limit: {report.get('error', '')}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK if report["all_passed"] else EXIT_INVARIANT


def _zero_thresholds(semigroup: Semigroup) -> Counter[int]:
    """How many elements have each value of `algebra.zero_threshold`.

    Element i has threshold m when m is the least length of a tail
    m, m-1, ..., 1 that takes words[i] to the zero; the tail of length
    rank is the zero itself, so every element has one.
    """
    tails = [tuple(range(m, 0, -1)) for m in range(semigroup.rank + 1)]
    zero = semigroup.index[tails[-1]]
    histogram: Counter[int] = Counter()
    for i in range(len(semigroup)):
        for m, tail in enumerate(tails):
            if semigroup.product(i, tail) == zero:
                histogram[m] += 1
                break
        else:
            raise InvariantError(
                f"'{semigroup.element(i)}' times the zero is not the zero"
            )
    return histogram


def _cmd_stats(config: RunConfig) -> int:
    _check_rank_policy(config)
    semigroup = Semigroup(config.rank, limit=config.element_limit)
    _write_cache(config, semigroup.words)
    words = semigroup.words
    ordered = sorted(_zero_thresholds(semigroup).items())
    containing_one = sum(1 for letters in words if 1 in letters)
    idempotents = sum(
        1 for i, letters in enumerate(words) if semigroup.product(i, letters) == i
    )
    if config.format == "json":
        print(json.dumps(
            {
                "rank": config.rank,
                "cardinality": len(words),
                "containing_letter_one": containing_one,
                "idempotents": idempotents,
                "zero_threshold_histogram": {
                    str(k): v for k, v in ordered
                },
            },
            indent=2,
        ))
    elif config.format == "csv":
        _emit_csv(["threshold", "count"], [[k, v] for k, v in ordered])
    else:
        print(f"n={config.rank} cardinality={len(words)}")
        print(f"containing letter 1: {containing_one}")
        print(f"idempotents: {idempotents}")
        print("zero-threshold histogram:")
        for k, v in ordered:
            print(f"  {k}: {v}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    config = _config_from_args(args)
    try:
        if config.rank < 1:
            raise ValidationError(f"--n must be >= 1, got {config.rank}")
        if config.command == "canon":
            return _cmd_canon(config, args.word)
        if config.command == "mul":
            return _cmd_mul(config, args.left, args.right)
        if config.command == "enum":
            return _cmd_enum(config)
        if config.command == "solve":
            return _cmd_solve(config, args.y_text)
        if config.command == "verify":
            return _cmd_verify(config)
        if config.command == "stats":
            return _cmd_stats(config)
        raise ValidationError(f"unknown command {config.command!r}")
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
