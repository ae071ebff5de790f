"""Command line interface.

Commands: canon, mul, enum, solve, verify, stats; each takes only the
options it reads.  Exit codes: 0 ok, 1 stdout closed by the reader,
2 usage or validation, 3 resource cap, 4 correctness failure.  Output
for a given (command, flags, seed) is byte-identical across runs, and
error paths write to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Callable

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
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

_DEFAULT_SUITE_SAMPLES = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiselman",
        description="Canonical forms, enumeration and zero-equation "
        "solving for Kiselman's semigroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of the four commands that build a Semigroup
    enumerating = argparse.ArgumentParser(add_help=False)
    enumerating.add_argument("--limit", dest="element_limit", type=int,
                             default=DEFAULT_ELEMENT_LIMIT,
                             help="enumeration element cap")
    enumerating.add_argument("--allow-large", action="store_true",
                             help=f"permit ranks above {MAX_DEFAULT_RANK}")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks")
    # solve and stats read no seed: they take --seed only because the
    # benchmark's cli workload passes it to them
    unseeded = argparse.ArgumentParser(add_help=False)
    unseeded.add_argument("--seed", type=int, default=0,
                          help="accepted and ignored")

    def command(
        name: str,
        run: Callable[[argparse.Namespace], int],
        summary: str,
        formats: tuple[str, ...] = ("text", "json"),
        parents: tuple[argparse.ArgumentParser, ...] = (),
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(run=run)
        p.add_argument("--n", dest="rank", type=int, required=True,
                       help="number of generators")
        p.add_argument("--format", choices=formats, default="text")
        return p

    tables = ("text", "json", "csv")
    canon = command("canon", _cmd_canon, "canonical form of a word")
    canon.add_argument("word", help='word text, e.g. "1 2 1" ("" for empty)')
    canon.add_argument("--trace", action="store_true",
                       help="print the deletion chain")

    mul = command("mul", _cmd_mul, "product of two words")
    mul.add_argument("left")
    mul.add_argument("right")

    enum = command("enum", _cmd_enum, "list every element at a rank", tables,
                   parents=(enumerating,))
    enum.add_argument("--cache-dir", default=None,
                      help="directory to write k<rank>.cache to")

    solve = command("solve", _cmd_solve, "solve x * y = zero for x",
                    parents=(enumerating, unseeded))
    solve.add_argument("--y", dest="y_text", required=True,
                       help="right factor as word text")

    verify = command("verify", _cmd_verify, "run the verification suites",
                     parents=(enumerating, seeded))
    verify.add_argument("--suite", default="all",
                        choices=["all"] + SUITE_NAMES)

    command("stats", _cmd_stats, "summary numbers for a rank", tables,
            parents=(enumerating, unseeded))

    return parser


def _check_rank_policy(args: argparse.Namespace) -> None:
    if args.rank > MAX_DEFAULT_RANK and not args.allow_large:
        raise ResourceLimitError(
            f"rank {args.rank} exceeds the default cap of "
            f"{MAX_DEFAULT_RANK}; pass --allow-large to proceed"
        )


def _cmd_canon(args: argparse.Namespace) -> int:
    w = parse_word(args.word, args.rank)
    if args.format == "json":
        payload: dict = {"rank": args.rank, "input": str(w)}
        if args.trace:
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
    if args.trace:
        trace = reduction_trace(w)
        for red, word in trace.steps:
            print(f"{red.describe()} -> {word}")
        print(f"canonical: {trace.final}")
    else:
        print(str(canonical_form(w)))
    return EXIT_OK


def _cmd_mul(args: argparse.Namespace) -> int:
    x = from_word(parse_word(args.left, args.rank))
    y = from_word(parse_word(args.right, args.rank))
    product = multiply(x, y)
    if args.format == "json":
        print(json.dumps(
            {
                "rank": args.rank,
                "left": str(x),
                "right": str(y),
                "product": str(product),
            },
            indent=2,
        ))
    else:
        print(display(product))
    return EXIT_OK


def _cmd_enum(args: argparse.Namespace) -> int:
    _check_rank_policy(args)
    # only the words, already in sort_key order, and their texts: enum
    # never multiplies or looks a word up, so neither the table nor the
    # index is built
    semigroup = Semigroup(args.rank, limit=args.element_limit)
    # each word is formatted once, for the cache and for stdout alike
    words, texts = semigroup.words, semigroup.texts()
    # the output needs neither the parent links nor the gap states, and
    # freeing them first lowers a rank-6 run's peak RSS by about 2 MB
    del semigroup
    if args.cache_dir:
        try:
            write_cache(args.cache_dir, args.rank, texts)
        except OSError as exc:
            raise ValidationError(
                f"cannot write the cache to {args.cache_dir}: {exc}"
            ) from exc
    if args.format == "json":
        print(json.dumps(
            {"rank": args.rank, "count": len(texts), "words": texts},
            indent=2,
        ))
    elif args.format == "csv":
        # a text holds only digits and spaces, so no field needs quoting
        sys.stdout.write("index,length,word\n" + "".join([
            f"{index},{len(letters)},{text}\n"
            for index, (letters, text) in enumerate(zip(words, texts))
        ]))
    else:
        print(f"n={args.rank} count={len(texts)}")
        for text in texts:
            print(text or "e")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_rank_policy(args)
    y = from_word(parse_word(args.y_text, args.rank))
    solved = solve_right_zero(y, limit=args.element_limit)
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
    if args.format == "json":
        print(json.dumps(
            {
                "rank": args.rank,
                "y": str(y),
                "count": len(ordered),
                "solutions": [str(x) for x in ordered],
                "decomposition": decomposition,
            },
            indent=2,
        ))
    else:
        print(f"n={args.rank} y={display(y)} count={len(ordered)}")
        for x in ordered:
            print(display(x))
        if decomposition is not None:
            t_parts = ", ".join(w or "e" for w in decomposition["t"])
            print(f"decomposition: special={decomposition['special'] or 'e'} "
                  f"t=[{t_parts}]")
    return EXIT_OK


def _print_verify_report(args: argparse.Namespace, report: dict) -> None:
    if args.format == "json":
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


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        _check_rank_policy(args)
    except ResourceLimitError as exc:
        report = {
            "rank": args.rank,
            "seed": args.seed,
            "samples": _DEFAULT_SUITE_SAMPLES,
            "aborted": True,
            "all_passed": False,
            "error": str(exc),
            "suites": [],
        }
        _print_verify_report(args, report)
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    names = None if args.suite == "all" else [args.suite]
    report = run_suites(
        args.rank,
        seed=args.seed,
        samples=_DEFAULT_SUITE_SAMPLES,
        limit=args.element_limit,
        names=names,
    )
    _print_verify_report(args, report)
    if report["aborted"]:
        print(f"resource limit: {report.get('error', '')}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK if report["all_passed"] else EXIT_INVARIANT


def _cmd_stats(args: argparse.Namespace) -> int:
    _check_rank_policy(args)
    semigroup = Semigroup(args.rank, limit=args.element_limit)
    words = semigroup.words
    ordered = sorted(Counter(semigroup.zero_thresholds()).items())
    containing_one = sum(1 for letters in words if 1 in letters)
    idempotents = sum(
        1 for i, letters in enumerate(words) if semigroup.product(i, letters) == i
    )
    if args.format == "json":
        print(json.dumps(
            {
                "rank": args.rank,
                "cardinality": len(words),
                "containing_letter_one": containing_one,
                "idempotents": idempotents,
                "zero_threshold_histogram": {
                    str(k): v for k, v in ordered
                },
            },
            indent=2,
        ))
    elif args.format == "csv":
        sys.stdout.write("threshold,count\n" + "".join([
            f"{k},{v}\n" for k, v in ordered
        ]))
    else:
        print(f"n={args.rank} cardinality={len(words)}")
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
    try:
        if args.rank < 1:
            raise ValidationError(f"--n must be >= 1, got {args.rank}")
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered, which the
        # interpreter would flush at exit, goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
