"""Command line interface.

Commands: canon, mul, enum, solve, verify, stats; each takes only the
options it reads, and solve, verify and stats an ignored --seed.  Exit
codes: 0 ok, 1 stdout closed by the reader, 2 usage or validation, 3
resource cap, 4 correctness failure.  Output for given arguments is
byte-identical across runs, and error paths write to stderr only.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from itertools import chain
from typing import Callable

from .algebra import display, from_word, multiply, sort_key
from .enumeration import DEFAULT_ELEMENT_LIMIT, Semigroup, write_cache
from .equations import solve_right_zero
from .errors import (
    DomainError,
    InvariantError,
    ResourceLimitError,
    ValidationError,
)
from .rewrite import reduction_trace
from .verify import SUITE_NAMES, run_suites
from .words import parse_word

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4


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
    # solve, verify and stats read no seed: they take --seed only because
    # the benchmark's cli workload passes it to them
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
                     parents=(enumerating, unseeded))
    verify.add_argument("--suite", default="all",
                        choices=["all"] + SUITE_NAMES)

    command("stats", _cmd_stats, "summary numbers for a rank", tables,
            parents=(enumerating, unseeded))

    return parser


def _print_json(payload: dict) -> None:
    # imported here, so that only the commands printing JSON pay for it
    import json

    print(json.dumps(payload, indent=2))


def _cmd_canon(args: argparse.Namespace) -> int:
    w = parse_word(args.word, args.rank)
    canonical = from_word(w).word
    steps = []
    if args.trace:
        # text mode prints each step as the deletion loop yields it: the
        # whole chain grows with the square of the word's length
        final = w
        for red, final in reduction_trace(w):
            if args.format == "json":
                steps.append({"kind": red.kind.value, "letter": red.letter,
                              "keep": red.kept_position,
                              "remove": red.removed_position, "result": str(final)})
            else:
                print(f"{red.describe()} -> {final}")
        if final != canonical:
            raise InvariantError(
                f"the deletion chain ends at '{final}', the fold at '{canonical}'"
            )
    if args.format == "json":
        payload: dict = {"rank": args.rank, "input": str(w), "canonical": str(canonical)}
        if args.trace:
            payload["trace"] = steps
        _print_json(payload)
    else:
        print(f"canonical: {canonical}" if args.trace else canonical)
    return EXIT_OK


def _cmd_mul(args: argparse.Namespace) -> int:
    x = from_word(parse_word(args.left, args.rank))
    y = from_word(parse_word(args.right, args.rank))
    product = multiply(x, y)
    if args.format == "json":
        _print_json({
            "rank": args.rank,
            "left": str(x),
            "right": str(y),
            "product": str(product),
        })
    else:
        print(display(product))
    return EXIT_OK


def _cmd_enum(args: argparse.Namespace) -> int:
    # only the texts, already in sort_key order, and the rounds, the
    # elements of each length: enum never multiplies or looks a word up,
    # so neither the table nor the index is built, nor any letter tuple
    semigroup = Semigroup(args.rank, limit=args.element_limit)
    # each word is formatted once, for the cache and for stdout alike
    texts, rounds = semigroup.texts(), semigroup.rounds()
    # the output needs no more of the semigroup, and freeing its links
    # first lowers a rank-6 csv or json run's peak RSS by 2 to 3 MB
    del semigroup
    if args.cache_dir:
        try:
            write_cache(args.cache_dir, args.rank, texts)
        except OSError as exc:
            raise ValidationError(
                f"cannot write the cache to {args.cache_dir}: {exc}"
            ) from exc
    if args.format == "json":
        _print_json({"rank": args.rank, "count": len(texts), "words": texts})
    elif args.format == "csv":
        # a text holds only digits and spaces, so no field needs quoting;
        # the rows of one length are one format, with the length written
        # in, over a flat tuple of indices and texts
        sys.stdout.write("index,length,word\n")
        for length, (start, end) in enumerate(rounds):
            rows = tuple(chain.from_iterable(zip(range(start, end), texts[start:end])))
            sys.stdout.write(f"%d,{length},%s\n" * (end - start) % rows)
    else:
        print(f"n={args.rank} count={len(texts)}")
        for text in texts:
            print(text or "e")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    y = from_word(parse_word(args.y_text, args.rank))
    solved = solve_right_zero(y, Semigroup(args.rank, limit=args.element_limit))
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
        _print_json({
            "rank": args.rank,
            "y": str(y),
            "count": len(ordered),
            "solutions": [str(x) for x in ordered],
            "decomposition": decomposition,
        })
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
        _print_json(report)
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
    print(f"verify rank={report['rank']} {tail}")


def _cmd_verify(args: argparse.Namespace) -> int:
    names = None if args.suite == "all" else [args.suite]
    report = run_suites(args.rank, limit=args.element_limit, names=names)
    _print_verify_report(args, report)
    if report["aborted"]:
        print(f"resource limit: {report.get('error', '')}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK if report["all_passed"] else EXIT_INVARIANT


def _cmd_stats(args: argparse.Namespace) -> int:
    semigroup = Semigroup(args.rank, limit=args.element_limit)
    words = semigroup.words
    ordered = sorted(Counter(semigroup.zero_thresholds()).items())
    containing_one = sum(1 for letters in words if 1 in letters)
    idempotents = sum(
        1 for i, letters in enumerate(words) if semigroup.product(i, letters) == i
    )
    if args.format == "json":
        _print_json({
            "rank": args.rank,
            "cardinality": len(words),
            "containing_letter_one": containing_one,
            "idempotents": idempotents,
            "zero_threshold_histogram": {str(k): v for k, v in ordered},
        })
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
