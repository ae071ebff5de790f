from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import elements
from kiselman import cli, rewrite
from kiselman.algebra import from_word, multiply, zero_threshold
from kiselman.cli import main
from kiselman.enumeration import Semigroup
from kiselman.errors import InvariantError
from kiselman.rewrite import canonical_form, reduction_trace
from kiselman.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_basic(capsys):
    code, out, err = run(capsys, "canon", "--n", "2", "1 2 1")
    assert (code, out, err) == (0, "2 1\n", "")


def test_canon_empty_word(capsys):
    code, out, err = run(capsys, "canon", "--n", "3", "")
    assert (code, out, err) == (0, "\n", "")


def test_canon_trace(capsys):
    code, out, err = run(capsys, "canon", "--n", "2", "--trace", "1 2 1")
    assert code == 0
    assert out == "LeftDeletion letter=1 keep=2 remove=0 -> 2 1\ncanonical: 2 1\n"


def test_canon_trace_streams_the_recorded_chain(capsys, monkeypatch):
    rng = random.Random(22)
    text = " ".join(str(rng.randint(1, 6)) for _ in range(200))
    steps = list(reduction_trace(parse_word(text, 6)))
    lines = [f"{red.describe()} -> {word}\n" for red, word in steps]
    # text mode prints each step as it comes: before the chain hands out
    # a step, every step before it is on stdout, and nothing more
    printed = []

    def watched(w):
        for step in reduction_trace(w):
            printed.append(capsys.readouterr().out)
            yield step

    monkeypatch.setattr(cli, "reduction_trace", watched)
    code, out, err = run(capsys, "canon", "--n", "6", "--trace", text)
    assert (code, err) == (0, "")
    assert len(steps) > 150
    assert printed == [""] + lines[:-1]
    assert out == f"{lines[-1]}canonical: {steps[-1][1]}\n"


def test_canon_trace_json(capsys):
    code, out, _ = run(
        capsys, "canon", "--n", "2", "--trace", "--format", "json", "1 1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"] == "1"
    assert payload["trace"] == [
        {"kind": "RightDeletion", "letter": 1, "keep": 0, "remove": 1,
         "result": "1"},
    ]


def test_canon_parse_error_is_usage_exit(capsys):
    code, out, err = run(capsys, "canon", "--n", "2", "1 x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_canon_rejects_a_sign_and_a_non_ascii_digit(capsys):
    # int() reads '+1' as 1 and the fullwidth digit as 2
    code, out, err = run(capsys, "canon", "--n", "3", "+1 \uff12")
    assert (code, out) == (2, "")
    assert err == (
        "error: cannot parse word text '+1 \uff12': "
        "expected space-separated integers\n"
    )


def test_canon_letter_out_of_range(capsys):
    code, out, err = run(capsys, "canon", "--n", "2", "3")
    assert code == 2
    assert out == ""
    assert "out of range" in err


def test_mul_text(capsys):
    code, out, err = run(capsys, "mul", "--n", "3", "2 1", "1 3")
    assert (code, out, err) == (0, "2 1 3\n", "")


def test_mul_identity_prints_e(capsys):
    code, out, _ = run(capsys, "mul", "--n", "2", "", "")
    assert (code, out) == (0, "e\n")


def test_mul_json(capsys):
    code, out, _ = run(
        capsys, "mul", "--n", "2", "--format", "json", "1", "1",
    )
    assert code == 0
    assert json.loads(out) == {
        "rank": 2, "left": "1", "right": "1", "product": "1",
    }


def test_enum_text(capsys):
    code, out, _ = run(capsys, "enum", "--n", "2")
    assert code == 0
    assert out == "n=2 count=5\ne\n1\n2\n1 2\n2 1\n"


def test_enum_json(capsys):
    code, out, _ = run(capsys, "enum", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "rank": 2,
        "count": 5,
        "words": ["", "1", "2", "1 2", "2 1"],
    }


def test_enum_csv(capsys):
    code, out, _ = run(capsys, "enum", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "index,length,word", "0,0,", "1,1,1", "2,1,2", "3,2,1 2", "4,2,2 1",
    ]


# sha256 of `enum --n 4` stdout per format, and of the k4.cache it writes
ENUM_RANK_4_DIGESTS = {
    "text": "8dcc6cc92f202357bfc2e851731897c0a26e022aab0bb2ade8ae7e02fe8e8da1",
    "json": "e4077fc9964f9f329f22004f4c1e6b0e4ccfd152bd256f75c8d65b1b092713ca",
    "csv": "6b2ab6614ea1efa509c2ad64e4e116c2250860a1462040050042fb69b97a04ba",
}
CACHE_RANK_4_DIGEST = "620e5e5ae39f9fd5df6d793c76f871c37f27f5078371830e2e49cf7036246a64"


@pytest.mark.parametrize("fmt", sorted(ENUM_RANK_4_DIGESTS))
def test_enum_fills_no_table(capsys, tmp_path, monkeypatch, fmt):
    def refuse(self):
        raise AssertionError("enum filled the table")

    monkeypatch.setattr(Semigroup, "_fill", refuse)
    code, out, err = run(
        capsys, "enum", "--n", "4", "--format", fmt, "--cache-dir", str(tmp_path),
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUM_RANK_4_DIGESTS[fmt]
    cache = (tmp_path / "k4.cache").read_bytes()
    assert hashlib.sha256(cache).hexdigest() == CACHE_RANK_4_DIGEST


@pytest.mark.n6
def test_enum_rank_6_csv_is_fast(capsys):
    start = time.perf_counter()
    code = main(["enum", "--n", "6", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1 + 83973
    assert elapsed < 0.5, f"enum --n 6 --format csv took {elapsed:.2f} s"


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_enum_cache_lines_are_the_csv_words(capsys, tmp_path, rank):
    # one formatting serves both outputs: the cache body is the CSV's
    # word column, line for line, under a header that counts it
    code, out, err = run(
        capsys, "enum", "--n", str(rank), "--format", "csv", "--cache-dir", str(tmp_path),
    )
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["index", "length", "word"]
    assert [row[:2] for row in rows] == [
        [str(i), str(len(word.split()))] for i, (_, _, word) in enumerate(rows)
    ]
    first, *lines = (tmp_path / f"k{rank}.cache").read_text().split("\n")[:-1]
    assert first == f"kiselman-cache v1 n={rank} count={len(rows)}"
    assert lines == [word for _, _, word in rows]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_stats_without_a_cache_dir_formats_no_words(capsys, monkeypatch, fmt):
    def refuse(self):
        raise AssertionError("stats formatted words for no cache")

    monkeypatch.setattr(Semigroup, "texts", refuse)
    code, out, err = run(capsys, "stats", "--n", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enum_builds_neither_the_index_nor_the_table(capsys, monkeypatch, tmp_path, fmt):
    # enum reads only the texts and the lengths, never a letter tuple
    def refuse(self):
        raise AssertionError("enum built a word, looked one up or multiplied")

    expected = run(capsys, "enum", "--n", "4", "--format", fmt)
    for name in ("words", "index", "columns"):
        monkeypatch.setattr(Semigroup, name, property(refuse))
    monkeypatch.setattr(Semigroup, "_fill", refuse)
    got = run(capsys, "enum", "--n", "4", "--format", fmt, "--cache-dir", str(tmp_path))
    assert got == expected
    assert (tmp_path / "k4.cache").is_file()


@pytest.mark.parametrize("command", ["solve", "stats", "verify"])
def test_seed_help_says_the_seed_is_ignored(capsys, command):
    # solve, verify and stats take --seed for callers that pass it, and
    # read no seed
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert "--seed SEED           accepted and ignored" in out
    assert "sampled checks" not in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_does_not_depend_on_the_seed(capsys, fmt):
    outputs = {
        run(capsys, "verify", "--n", "4", "--format", fmt, "--seed", seed)
        for seed in ("1", "2")
    }
    ((code, out, err),) = outputs
    assert (code, err) == (0, "")
    assert "seed" not in out


def test_enum_writes_and_reuses_cache(capsys, tmp_path):
    code, first, _ = run(
        capsys, "enum", "--n", "3", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    cache_file = tmp_path / "k3.cache"
    assert cache_file.exists()
    assert cache_file.read_text().splitlines()[0] == (
        "kiselman-cache v1 n=3 count=18"
    )
    written = cache_file.read_bytes()
    code, second, _ = run(
        capsys, "enum", "--n", "3", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert first == second
    assert cache_file.read_bytes() == written


# Files a cache directory may hold that are not the rank's cache: each
# case is a rank and the text of k<rank>.cache.
BAD_CACHES = {
    "non-canonical": (2, "kiselman-cache v1 n=2 count=1\n1 2 1\n"),
    "non-canonical-after-prefix": (3, "kiselman-cache v1 n=3 count=4\n\n2\n2 1\n2 1 2\n"),
    "non-canonical-before-prefix": (3, "kiselman-cache v1 n=3 count=4\n2 1 2\n\n2\n2 1\n"),
    "forged-count": (3, "kiselman-cache v1 n=3 count=3\n\n1\n2\n"),
    "bad-header": (3, "some other file\n"),
    "rank-mismatch": (3, "kiselman-cache v1 n=2 count=5\n\n1\n2\n1 2\n2 1\n"),
    "count-drift": (1, "kiselman-cache v1 n=1 count=3\n\n1\n"),
    "duplicates": (2, "kiselman-cache v1 n=2 count=2\n1\n1\n"),
    "malformed": (3, "kiselman-cache v1 n=3 count=1\n1 x\n"),
    "empty": (3, ""),
}


@pytest.mark.parametrize("command", ["enum"])  # the commands that write a cache
@pytest.mark.parametrize("case", BAD_CACHES)
def test_bad_cache_is_replaced_without_changing_output(capsys, tmp_path, case, command):
    # the cache is only written: stdout is the uncached run's, and the
    # bad file gives way to the bytes a fresh directory receives
    rank, text = BAD_CACHES[case]
    name = f"k{rank}.cache"
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    expected = run(capsys, command, "--n", str(rank), "--cache-dir", str(fresh))
    assert expected[0] == 0
    stale.mkdir()
    (stale / name).write_text(text)
    got = run(capsys, command, "--n", str(rank), "--cache-dir", str(stale))
    assert got == expected
    assert (stale / name).read_bytes() == (fresh / name).read_bytes()


def test_forged_large_rank_cache_is_not_printed(capsys, tmp_path):
    # the cache is never read: a cap of 1000, below |K_7|, is refused
    # before any building, whatever the file says
    (tmp_path / "k7.cache").write_text("kiselman-cache v1 n=7 count=3\n\n1\n2\n")
    code, out, err = run(
        capsys, "enum", "--n", "7", "--limit", "1000", "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert "element cap of 1000" in err


def test_limit_applies_with_a_valid_cache(capsys, tmp_path):
    assert run(capsys, "enum", "--n", "4", "--cache-dir", str(tmp_path))[0] == 0
    code, out, err = run(
        capsys, "enum", "--n", "4", "--limit", "10", "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert "resource limit" in err


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    # nothing reads the variable: enum without --cache-dir writes no file
    monkeypatch.setenv("KISELMAN_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "enum", "--n", "2")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_enum_with_a_file_as_cache_dir_is_a_usage_error(capsys, tmp_path):
    # the write comes before any printing, so stdout stays empty
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    code, out, err = run(capsys, "enum", "--n", "2", "--cache-dir", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write the cache to {blocker}: ")
    assert blocker.read_text() == "not a directory\n"


def test_a_failed_cache_write_leaves_no_temporary_file(capsys, tmp_path, monkeypatch):
    # the temporary file is written whole and then fails to replace the
    # cache: the writer removes it, and enum exits before printing
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, "enum", "--n", "2", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write the cache to {tmp_path}: ")
    assert list(tmp_path.iterdir()) == []


def test_solve_json_shape(capsys):
    code, out, _ = run(
        capsys, "solve", "--n", "2", "--y", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "rank": 2,
        "y": "1",
        "count": 3,
        "solutions": ["2", "1 2", "2 1"],
        "decomposition": {"special": "2", "t": ["1 2", "2 1"]},
    }


def test_solve_other_target_has_null_decomposition(capsys):
    code, out, _ = run(
        capsys, "solve", "--n", "2", "--y", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == ["2 1"]
    assert payload["decomposition"] is None


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "--n", "2", "--y", "1")
    assert code == 0
    assert out == (
        "n=2 y=1 count=3\n2\n1 2\n2 1\n"
        "decomposition: special=2 t=[1 2, 2 1]\n"
    )


# sha256 of solve's stdout; rank 5 JSON is the benchmark's own argv
SOLVE_DIGESTS = {
    (3, "1", "text"): "9c2c4abcdda55a09aa4c24a1766dc1f95319e7c446cafde6bede01df766c7cb5",
    (3, "1", "json"): "50f5f48cd115e6b424b12278404d15dd45168406851a002065de08d7fa047495",
    (4, "1", "text"): "9dfec0be084be369babb871d40cf2c628976b1bce7487982336221d5ad761b81",
    (4, "1", "json"): "4ca7be44b76f736ecfcc9f2550e170ea1f261494c72da5363c58cc9816b3d86f",
    (5, "1", "text"): "ed7d3c209d3e19e7b72db8ff8faf17825fee385a7be4c31a237ad1f55bfd328d",
    (5, "1", "json"): "6dfd2db8174ceeabadc92494ea75f4f4ccbcd5defbef45dddab7b663cf42062a",
    (4, "2 1", "text"): "eabc94805b3dca9de4f513924b676e6ca898c6e7115310d04bfb79fe0f5ddc0c",
    (4, "2 1", "json"): "e51c7a9c9542372b75341711df45e2788fc492ad420067fca0f39cec01249c02",
}


@pytest.mark.parametrize("rank, y, fmt", sorted(SOLVE_DIGESTS))
def test_solve_output_is_pinned(capsys, rank, y, fmt):
    code, out, err = run(
        capsys, "solve", "--n", str(rank), "--y", y, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_DIGESTS[rank, y, fmt]


def test_verify_rank_2_passes(capsys):
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1].startswith("verify rank=2 suites=")
    assert "failures=0" in lines[-1]
    assert sum(1 for line in lines if line.startswith("PASS")) >= 10


def test_verify_single_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--suite", "cardinality",
    )
    assert code == 0
    statuses = [
        line.split()[1] for line in out.splitlines()
        if line.startswith(("PASS", "FAIL", "SKIP"))
    ]
    assert statuses == ["cardinality"]


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["all_passed"] is True
    assert report["aborted"] is False
    assert {s["name"] for s in report["suites"]} >= {
        "cardinality", "confluence", "parity",
    }


def test_verify_large_rank_refused(capsys):
    code, out, err = run(capsys, "verify", "--n", "9")
    assert code == 3
    assert "aborted" in out
    assert "resource limit" in err


def test_verify_large_rank_refused_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "9", "--format", "json",
    )
    assert code == 3
    report = json.loads(out)
    assert report["aborted"] is True
    assert report["all_passed"] is False
    assert report["suites"] == []


def test_enum_large_rank_refused(capsys):
    # every cap below |K_7| = 22,263,378 is refused before anything is built
    for limit in ([], ["--limit", "22263377"]):
        start = time.perf_counter()
        code, out, err = run(capsys, "enum", "--n", "7", *limit)
        assert time.perf_counter() - start < 0.1
        cap = limit[-1] if limit else "83973"
        assert (code, out, err) == (
            3, "", "resource limit: enumeration at rank 7 needs 22263378 "
            f"elements, above the element cap of {cap}\n"
        )


def _refused(rank):
    return (
        f"resource limit: enumeration at rank {rank} is refused: "
        "closures run only up to rank 7\n"
    )


@pytest.mark.parametrize("command", [
    ["enum", "--limit", "83974"], ["stats"], ["solve", "--y", "1"],
])
def test_closure_above_rank_10_refused_past_the_cap(capsys, command):
    # the rank is refused before any cap is read: enum's --limit, or the
    # default cap of stats and solve, which take no --limit
    code, out, err = run(capsys, *command, "--n", "11")
    assert (code, out, err) == (3, "", _refused(11))


@pytest.mark.parametrize("rank", [8, 10])
def test_enum_above_rank_7_refused_past_the_cap(capsys, rank):
    # K_8 alone has 64,146,328,635 elements: a closure could only end at
    # its cap, so it is refused before it starts, whatever the cap
    for limit in ([], ["--limit", "1"], ["--limit", "83974"], ["--limit", "22263378"]):
        code, out, err = run(capsys, "enum", "--n", str(rank), *limit)
        assert (code, out, err) == (3, "", _refused(rank)), limit


def test_verify_above_rank_10_reports_the_refusal(capsys):
    code, out, err = run(capsys, "verify", "--n", "11", "--format", "json")
    assert code == 3
    assert json.loads(out) == {
        "rank": 11,
        "aborted": True,
        "all_passed": False,
        "suites": [],
        "error": _refused(11).removeprefix("resource limit: ").rstrip("\n"),
    }
    assert err == _refused(11)


def test_limit_trips_resource_exit(capsys):
    code, out, err = run(capsys, "enum", "--n", "3", "--limit", "5")
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "--n", "2")
    assert code == 0
    assert out == (
        "n=2 cardinality=5\n"
        "containing letter 1: 3\n"
        "idempotents: 4\n"
        "zero-threshold histogram:\n"
        "  0: 1\n  1: 2\n  2: 2\n"
    )


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "rank": 2,
        "cardinality": 5,
        "containing_letter_one": 3,
        "idempotents": 4,
        "zero_threshold_histogram": {"0": 1, "1": 2, "2": 2},
    }


def test_stats_csv(capsys):
    code, out, _ = run(capsys, "stats", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "threshold,count\n0,1\n1,2\n2,2\n"


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_stats_matches_folded_products(capsys, rank):
    # the table-driven counts against algebra.zero_threshold and multiply,
    # which fold and read no table
    members = elements(Semigroup(rank))
    histogram = Counter(zero_threshold(x) for x in members)
    code, out, _ = run(capsys, "stats", "--n", str(rank), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "rank": rank,
        "cardinality": len(members),
        "containing_letter_one": sum(1 for x in members if 1 in x.word.letters),
        "idempotents": sum(1 for x in members if multiply(x, x) == x),
        "zero_threshold_histogram": {
            str(k): v for k, v in sorted(histogram.items())
        },
    }


def test_csv_rejected_for_non_tabular_commands(capsys):
    for argv in (
        ["canon", "--n", "2", "--format", "csv", "1"],
        ["mul", "--n", "2", "--format", "csv", "1", "2"],
        ["solve", "--n", "2", "--format", "csv", "--y", "1"],
        ["verify", "--n", "2", "--format", "csv"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "csv" in err


# The options each subcommand declares, besides --help.
COMMAND_OPTIONS = {
    "canon": {"--n", "--format", "--trace"},
    "mul": {"--n", "--format"},
    "enum": {"--n", "--format", "--limit", "--cache-dir"},
    "solve": {"--n", "--format", "--y", "--seed"},
    "verify": {"--n", "--format", "--suite", "--seed"},
    "stats": {"--n", "--format", "--seed"},
}
# a call each command accepts
VALID_CALLS = {
    "canon": ["--n", "2", "1"],
    "mul": ["--n", "2", "1", "2"],
    "enum": ["--n", "2"],
    "solve": ["--n", "2", "--y", "1"],
    "verify": ["--n", "2", "--suite", "cardinality"],
    "stats": ["--n", "2"],
}
# the options only some commands take, each with the value it needs
NARROWED_OPTIONS = {"--cache-dir": ["cache"], "--limit": ["100"], "--seed": ["5"], "--allow-large": []}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_each_command_declares_only_the_options_it_reads(command):
    (commands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    declared = {
        flag for action in commands.choices[command]._actions for flag in action.option_strings
    }
    assert declared - {"-h", "--help"} == COMMAND_OPTIONS[command]


@pytest.mark.parametrize("command, option", [
    (command, option)
    for command, options in COMMAND_OPTIONS.items()
    for option in NARROWED_OPTIONS
    if option not in options
])
def test_removed_option_is_a_usage_error(capsys, tmp_path, monkeypatch, command, option):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, command, *VALID_CALLS[command])[0] == 0
    code, out, err = run(
        capsys, command, *VALID_CALLS[command], option, *NARROWED_OPTIONS[option],
    )
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {option}" in err
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_exits_1_without_a_traceback():
    # rank 6 prints about 1 MB, far more than a pipe holds, so the child
    # is still writing when the reader closes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "kiselman", "enum", "--n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.readline() == b"n=6 count=83973\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b""


def test_mul_at_a_high_rank_stays_small():
    # above rank 7 the fold keeps no automaton: the 151 words this fold
    # holds over 1..100000 would be 151 states of 100,001 entries, about
    # 250 MB
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    right = " ".join(map(str, range(2, 152)))
    child = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; from kiselman.cli import main; "
         "code = main(sys.argv[1:]); "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
         "sys.exit(code)",
         "mul", "--n", "100000", "1", right],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (child.returncode, child.stdout) == (0, f"1 {right}\n")
    assert int(child.stderr) < 100 * 1024  # kilobytes


def test_only_canon_trace_reaches_the_deletion_loop(capsys, monkeypatch):
    # every word the CLI reads parses by the fold, so every command runs
    # with the deletion loop broken, and only canon --trace hits it
    class Reached(Exception):
        pass

    def refuse(letters):
        raise Reached

    w, u = parse_word("1 2 1 3 2", 3), parse_word("1 1", 3)
    expected = canonical_form(w), canonical_form(parse_word("1 2 1 3 2 1 1", 3))
    monkeypatch.setattr(rewrite, "_deletions", refuse)
    x = from_word(w)
    assert (x.word, multiply(x, from_word(u)).word) == expected
    for argv, out in (
        (("canon", "--n", "3", "1 2 1 3 2"), f"{expected[0]}\n"),
        (("canon", "--n", "3", "--format", "json", "1 1"), None),
        (("mul", "--n", "3", "1 2 1", "3 2"), None),
        (("solve", "--n", "3", "--y", "1"), None),
        (("stats", "--n", "3"), None),
        (("enum", "--n", "3"), None),
    ):
        code, printed, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out is None or printed == out
    for fmt in ("text", "json"):
        with pytest.raises(Reached):
            main(["canon", "--n", "3", "--trace", "--format", fmt, "1 2 1"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_canon_trace_that_stops_short_of_the_fold_exits_4(capsys, monkeypatch, fmt):
    chain = rewrite._deletions

    def one_step_short(letters):
        yield from list(chain(letters))[:-1]

    monkeypatch.setattr(rewrite, "_deletions", one_step_short)
    code, out, err = run(capsys, "canon", "--n", "3", "--trace", "--format", fmt,
                         "1 2 1 3 1")
    assert code == 4
    # the step before the last streams in text mode; no canonical form prints
    first = "LeftDeletion letter=1 keep=2 remove=0 -> 2 1 3 1\n"
    assert out == ("" if fmt == "json" else first)
    assert err.startswith("invariant violated: the deletion chain ends at '2 1 3 1'")


def test_canon_of_a_long_word_folds_fast(capsys):
    # 100,002 letters: the deletion loop, which rescans the word after
    # each deletion, took 13.2 s as a child on 36,000 of them
    text = " ".join(["1 2 3 4 5 6"] * 16_667)
    start = time.perf_counter()
    code, out, err = run(capsys, "canon", "--n", "6", text)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "6 5 4 3 2 1\n", "")


def test_mul_of_a_long_factor_stays_fast(k5):
    # 50,000 letters parse by the fold in linear time; the rewriter would
    # rescan the factor after each of its deletions.  The argument stays
    # under Linux's 128 KB cap on one argument
    rng = random.Random(50_000)
    left = tuple(rng.randint(1, 5) for _ in range(50_000))
    left_text = " ".join(map(str, left))
    assert len(left_text) < 128 * 1024
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "kiselman", "mul", "--n", "5", left_text, "3 1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    product = k5.words[k5.product(0, left + (3, 1))]
    assert (child.returncode, child.stdout) == (0, " ".join(map(str, product)) + "\n")
    assert elapsed < 5


def _imported_modules(*args):
    """The modules a child interpreter imports, from its -X importtime log."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in child.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [["-c", "import kiselman.cli"], ["-m", "kiselman", "canon", "--n", "2", "1"]],
    ids=["import", "canon"],
)
def test_start_up_imports_neither_dataclasses_nor_inspect(args):
    # every command is a fresh interpreter, and importing dataclasses and
    # inspect would add about 12 ms to each start-up
    added = _imported_modules(*args) - _imported_modules("-c", "pass")
    assert "kiselman.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_importing_the_cli_leaves_json_unimported():
    # only the commands that print JSON import it, about 3 ms a child;
    # -S keeps the site hooks from importing it first
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, kiselman.cli; print('json' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert child.stdout == "False\n"


def test_rank_must_be_positive(capsys):
    code, out, err = run(capsys, "enum", "--n", "0")
    assert code == 2
    assert ">= 1" in err


def test_missing_subcommand_is_usage(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_missing_rank_flag_is_usage(capsys):
    code = main(["enum"])
    capsys.readouterr()
    assert code == 2


def test_unknown_suite_name_is_usage(capsys):
    code = main(["verify", "--n", "2", "--suite", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_output_is_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "verify", "--n", "3", "--format", "json", "--seed", "5",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_suite_failure_maps_to_exit_4(capsys, monkeypatch):
    def fake_run_suites(rank, names):
        return {
            "rank": rank,
            "aborted": False,
            "all_passed": False,
            "suites": [
                {
                    "name": "cardinality",
                    "status": "fail",
                    "checks": 1,
                    "failures": ["expected 5, found 4"],
                    "detail": "",
                },
            ],
        }

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 4
    assert "FAIL cardinality" in out
    assert "counterexample: expected 5, found 4" in out


def test_invariant_error_maps_to_exit_4(capsys, monkeypatch):
    def broken(w):
        raise InvariantError("deliberately broken for the exit-code test")

    monkeypatch.setattr(cli, "from_word", broken)
    code, out, err = run(capsys, "canon", "--n", "2", "1 1")
    assert code == 4
    assert out == ""
    assert err.startswith("invariant violated:")
