from __future__ import annotations

import json

import pytest

from kiselman import cli
from kiselman.cli import main
from kiselman.errors import InvariantError


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
    code, second, _ = run(
        capsys, "enum", "--n", "3", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert first == second


def test_corrupt_cache_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "k2.cache").write_text("kiselman-cache v1 n=2 count=1\n1 2 1\n")
    code, out, err = run(
        capsys, "enum", "--n", "2", "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert "non-canonical" in err


def test_forged_cache_count_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "k3.cache").write_text("kiselman-cache v1 n=3 count=3\n\n1\n2\n")
    code, out, err = run(
        capsys, "stats", "--n", "3", "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert "rank 3 has 18 elements" in err


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KISELMAN_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "enum", "--n", "2")
    assert code == 0
    assert (tmp_path / "k2.cache").exists()


def test_cache_flag_overrides_env_var(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("KISELMAN_CACHE_DIR", str(env_dir))
    code, _, _ = run(
        capsys, "enum", "--n", "2", "--cache-dir", str(flag_dir),
    )
    assert code == 0
    assert (flag_dir / "k2.cache").exists()
    assert not (env_dir / "k2.cache").exists()


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


def test_verify_rank_2_passes(capsys):
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1].startswith("verify rank=2 seed=0 suites=")
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
    code, out, err = run(capsys, "enum", "--n", "7")
    assert code == 3
    assert out == ""
    assert "--allow-large" in err


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
    def fake_run_suites(rank, seed, samples, limit, names):
        return {
            "rank": rank,
            "seed": seed,
            "samples": samples,
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

    monkeypatch.setattr(cli, "canonical_form", broken)
    code, out, err = run(capsys, "canon", "--n", "2", "1 1")
    assert code == 4
    assert out == ""
    assert err.startswith("invariant violated:")
