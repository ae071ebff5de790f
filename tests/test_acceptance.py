"""Acceptance checks: each shipped claim is one row of CLAIMS.

A row names the verification suites that prove the claim, the ranks to
run them at, and a runtime budget, which is part of the claim.  No suite
samples, so a row needs no seed.  The proofs live in kiselman.verify alone: a claim
holds when, at every rank, the run is not aborted and every named suite
passes with at least one check (a skipped suite would pass vacuously),
all within the budget.  One test per claim prints a single [PASS]/[FAIL]
line (run with -s to watch them stream by).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from kiselman.verify import run_suites


@dataclass(frozen=True)
class Claim:
    suites: tuple[str, ...]
    ranks: tuple[int, ...]
    budget: float  # seconds, for all ranks together


CLAIMS = {
    "base cardinalities": Claim(("cardinality",), (1, 2), 1.0),
    "cardinality parity": Claim(("cardinality", "parity"), (3, 4), 30.0),
    # the linear model's certificate: invariance under both deletions,
    # and one vector per canonical word
    "normal form uniqueness": Claim(("confluence",), (1, 2, 3, 4, 5), 2.0),
    "idempotent count": Claim(("idempotents",), (1, 2, 3, 4), 30.0),
    # every edge x * a_k (k >= 2) and product a_k * y (k <= n - 1), which
    # by induction covers factors of every length; nothing is sampled
    "zero cancellation": Claim(("zero_cancellation",), (2, 3, 4), 300.0),
    # x * special = x and S * a_k inside S (k >= 2) for every solution
    # x, which cover every product of two solutions
    "right-zero equation structure": Claim(
        ("solution_structure", "prefix_bijection"), (2, 3, 4, 5), 60.0
    ),
    "letter occurrence bounds": Claim(("word_bounds",), (1, 2, 3, 4), 30.0),
    "letter occurrence bounds, rank 5": Claim(("word_bounds",), (5,), 60.0),
    # every edge x * a_k, which by induction covers factors of every
    # length; nothing is sampled
    "structural maps": Claim(
        ("antiautomorphism", "content"), (1, 2, 3, 4, 5), 10.0
    ),
    "enumerator agreement": Claim(("cardinality",), (1, 2, 3, 4), 60.0),
}


def _prove(title: str) -> None:
    claim = CLAIMS[title]
    start = time.perf_counter()
    problems = []
    for rank in claim.ranks:
        report = run_suites(rank, names=list(claim.suites))
        if report["aborted"] is not False:
            problems.append(f"rank {rank}: aborted: {report.get('error')}")
        outcomes = {suite["name"]: suite for suite in report["suites"]}
        for name in claim.suites:
            suite = outcomes.get(name)
            if suite is None or suite["status"] != "pass" or suite["checks"] <= 0:
                problems.append(f"rank {rank}: {name}: {suite}")
    elapsed = time.perf_counter() - start
    passed = not problems and elapsed <= claim.budget
    print(f"[{'PASS' if passed else 'FAIL'}] {title} ({elapsed:.2f}s)")
    assert not problems, f"{title}: {problems}"
    assert elapsed <= claim.budget, (
        f"{title}: took {elapsed:.2f}s, budget {claim.budget}s"
    )


def test_base_cardinalities():
    _prove("base cardinalities")


def test_cardinality_parity():
    _prove("cardinality parity")


def test_normal_form_uniqueness():
    _prove("normal form uniqueness")


def test_idempotent_count():
    _prove("idempotent count")


def test_zero_cancellation():
    _prove("zero cancellation")


def test_right_zero_equation_structure():
    _prove("right-zero equation structure")


def test_letter_occurrence_bounds():
    _prove("letter occurrence bounds")


@pytest.mark.n5
def test_letter_occurrence_bounds_rank_5():
    _prove("letter occurrence bounds, rank 5")


def test_structural_maps():
    _prove("structural maps")


def test_enumerator_agreement():
    _prove("enumerator agreement")
