from __future__ import annotations

import pytest

import kiselman.algebra as algebra
import kiselman.enumeration as enumeration
import kiselman.verify as verify
from kiselman.enumeration import letter_bounds
from kiselman.errors import InvariantError
from kiselman.verify import SUITE_NAMES, run_suites


def test_solution_set_is_constructed_once_per_run(monkeypatch):
    calls = []
    construct = verify.construct_right_zero_solutions

    def counting(rank):
        calls.append(rank)
        return construct(rank)

    monkeypatch.setattr(verify, "construct_right_zero_solutions", counting)
    report = run_suites(4)
    assert report["all_passed"]
    assert calls == [4]


def test_failed_construction_fails_only_the_suites_that_use_it(monkeypatch):
    def broken(rank):
        raise InvariantError("deliberately broken construction")

    monkeypatch.setattr(verify, "construct_right_zero_solutions", broken)
    report = run_suites(3, samples=100)
    assert report["aborted"] is False
    assert [s["name"] for s in report["suites"]] == SUITE_NAMES
    failed = {s["name"] for s in report["suites"] if s["status"] == "fail"}
    assert failed == {"solution_structure", "prefix_bijection"}
    for suite in report["suites"]:
        if suite["name"] in failed:
            assert suite["failures"] == [
                "invariant violated: deliberately broken construction"
            ]


@pytest.mark.parametrize(
    ("rank", "edges"),
    [(3, 18 * 2), (5, 1710 * 4)],
    ids=["rank3-exhaustive", "rank5-samples-ignored"],
)
def test_zero_cancellation_checks_every_element_against_every_upper_generator(
    rank, edges
):
    # one right edge x * a_k per element x and letter k >= 2, and one
    # left product a_k * y per element y and letter k <= rank - 1; the
    # suite draws nothing, so the seed and the sample count do not show
    expected = {
        "name": "zero_cancellation",
        "status": "pass",
        "checks": 2 * edges,
        "failures": [],
        "detail": {"right_edges": edges, "left_edges": edges},
    }
    for seed in (0, 1):
        for samples in (10, 1000):
            report = run_suites(
                rank, seed=seed, samples=samples, names=["zero_cancellation"]
            )
            assert report["suites"] == [expected]


def test_zero_cancellation_needs_letters_above_1():
    report = run_suites(1, names=["zero_cancellation"])
    (suite,) = report["suites"]
    assert suite["status"] == "skip"
    assert suite["detail"] == {"reason": "needs letters above 1"}


def _corrupt_table(monkeypatch, corrupt):
    # every table filled from now on is handed to corrupt(semigroup,
    # columns, zero index) once it is complete
    fill = enumeration.Semigroup._fill

    def corrupted(self):
        columns = fill(self)
        corrupt(self, columns, self.index[tuple(range(self.rank, 0, -1))])
        return columns

    monkeypatch.setattr(enumeration.Semigroup, "_fill", corrupted)


def test_zero_cancellation_catches_a_right_edge_to_the_zero(monkeypatch):
    def corrupt(s, columns, zero_index):
        columns[2][s.index[(3,)]] = zero_index

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(3, names=["zero_cancellation"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert "x='3' * a_2 is the zero, but x is not" in suite["failures"]


def test_zero_cancellation_catches_an_entry_only_a_left_walk_reads(monkeypatch):
    # column 1 holds no right edge the suite checks: only the walk of
    # a_2 * a_1 reads the entry 2 * 1
    def corrupt(s, columns, zero_index):
        columns[1][s.index[(2,)]] = zero_index

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(3, names=["zero_cancellation"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert suite["failures"][0] == "a_2 * y='1' is the zero, but y is not"
    assert not any(f.startswith("x=") for f in suite["failures"])


@pytest.mark.parametrize(
    ("rank", "detail"),
    [
        (1, {"cardinality": 2, "parity": "even"}),
        (2, {"cardinality": 5, "parity": "odd"}),
        (3, {"cardinality": 18, "parity": "even", "one_first": 5, "top_first": 5}),
        (4, {"cardinality": 115, "parity": "odd", "one_first": 42, "top_first": 42}),
    ],
    ids=["rank1", "rank2", "rank3", "rank4"],
)
def test_parity_suite_splits_the_extreme_letter_words(rank, detail):
    # from rank 3 on: the parity, the closure count, the counting
    # identity, the equal halves and the mirror pairing
    report = run_suites(rank, names=["parity"])
    (suite,) = report["suites"]
    assert suite["status"] == "pass"
    assert suite["checks"] == (2 if rank <= 2 else 5)
    assert suite["detail"] == detail


def test_word_bounds_catches_a_bound_the_direct_search_also_uses(monkeypatch):
    # lower the bound on letter 2 at rank 4 for the direct search and the
    # suite alike: the closure's words still use letter 2 twice
    def tightened(rank):
        bounds = letter_bounds(rank)
        if rank == 4:
            bounds[2] -= 1
        return bounds

    monkeypatch.setattr(enumeration, "letter_bounds", tightened)
    monkeypatch.setattr(verify, "letter_bounds", tightened)
    report = run_suites(4, names=["word_bounds"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert suite["checks"] == 115 * 4
    assert "uses letter 2 2 times, bound 1" in suite["failures"][0]


def test_antiautomorphism_suite_catches_a_flip_that_does_not_reverse(monkeypatch):
    # flipping the letters alone keeps words canonical and is an
    # involution, but it moves the zero and does not reverse products
    def flip_only(letters, rank):
        return tuple(rank + 1 - i for i in letters)

    monkeypatch.setattr(algebra, "_reverse_flip", flip_only)
    monkeypatch.setattr(verify, "_reverse_flip", flip_only)
    report = run_suites(3, names=["antiautomorphism"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert "the antiautomorphism moved the zero" in suite["failures"]
    assert any(f.startswith("product not reversed") for f in suite["failures"])


def test_antiautomorphism_suite_reports_a_non_canonical_image(monkeypatch):
    monkeypatch.setattr(verify, "_reverse_flip", lambda letters, rank: letters * 2)
    report = run_suites(3, names=["antiautomorphism"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert suite["failures"][0] == "image '1 1' of '1' is not canonical"


# (name, status, checks, detail) of every suite, for three fixed runs; a
# change that moves a count or a detail must change it here too.
PINNED_REPORTS = {
    (4, 1000): [
        ("cardinality", "pass", 3, {"closure": 115, "direct": 115, "golden": 115}),
        ("confluence", "pass", 1000, {"max_length": 12}),
        ("idempotents", "pass", 116, {"count": 16, "expected": 16}),
        ("content", "pass", 1001, {"pairs": 1000, "exhaustive": False}),
        ("antiautomorphism", "pass", 1120, {"exhaustive": False}),
        ("word_bounds", "pass", 460, {"words": 115}),
        ("prefix_stability", "pass", 990, {"stems": 18, "deleted": 799}),
        ("prefix_recovery", "pass", 1000, {"deleted": 806}),
        ("zero_cancellation", "pass", 690,
         {"right_edges": 345, "left_edges": 345}),
        ("solution_structure", "pass", 365, {"solutions": 19, "submonoid": 18}),
        ("prefix_bijection", "pass", 19, {"solutions_with_one": 18}),
        ("parity", "pass", 5,
         {"cardinality": 115, "parity": "odd", "one_first": 42, "top_first": 42}),
    ],
    (5, 100): [
        ("cardinality", "pass", 3, {"closure": 1710, "direct": 1710, "golden": 1710}),
        ("confluence", "pass", 100, {"max_length": 12}),
        ("idempotents", "pass", 1711, {"count": 32, "expected": 32}),
        ("content", "pass", 101, {"pairs": 100, "exhaustive": False}),
        ("antiautomorphism", "pass", 1816, {"exhaustive": False}),
        ("word_bounds", "pass", 8550, {"words": 1710}),
        ("prefix_stability", "pass", 115, {"stems": 115, "deleted": 93}),
        ("prefix_recovery", "pass", 100, {"deleted": 84}),
        ("zero_cancellation", "pass", 13680,
         {"right_edges": 6840, "left_edges": 6840}),
        ("solution_structure", "pass", 13460, {"solutions": 116, "submonoid": 115}),
        ("prefix_bijection", "pass", 116, {"solutions_with_one": 115}),
        ("parity", "pass", 5,
         {"cardinality": 1710, "parity": "even", "one_first": 749, "top_first": 749}),
    ],
    (6, 1000): [
        ("cardinality", "pass", 3,
         {"closure": 83973, "direct": 83973, "golden": 83973}),
        ("confluence", "pass", 1000, {"max_length": 12}),
        ("idempotents", "pass", 83974, {"count": 64, "expected": 64}),
        ("content", "pass", 1001, {"pairs": 1000, "exhaustive": False}),
        ("antiautomorphism", "pass", 84980, {"exhaustive": False}),
        ("word_bounds", "pass", 503838, {"words": 83973}),
        ("prefix_stability", "pass", 1710, {"stems": 1710, "deleted": 1364}),
        ("prefix_recovery", "pass", 1000, {"deleted": 796}),
        ("zero_cancellation", "pass", 839730,
         {"right_edges": 419865, "left_edges": 419865}),
        ("solution_structure", "pass", 1004, {"solutions": 1711, "submonoid": 1710}),
        ("prefix_bijection", "pass", 1711, {"solutions_with_one": 1710}),
        ("parity", "pass", 5,
         {"cardinality": 83973, "parity": "odd", "one_first": 40334, "top_first": 40334}),
    ],
}


@pytest.mark.parametrize(
    ("rank", "samples"),
    [
        pytest.param(4, 1000, id="rank4"),
        pytest.param(5, 100, id="rank5-samples100"),
        pytest.param(6, 1000, id="rank6", marks=pytest.mark.n6),
    ],
)
def test_report_is_pinned(rank, samples):
    report = run_suites(rank, samples=samples)
    got = [(s["name"], s["status"], s["checks"], s["detail"]) for s in report["suites"]]
    assert got == PINNED_REPORTS[rank, samples]
    # a prefix suite whose products delete no letter has checked only
    # concatenations, on which both prefix facts hold trivially
    for suite in report["suites"]:
        if suite["name"] in ("prefix_stability", "prefix_recovery"):
            assert suite["detail"]["deleted"] > 0


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_only_confluence_calls_the_rewriter(monkeypatch, rank):
    # every other suite takes its products from the table; the
    # construction multiplies through algebra, not through these names
    def refuse(*args, **kwargs):
        raise AssertionError("a suite called the rewriter")

    monkeypatch.setattr(verify, "canonical_form", refuse)
    monkeypatch.setattr(verify, "all_normal_forms", refuse)
    names = [name for name in SUITE_NAMES if name != "confluence"]
    report = run_suites(rank, names=names)
    assert report["aborted"] is False
    assert [(s["name"], s["status"]) for s in report["suites"]] == [
        (name, "pass") for name in names
    ]


def test_solution_structure_catches_a_wrong_special_solution(monkeypatch):
    # name a different solution as the special one: the three-case rule
    # then disagrees with the table on the products with it on the right
    construct = verify.construct_right_zero_solutions

    def wrong_special(rank):
        built = construct(rank)
        other = max(built.decomposition.containing_one, key=algebra.sort_key)
        return built._replace(decomposition=built.decomposition._replace(special=other))

    monkeypatch.setattr(verify, "construct_right_zero_solutions", wrong_special)
    report = run_suites(3, names=["solution_structure"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert suite["failures"][0].startswith("case rule gave")
