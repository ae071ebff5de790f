from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

import kiselman.algebra as algebra
import kiselman.enumeration as enumeration
import kiselman.equations as equations
import kiselman.rewrite as rewrite
import kiselman.verify as verify
from kiselman.enumeration import letter_bounds
from kiselman.errors import InvariantError, ValidationError
from kiselman.verify import SUITE_NAMES, run_suites
from kiselman.words import Word


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
    report = run_suites(3)
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
    ("rank", "expected"),
    [
        (3, {
            "zero_cancellation": (72, {"right_edges": 36, "left_edges": 36}),
            "content": (55, {"edges": 54}),
            "antiautomorphism": (76, {"edges": 54}),
            "solution_structure": (22, {"solutions": 6, "submonoid": 5}),
        }),
        (5, {
            "zero_cancellation": (13680, {"right_edges": 6840, "left_edges": 6840}),
            "content": (8551, {"edges": 8550}),
            "antiautomorphism": (10266, {"edges": 8550}),
            "solution_structure": (584, {"solutions": 116, "submonoid": 115}),
        }),
    ],
    ids=["rank3-exhaustive", "rank5-seed-ignored"],
)
def test_zero_cancellation_checks_every_element_against_every_upper_generator(
    rank, expected
):
    # the product suites check every edge of the table, so the seed does
    # not show.  zero_cancellation: one right edge x * a_k per element x
    # and letter k >= 2, one left product a_k * y per element y and
    # letter k <= rank - 1.  content and antiautomorphism: every edge
    # x * a_k, after one count of the contents, or the zero, the
    # generators and the involution.  solution_structure: its four
    # counts, then x * special and x * a_k, k >= 2, for every solution x.
    names = list(expected)
    for seed in (0, 1):
        report = run_suites(rank, seed=seed, names=names)
        assert report["suites"] == [
            {
                "name": name,
                "status": "pass",
                "checks": checks,
                "failures": [],
                "detail": detail,
            }
            for name, (checks, detail) in expected.items()
        ]


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
    # from rank 3 on: the parity, the counting identity, the equal
    # halves and the mirror pairing; cardinality holds the direct
    # search's count to the closure's
    report = run_suites(rank, names=["parity"])
    (suite,) = report["suites"]
    assert suite["status"] == "pass"
    assert suite["checks"] == (1 if rank <= 2 else 4)
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


# (name, status, checks, detail) of every suite, at three ranks; a
# change that moves a count or a detail must change it here too.
PINNED_REPORTS = {
    4: [
        ("cardinality", "pass", 3, {"closure": 115, "direct": 115, "golden": 115}),
        ("confluence", "pass", 167, {"invariance": 52, "words": 115, "distinct": 115}),
        ("idempotents", "pass", 116, {"count": 16, "expected": 16}),
        ("content", "pass", 461, {"edges": 460}),
        ("antiautomorphism", "pass", 580, {"edges": 460}),
        ("word_bounds", "pass", 460, {"words": 115}),
        ("prefix_stability", "pass", 318, {"edges": 291, "walks": 27}),
        ("prefix_recovery", "pass", 345, {"edges": 345}),
        ("zero_cancellation", "pass", 690,
         {"right_edges": 345, "left_edges": 345}),
        ("solution_structure", "pass", 80, {"solutions": 19, "submonoid": 18}),
        ("prefix_bijection", "pass", 19, {"solutions_with_one": 18}),
        ("parity", "pass", 4,
         {"cardinality": 115, "parity": "odd", "one_first": 42, "top_first": 42}),
    ],
    5: [
        ("cardinality", "pass", 3, {"closure": 1710, "direct": 1710, "golden": 1710}),
        ("confluence", "pass", 1992,
         {"invariance": 282, "words": 1710, "distinct": 1710}),
        ("idempotents", "pass", 1711, {"count": 32, "expected": 32}),
        ("content", "pass", 8551, {"edges": 8550}),
        ("antiautomorphism", "pass", 10266, {"edges": 8550}),
        ("word_bounds", "pass", 8550, {"words": 1710}),
        ("prefix_stability", "pass", 7350, {"edges": 6380, "walks": 970}),
        ("prefix_recovery", "pass", 6840, {"edges": 6840}),
        ("zero_cancellation", "pass", 13680,
         {"right_edges": 6840, "left_edges": 6840}),
        ("solution_structure", "pass", 584, {"solutions": 116, "submonoid": 115}),
        ("prefix_bijection", "pass", 116, {"solutions_with_one": 115}),
        ("parity", "pass", 4,
         {"cardinality": 1710, "parity": "even", "one_first": 749, "top_first": 749}),
    ],
    6: [
        ("cardinality", "pass", 3,
         {"closure": 83973, "direct": 83973, "golden": 83973}),
        ("confluence", "pass", 87675,
         {"invariance": 3702, "words": 83973, "distinct": 83973}),
        ("idempotents", "pass", 83974, {"count": 64, "expected": 64}),
        ("content", "pass", 503839, {"edges": 503838}),
        ("antiautomorphism", "pass", 587818, {"edges": 503838}),
        ("word_bounds", "pass", 503838, {"words": 83973}),
        ("prefix_stability", "pass", 496143, {"edges": 411315, "walks": 84828}),
        ("prefix_recovery", "pass", 419865, {"edges": 419865}),
        ("zero_cancellation", "pass", 839730,
         {"right_edges": 419865, "left_edges": 419865}),
        ("solution_structure", "pass", 10270, {"solutions": 1711, "submonoid": 1710}),
        ("prefix_bijection", "pass", 1711, {"solutions_with_one": 1710}),
        ("parity", "pass", 4,
         {"cardinality": 83973, "parity": "odd", "one_first": 40334, "top_first": 40334}),
    ],
}


@pytest.mark.parametrize(
    "rank",
    [
        pytest.param(4, id="rank4"),
        pytest.param(5, id="rank5"),
        pytest.param(6, id="rank6", marks=pytest.mark.n6),
    ],
)
def test_report_is_pinned(rank):
    report = run_suites(rank)
    got = [(s["name"], s["status"], s["checks"], s["detail"]) for s in report["suites"]]
    assert got == PINNED_REPORTS[rank]


@pytest.mark.parametrize(
    "rank", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.n6)]
)
def test_report_does_not_depend_on_the_seed(rank):
    first, *others = [run_suites(rank, seed=seed) for seed in (0, 1, 2024)]
    assert first["all_passed"]
    assert "seed" not in first and "samples" not in first
    assert others == [first, first]


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_no_suite_calls_the_rewriter(monkeypatch, rank):
    # every suite takes its products from the table or the linear
    # model; the construction multiplies through algebra's fold
    def refuse(*args, **kwargs):
        raise AssertionError("a suite called the rewriter")

    for name in ("_deletions", "canonical_letters", "all_normal_forms"):
        monkeypatch.setattr(rewrite, name, refuse)
    assert not any(
        getattr(value, "__module__", None) == rewrite.__name__
        for value in vars(verify).values()
    )
    report = run_suites(rank)
    assert report["aborted"] is False
    assert [(s["name"], s["status"]) for s in report["suites"]] == [
        (name, "pass") for name in SUITE_NAMES
    ]


def _solutions_with_one(rank):
    return [
        x for x in equations.construct_right_zero_solutions(rank)
        if 1 in x.word.letters
    ]


def test_solution_structure_catches_a_wrong_special_solution(monkeypatch):
    # name a different solution as the special one: the three-case rule
    # then disagrees with the table on the products with it on the right
    other = max(_solutions_with_one(3), key=algebra.sort_key)
    monkeypatch.setattr(verify, "idempotent", lambda subset, rank: other)
    report = run_suites(3, names=["solution_structure"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert suite["failures"][0].startswith("case rule gave")


def test_content_and_antiautomorphism_catch_one_wrong_column_entry(monkeypatch):
    # 5 3 1 * a_2 is 5 3 1 2; ten sampled pairs would hardly read the
    # entry, every edge check reads it
    def corrupt(s, columns, zero_index):
        columns[2][s.index[(5, 3, 1)]] = s.index[(4, 2)]

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(5, names=["content", "antiautomorphism"])
    content, anti = report["suites"]
    assert content["status"] == "fail"
    assert content["failures"] == ["content(x*a_2) != content(x) | {2} at x='5 3 1'"]
    assert anti["status"] == "fail"
    # the left products read the entry first: tau(4 5 3 * a_1) is
    # a_5 * tau(4 5 3), a_5 * 3 1 2, whose walk passes 5 3 1 * a_2
    assert anti["failures"][0] == "product not reversed at x='4 5 3' * a_1"


def test_solution_structure_catches_a_solution_leaving_under_an_upper_letter(
    monkeypatch,
):
    # 1 5 4 3 2 solves x * a_1 = zero, and so does its product with a_3,
    # itself; a_1 does not
    def corrupt(s, columns, zero_index):
        if s.rank == 5:  # not the construction's rank-4 table
            columns[3][s.index[(1, 5, 4, 3, 2)]] = s.index[(1,)]

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(5, names=["solution_structure"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert (
        "product '1' of '1 5 4 3 2' * a_3 escaped the solution set"
        in suite["failures"]
    )


def test_unit_weights_fail_the_confluence_certificate(monkeypatch):
    # with every weight 1 the model still survives each deletion, but
    # the 115 canonical words of rank 4 have 114 matrices, and the
    # all-ones row times them 86 vectors
    def unit_weights(rank):
        return [()] + [
            (1,) * (i - 1) + (0,) * (rank - i + 1) for i in range(1, rank + 1)
        ]

    monkeypatch.setattr(verify, "_letter_rows", unit_weights)
    report = run_suites(4, names=["confluence"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    assert suite["detail"] == {"invariance": 52, "words": 115, "distinct": 86}
    assert len(suite["failures"]) == 10
    assert all(f.endswith("share one vector") for f in suite["failures"])


def test_a_model_that_deletions_change_fails_the_confluence_certificate(monkeypatch):
    # with its diagonal 1, A_2 is no longer idempotent, and deletions of
    # both kinds move M
    rows = verify._letter_rows

    def unit_diagonal(rank):
        return [
            row[:i - 1] + (1,) + row[i:] if i else row
            for i, row in enumerate(rows(rank))
        ]

    monkeypatch.setattr(verify, "_letter_rows", unit_diagonal)
    report = run_suites(3, names=["confluence"])
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    for deletion in ("2 2 -> 2", "2 1 2 -> 2 1", "2 3 2 -> 3 2"):
        assert f"the deletion {deletion} moves M" in suite["failures"]


def test_a_negative_weight_is_refused_by_the_confluence_certificate(monkeypatch):
    # the packed rows' width bounds only nonnegative entries
    rows = verify._letter_rows

    def negative(rank):
        return [row if i != 2 else (-row[0], *row[1:]) for i, row in enumerate(rows(rank))]

    monkeypatch.setattr(verify, "_letter_rows", negative)
    assert _failures(3, "confluence") == [
        "invariant violated: the linear model has a negative weight"
    ]


def _plain(letters, rank):
    # M(letters) by the definition: products of the letters' matrices
    rows = verify._letter_rows(rank)
    identity = [[int(r == c) for c in range(rank)] for r in range(rank)]
    m = identity
    for g in letters:
        a = identity[:g - 1] + [list(rows[g])] + identity[g:]
        m = [
            [sum(row[k] * a[k][c] for k in range(rank)) for c in range(rank)]
            for row in m
        ]
    return m


def _packed(model, letters):
    # the rows of M(letters) by the model, along the word's prefixes
    prefixes = [letters[:end] for end in range(len(letters) + 1)]
    return [model.along(unit, prefixes)[-1] for unit in model.units[1:]]


def test_packed_model_is_the_matrix_product():
    # unpacked, the model's rows are the plain products, along the
    # direct search and by times alike
    rank = 4
    words = enumeration._canonical_words(rank)
    model = verify._Model(rank, max(map(len, words)))
    width = model.mask.bit_length()

    def pack(row):
        return sum(x << c * width for c, x in enumerate(row))

    vectors = model.along(sum(model.units[1:]), words)
    for letters, vector in zip(words, vectors):
        plain = _plain(letters, rank)
        assert _packed(model, letters) == list(map(pack, plain))
        assert vector == pack(list(map(sum, zip(*plain))))
        if letters:
            shorter = _packed(model, letters[:-1])
            grown = [model.times(v, letters[-1]) for v in shorter]
            assert grown == list(map(pack, plain))


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_linear_model_holds_every_table_edge(rank):
    # the model shares no code with the table: M(x * a_k) = M(x) A_k on
    # every edge, and the certificate makes M faithful
    s = enumeration.Semigroup(rank)
    model = verify._Model(rank, max(map(len, s.words)) + 1)
    matrices = [_packed(model, w) for w in s.words]
    for k in range(1, rank + 1):
        for x, xk in enumerate(s.columns[k]):
            grown = [model.times(v, k) for v in matrices[x]]
            assert matrices[xk] == grown, (s.words[x], k)


def test_linear_model_checks_multiply_at_rank_6():
    rng = random.Random(6)
    model = verify._Model(6, 24)
    for _ in range(300):
        x, y = (
            tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 12)))
            for _ in range(2)
        )
        product = algebra.multiply(
            algebra.from_word(Word(x, 6)), algebra.from_word(Word(y, 6))
        )
        assert _packed(model, product.word.letters) == _packed(model, x + y), (x, y)


def test_one_wrong_walk_entry_fails_both_prefix_suites(monkeypatch):
    # 3 1 2 4 * a_2 is 3 1 4 2, a walk; 1 4 2 has another stem
    def corrupt(s, columns, zero_index):
        if s.rank == 4:
            columns[2][s.index[(3, 1, 2, 4)]] = s.index[(1, 4, 2)]

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(4, names=["prefix_stability", "prefix_recovery"])
    stability, recovery = report["suites"]
    assert stability["status"] == recovery["status"] == "fail"
    assert stability["failures"] == ["'3 1 2 4' * a_2 lost the part up to letter 1"]
    assert recovery["failures"] == ["'3 1 2 4' * a_2 moved the part up to letter 1"]


def test_prefix_stability_catches_a_tail_that_is_not_a_subsequence(monkeypatch):
    # 3 1 4 3 2 keeps the stem 3 1, but its tail 4 3 2 is not a
    # subsequence of 2 4 2
    def corrupt(s, columns, zero_index):
        if s.rank == 4:
            columns[2][s.index[(3, 1, 2, 4)]] = s.index[(3, 1, 4, 3, 2)]

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(4, names=["prefix_stability", "prefix_recovery"])
    stability, recovery = report["suites"]
    assert recovery["status"] == "pass"
    assert stability["failures"] == [
        "'3 1 2 4' * a_2 = '3 1 4 3 2': tail '4 3 2' is not a subsequence of '2 4 2'"
    ]


def test_prefix_recovery_catches_a_letter_1_from_nowhere(monkeypatch):
    # 3 * a_2 is 3 2; 3 1 holds a letter 1 that neither factor has, and
    # only prefix_recovery reads the edges of words without one
    def corrupt(s, columns, zero_index):
        columns[2][s.index[(3,)]] = s.index[(3, 1)]

    _corrupt_table(monkeypatch, corrupt)
    report = run_suites(3, names=["prefix_stability", "prefix_recovery"])
    stability, recovery = report["suites"]
    assert stability["status"] == "pass"
    assert recovery["failures"] == ["'3' * a_2 moved the part up to letter 1"]


# Every failure text of the suites below is seen at least once: each test
# breaks one input the suite reads and asserts the text it fails with.


def _failures(rank, name):
    (suite,) = run_suites(rank, names=[name])["suites"]
    assert suite["status"] == "fail"
    return suite["failures"]


def test_content_suite_catches_a_content_no_element_has(monkeypatch):
    # read as ending in 1, the word 2 loses its letter: no element's
    # content is {2}, and the four edges into 2 and 2 1 that should
    # add letter 2 fail
    def relabelled(rank):
        s = enumeration.Semigroup(rank)
        s.columns
        s._lasts[s.index[(2,)]] = 1
        return s

    monkeypatch.setattr(verify, "Semigroup", relabelled)
    assert _failures(2, "content") == [
        "content(x*a_1) != content(x) | {1} at x='1 2'",
        "content(x*a_2) != content(x) | {2} at x=''",
        "content(x*a_2) != content(x) | {2} at x='2'",
        "content(x*a_2) != content(x) | {2} at x='2 1'",
        "3 distinct contents, expected 4",
    ]


def _search_without(rank, dropped):
    # the direct search, missing one word at one rank
    search = enumeration._canonical_words

    def missing(r):
        words = search(r)
        return [w for w in words if w != dropped] if r == rank else words

    return missing


def test_cardinality_suite_catches_a_word_the_direct_search_misses(monkeypatch):
    monkeypatch.setattr(verify, "_canonical_words", _search_without(2, (2, 1)))
    assert _failures(2, "cardinality") == [
        "closure found 5 elements, canonical-word search found 4",
        "the two enumeration routes disagree on the element sets",
        "rank-2 listing is ['', '1', '1 2', '2']",
    ]


def test_cardinality_suite_catches_a_wrong_golden_value(monkeypatch):
    monkeypatch.setattr(verify, "KNOWN_CARDINALITIES", {3: 19})
    assert _failures(3, "cardinality") == [
        "cardinality 18 differs from the cross-validated value 19"
    ]


def test_idempotents_suite_catches_a_wrong_expected_idempotent(monkeypatch):
    # the increasing word 1 2 is not idempotent: its square is 2 1
    monkeypatch.setattr(
        verify, "idempotent", lambda subset, rank: algebra.Element(Word(subset, rank))
    )
    assert _failures(2, "idempotents") == [
        "idempotents mismatch: extra=['2 1'] missing=['1 2']"
    ]


def test_solution_structure_catches_a_construction_that_drops_a_solution(
    monkeypatch,
):
    construct = verify.construct_right_zero_solutions

    def dropping(rank):
        lost = max(_solutions_with_one(rank), key=algebra.sort_key)
        return construct(rank) - {lost}

    monkeypatch.setattr(verify, "construct_right_zero_solutions", dropping)
    assert _failures(3, "solution_structure")[:2] == [
        "constructive and brute-force solution sets differ",
        "|solutions| = 5, expected 1 + 5",
    ]


def test_solution_structure_catches_a_submonoid_of_the_wrong_size(monkeypatch):
    submonoid = verify._Context.submonoid.func
    monkeypatch.setattr(verify._Context, "submonoid", property(
        lambda ctx: submonoid(ctx) - {algebra.identity(ctx.rank)}
    ))
    assert _failures(3, "solution_structure") == [
        "|solutions| = 6, expected 1 + 4",
        "submonoid avoiding letter 1 has 4 members, rank 2 has 5 elements",
    ]


def test_prefix_bijection_catches_a_map_that_is_not_injective(monkeypatch):
    monkeypatch.setattr(verify, "prefix_before_one", lambda x: algebra.zero(x.rank))
    assert _failures(3, "prefix_bijection") == [
        "prefix map is not injective on the solutions",
        "prefix map does not cover the submonoid avoiding letter 1",
    ]


def test_prefix_bijection_catches_a_map_that_misses_the_submonoid(monkeypatch):
    # the identity is injective, but every solution holds letter 1
    monkeypatch.setattr(verify, "prefix_before_one", lambda x: x)
    assert _failures(3, "prefix_bijection") == [
        "prefix map does not cover the submonoid avoiding letter 1"
    ]


def test_parity_suite_catches_a_word_the_direct_search_misses(monkeypatch):
    # 1 3 holds both extreme letters, 1 first: without it the count is
    # odd, the counting identity fails and the halves no longer pair
    monkeypatch.setattr(verify, "_canonical_words", _search_without(3, (1, 3)))
    assert _failures(3, "parity") == [
        "cardinality 17 is odd, rank 3 demands even",
        "the counting identity fails",
        "extreme-letter halves differ: 4 vs 5",
        "the mirror map does not pair the two halves",
    ]


def test_an_unknown_suite_is_refused_before_the_semigroup_is_built(monkeypatch):
    def refuse(rank):
        raise AssertionError("the context was built")

    monkeypatch.setattr(verify, "_Context", refuse)
    with pytest.raises(ValidationError, match=r"^unknown suite 'nope'$"):
        run_suites(3, names=["cardinality", "nope"])


def _edit_lower(monkeypatch, edit):
    # the construction reads the words and zero thresholds of K_{n-1},
    # which edit(words, thresholds) replaces
    def lower(rank):
        s = enumeration.Semigroup(rank)
        words, thresholds = edit(s.words, s.zero_thresholds())
        return SimpleNamespace(words=words, zero_thresholds=lambda: thresholds)

    monkeypatch.setattr(equations, "Semigroup", lower)


def test_construction_refuses_a_special_solution_off_the_zero(monkeypatch):
    # the idempotent over 3..n, times a_1, misses letter 2 of the zero
    idempotent = equations.idempotent
    monkeypatch.setattr(
        equations, "idempotent", lambda letters, rank: idempotent(range(3, rank + 1), rank)
    )
    assert _failures(3, "solution_structure") == [
        "invariant violated: the special solution must reach the zero"
    ]


def test_construction_refuses_a_non_solution(monkeypatch):
    # threshold 0 for the identity builds the solution 1, and 1 * a_1 is 1
    _edit_lower(monkeypatch, lambda words, thresholds: (words, [0] * len(words)))
    assert _failures(3, "solution_structure") == [
        "invariant violated: constructed non-solution '1'"
    ]


def test_construction_refuses_two_members_with_one_solution(monkeypatch):
    _edit_lower(
        monkeypatch,
        lambda words, thresholds: (words + words[-1:], thresholds + thresholds[-1:]),
    )
    assert _failures(3, "solution_structure") == [
        "invariant violated: solution construction must be injective over "
        "the submonoid: 6 members gave 5 solutions"
    ]


def test_idempotents_suite_catches_idempotent_words_that_coincide(monkeypatch):
    monkeypatch.setattr(verify, "idempotent", lambda subset, rank: algebra.identity(rank))
    assert _failures(2, "idempotents")[0] == (
        "decreasing idempotent words are not pairwise distinct"
    )


def test_the_identity_map_fails_both_suites_that_read_the_antiautomorphism(
    monkeypatch,
):
    # it fixes a_2 but not a_1 and a_3, and it does not swap the sides
    # of x * a_1 = zero
    monkeypatch.setattr(verify, "antiautomorphism", lambda x: x)
    report = run_suites(3, names=["antiautomorphism", "solution_structure"])
    anti, structure = report["suites"]
    assert anti["failures"] == ["generator 1 not sent to 3", "generator 3 not sent to 1"]
    assert structure["failures"] == [
        "the solutions of a_3 * y = zero are not the antiautomorphism's image "
        "of the solutions of x * a_1 = zero"
    ]


def test_antiautomorphism_suite_catches_a_map_that_is_not_an_involution(monkeypatch):
    # each canonical word to the next one: canonical, but a cycle of 18
    words = enumeration.Semigroup(3).words
    following = dict(zip(words, words[1:] + words[:1]))
    monkeypatch.setattr(verify, "_reverse_flip", lambda letters, rank: following[letters])
    failures = _failures(3, "antiautomorphism")
    assert failures[0] == "not an involution at ''"


def test_parity_suite_refuses_a_word_with_an_extreme_letter_twice(monkeypatch):
    search = enumeration._canonical_words
    monkeypatch.setattr(
        verify, "_canonical_words", lambda r: search(r) + [(1, 3, 1)] * (r == 3)
    )
    assert _failures(3, "parity") == [
        "invariant violated: extreme letters must occur exactly once, got '1 3 1'"
    ]


def test_solver_refuses_a_split_that_loses_the_special_solution(monkeypatch):
    # with every content holding letter 1, no solution is left to be special
    monkeypatch.setattr(equations, "content", lambda x: frozenset({1}))
    assert _failures(3, "solution_structure") == [
        "invariant violated: solutions avoiding letter 1 must be exactly the "
        "decreasing idempotent over 2..3, got []"
    ]
