from __future__ import annotations

import pytest

from conftest import elements
import kiselman.algebra as algebra
from kiselman.algebra import (
    Element,
    content,
    from_word,
    generator,
    identity,
    multiply,
    prefix_before_one,
    zero,
    zero_threshold,
)
from kiselman.enumeration import KNOWN_CARDINALITIES, Semigroup
from kiselman.equations import (
    construct_right_zero_solutions,
    solve_right_zero,
)
from kiselman.errors import ValidationError
from kiselman.rewrite import _fold
from kiselman.words import Word, parse_word


def elem(text, rank):
    return from_word(parse_word(text, rank))


def shifted_up(semigroup):
    """The elements of semigroup, every letter shifted up by one.

    K_{n-1} shifted is the submonoid of K_n avoiding letter 1.
    """
    rank = semigroup.rank + 1
    return {
        Element(Word(tuple(g + 1 for g in w), rank)) for w in semigroup.words
    }


def multiply_scan(y, elements):
    """The oracle for the table solver: every x with x * y = zero, by `multiply`."""
    return frozenset(x for x in elements if multiply(x, y) == zero(y.rank))


def test_multiplying_by_a_middle_generator_only_zero_stays_zero(k3):
    solved = solve_right_zero(generator(2, 3), k3)
    assert solved.solutions == frozenset({zero(3)})


def test_right_zero_solution_count_rank_2(k2):
    solved = solve_right_zero(generator(1, 2), k2)
    assert len(solved.solutions) == 3
    assert solved.solutions == {
        elem("2", 2), elem("1 2", 2), elem("2 1", 2),
    }


def test_solving_against_zero_returns_everything(k3):
    solved = solve_right_zero(zero(3), k3)
    assert solved.solutions == elements(k3)


def test_solving_against_identity_returns_only_zero(k3):
    # x * e = x, so the equation just asks x to be the zero already
    solved = solve_right_zero(identity(3), k3)
    assert solved.solutions == frozenset({zero(3)})


def test_right_zero_count_recurrence(k2, k3, k4):
    # one solution avoids letter 1 entirely, the rest embed a copy of the
    # rank n-1 structure
    for result in (k2, k3, k4):
        rank = result.rank
        solved = solve_right_zero(generator(1, rank), result)
        assert len(solved.solutions) == 1 + KNOWN_CARDINALITIES[rank - 1]


def test_constructive_matches_brute_force(k2, k3, k4):
    for result in (k2, k3, k4):
        rank = result.rank
        constructed = construct_right_zero_solutions(rank)
        brute = solve_right_zero(generator(1, rank), result)
        assert constructed.solutions == brute.solutions


def test_construction_builds_no_semigroup_over_letter_one(monkeypatch):
    # the construction reads K_{n-1} alone, shifted up one letter
    built = []
    init = Semigroup.__init__

    def recording(self, rank, **kwargs):
        init(self, rank, **kwargs)
        built.append(rank)

    monkeypatch.setattr(Semigroup, "__init__", recording)
    constructed = construct_right_zero_solutions(5)
    assert built == [4]
    assert len(constructed.solutions) == 1 + KNOWN_CARDINALITIES[4]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_construction_folds_once_per_solution(rank, monkeypatch):
    # one membership product per member of the submonoid, and one for
    # the special solution, each by the fold that `multiply` runs
    calls = []

    def counting(prefix, letters, rank):
        calls.append(letters)
        return _fold(prefix, letters, rank)

    monkeypatch.setattr(algebra, "_fold", counting)
    construct_right_zero_solutions(rank)
    assert len(calls) == KNOWN_CARDINALITIES[rank - 1] + 1


@pytest.mark.n7
def test_construction_rank_7():
    # the paper's count one rank past enumeration, with no K_7
    constructed = construct_right_zero_solutions(7)
    assert len(constructed.solutions) == 1 + 83973
    with_one = constructed.decomposition.containing_one
    image = {prefix_before_one(x) for x in with_one}
    assert len(image) == len(with_one)
    assert image == shifted_up(Semigroup(6))


def test_decomposition_fields_rank_2(k2):
    solved = solve_right_zero(generator(1, 2), k2)
    decomp = solved.decomposition
    assert decomp is not None
    assert decomp.special == elem("2", 2)
    assert decomp.containing_one == {elem("1 2", 2), elem("2 1", 2)}


def test_decomposition_absent_for_other_targets(k2):
    assert solve_right_zero(generator(2, 2), k2).decomposition is None
    assert solve_right_zero(zero(2), k2).decomposition is None


def test_every_solution_actually_solves(k3):
    a1 = generator(1, 3)
    members = elements(k3)
    solved = solve_right_zero(a1, k3)
    for x in solved.solutions:
        assert multiply(x, a1) == zero(3)
    for x in members - solved.solutions:
        assert multiply(x, a1) != zero(3)


def test_solution_word_identity_element():
    # the empty starting point contributes the bare descending tail
    assert elem("1 2", 2) in construct_right_zero_solutions(2).solutions
    assert elem("1 3 2", 3) in construct_right_zero_solutions(3).solutions


def test_solution_words_enumerate_the_nontrivial_solutions(k2, k3, k4):
    for result in (k2, k3, k4):
        rank = result.rank
        built = construct_right_zero_solutions(rank).decomposition.containing_one
        solved = solve_right_zero(generator(1, rank), result)
        assert built == solved.decomposition.containing_one
        assert len(built) == KNOWN_CARDINALITIES[rank - 1]


def test_solution_multiply_three_cases():
    # the three-case rule of the solution_structure suite, on products
    # written out by hand and taken by the rewriter
    special = elem("2", 2)
    s = elem("1 2", 2)
    t = elem("2 1", 2)
    assert construct_right_zero_solutions(2).solutions == {special, s, t}
    # the special solution is neutral as a right factor
    assert multiply(special, special) == special
    assert multiply(s, special) == s
    assert multiply(t, special) == t
    # a right factor containing letter 1 collapses the product
    assert multiply(special, s) == zero(2)
    assert multiply(s, t) == zero(2)
    assert multiply(t, s) == zero(2)
    assert multiply(s, s) == zero(2)


def test_solution_multiply_closure_and_agreement(k3):
    # the rule against the rewriter's product, on every pair of solutions
    solved = solve_right_zero(generator(1, 3), k3)
    special = solved.decomposition.special
    for x in solved.solutions:
        for y in solved.solutions:
            product = multiply(x, y)
            assert product in solved.solutions
            assert product == (x if y == special else zero(3))


def test_prefix_map_bijects_solutions_onto_the_submonoid(k3, k4):
    for result in (k3, k4):
        rank = result.rank
        solved = solve_right_zero(generator(1, rank), result)
        with_one = {x for x in solved.solutions if 1 in content(x)}
        sub = shifted_up(Semigroup(rank - 1))
        image = {prefix_before_one(x) for x in with_one}
        assert len(image) == len(with_one)
        assert image == sub


def test_table_solver_matches_rewriter_solver(k1, k2, k3, k4):
    # every right factor y: the table scan against the multiply scan
    for s in (k1, k2, k3, k4):
        members = elements(s)
        for y in members:
            assert solve_right_zero(y, s).solutions == multiply_scan(y, members)


def test_table_solver_validates_rank_agreement():
    with pytest.raises(ValidationError, match="rank mismatch"):
        solve_right_zero(generator(1, 2), Semigroup(3))


def test_rank_1_edge_case(k1):
    solved = solve_right_zero(generator(1, 1), k1)
    assert solved.solutions == {identity(1), zero(1)}
    constructed = construct_right_zero_solutions(1)
    assert constructed.solutions == solved.solutions
    # 1 special solution plus the single element of the empty-alphabet monoid
    assert len(solved.solutions) == 2


def test_solver_validates_rank_agreement(k2):
    # a factor of higher rank than the semigroup
    with pytest.raises(ValidationError, match="rank mismatch: 2 vs 3"):
        solve_right_zero(generator(1, 3), k2)


def test_threshold_zero_exactly_at_zero(k3):
    for x in elements(k3):
        assert (zero_threshold(x) == 0) == (x == zero(3))
