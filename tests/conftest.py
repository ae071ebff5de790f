from __future__ import annotations

import pytest
from hypothesis import strategies as st

from kiselman.algebra import Element
from kiselman.enumeration import Semigroup
from kiselman.errors import ValidationError
from kiselman.words import Word


def is_quasi_subword(v: Word, w: Word) -> bool:
    """Is v a not-necessarily-contiguous subsequence of w?

    Reflexive and transitive; every factor is also a quasi-subword.  The
    rewriter's tests use it: a deletion keeps a subsequence.
    """
    if v.rank != w.rank:
        raise ValidationError(f"rank mismatch: {v.rank} vs {w.rank}")
    it = iter(w.letters)
    return all(letter in it for letter in v.letters)


def elements(semigroup: Semigroup) -> frozenset[Element]:
    """Every element of a semigroup as an `Element`; a set, so no order shows."""
    return frozenset(map(semigroup.element, range(len(semigroup))))


def gap_states(letters: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Each letter's gap state in a word, from the definition.

    Entry g is 4 when the word holds no g; otherwise 1 if the gap after
    its last g holds a smaller letter, plus 2 if it holds a larger one,
    so an empty gap gives 0.  Entry 0 is 4: there is no letter 0.  This
    is the encoding of `rewrite._GapAutomaton`'s states.
    """
    states = [4] * (rank + 1)
    for g in set(letters):
        gap = letters[len(letters) - letters[::-1].index(g):]
        states[g] = (1 if any(h < g for h in gap) else 0) + (
            2 if any(h > g for h in gap) else 0
        )
    return tuple(states)


def words(max_rank: int = 4, max_len: int = 12):
    """Strategy: a random word at a random rank up to max_rank."""
    return st.integers(1, max_rank).flatmap(
        lambda rank: st.lists(
            st.integers(1, rank), max_size=max_len
        ).map(lambda letters: Word(tuple(letters), rank))
    )


def word_pairs(max_rank: int = 4, max_len: int = 10):
    """Strategy: two random words sharing one rank."""
    return st.integers(1, max_rank).flatmap(
        lambda rank: st.tuples(
            st.lists(st.integers(1, rank), max_size=max_len),
            st.lists(st.integers(1, rank), max_size=max_len),
        ).map(
            lambda pair: (
                Word(tuple(pair[0]), rank),
                Word(tuple(pair[1]), rank),
            )
        )
    )


@pytest.fixture(scope="session")
def k1():
    return Semigroup(1)


@pytest.fixture(scope="session")
def k2():
    return Semigroup(2)


@pytest.fixture(scope="session")
def k3():
    return Semigroup(3)


@pytest.fixture(scope="session")
def k4():
    return Semigroup(4)


@pytest.fixture(scope="session")
def k5():
    return Semigroup(5)
