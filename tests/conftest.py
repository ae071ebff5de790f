from __future__ import annotations

import pytest
from hypothesis import strategies as st

from kiselman.enumeration import Semigroup
from kiselman.words import Word


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
