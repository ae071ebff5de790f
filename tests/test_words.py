from __future__ import annotations

from itertools import chain, combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import is_quasi_subword, words
from kiselman.errors import ValidationError
from kiselman.rewrite import canonical_letters
from kiselman.words import (
    Word,
    idempotent_word,
    is_canonical,
    mirror,
    parse_word,
)


def test_word_rejects_bad_rank():
    with pytest.raises(ValidationError, match="rank"):
        Word((), 0)


def test_parse_word_empty_and_whitespace():
    assert parse_word("", 3).letters == ()
    assert parse_word("   ", 3).letters == ()


def test_parse_word_rejects_garbage():
    with pytest.raises(ValidationError, match="parse"):
        parse_word("1 x 2", 3)


def test_parse_word_rejects_out_of_range_letters():
    for text, message in [
        ("1 4", "letter index 4 at position 1 out of range"),
        ("0", "letter index 0 at position 0 out of range"),
    ]:
        with pytest.raises(ValidationError, match=message):
            parse_word(text, 3)


def test_parse_format_roundtrip():
    for text in ["", "1", "3 2 1", "2 1 3 2"]:
        assert str(parse_word(text, 3)) == text


def test_words_equal_by_letters_and_rank():
    assert parse_word("1 2", 2) == Word((1, 2), 2)
    assert parse_word("1 2", 2) != parse_word("1 2", 3)


def test_quasi_subword_examples():
    assert is_quasi_subword(parse_word("2 2", 2), parse_word("2 1 2", 2))
    assert not is_quasi_subword(parse_word("1 2", 2), parse_word("2 1", 2))
    assert is_quasi_subword(parse_word("", 2), parse_word("2 1", 2))


def test_containment_rejects_rank_mismatch():
    with pytest.raises(ValidationError, match="rank mismatch"):
        is_quasi_subword(parse_word("1", 2), parse_word("1", 3))


def test_canonical_examples():
    assert is_canonical(parse_word("", 1))
    assert is_canonical(parse_word("3 2 1", 3))
    assert is_canonical(parse_word("2 1 3 2", 3))
    assert not is_canonical(parse_word("1 1", 1))
    assert not is_canonical(parse_word("2 1 2", 3))
    assert not is_canonical(parse_word("1 2 1", 2))


def test_canonical_exactly_when_the_rewriter_deletes_nothing():
    # every word of at most 7 letters at ranks 1-4
    for rank in range(1, 5):
        for length in range(8):
            for letters in product(range(1, rank + 1), repeat=length):
                expected = canonical_letters(letters) == letters
                assert is_canonical(Word(letters, rank)) is expected, letters


def test_mirror_examples():
    assert str(mirror(parse_word("1 3", 3))) == "3 1"
    assert str(mirror(parse_word("2", 3))) == "2"
    assert str(mirror(parse_word("", 2))) == ""


def test_idempotent_word_examples():
    assert str(idempotent_word({1, 2, 3}, 3)) == "3 2 1"
    assert str(idempotent_word(set(), 2)) == ""
    assert str(idempotent_word({2}, 4)) == "2"


def test_idempotent_words_decreasing_and_canonical_up_to_rank_8():
    for rank in range(1, 9):
        universe = range(1, rank + 1)
        subsets = chain.from_iterable(
            combinations(universe, k) for k in range(rank + 1)
        )
        seen = set()
        for subset in subsets:
            w = idempotent_word(subset, rank)
            assert list(w.letters) == sorted(subset, reverse=True)
            assert is_canonical(w)
            seen.add(w)
        assert len(seen) == 2 ** rank


# law: mirror(mirror(w)) == w
@given(words())
def test_mirror_is_involution(w):
    assert mirror(mirror(w)) == w


# law: is_canonical(w) == is_canonical(mirror(w))
@given(words())
def test_mirror_preserves_canonicality(w):
    assert is_canonical(w) == is_canonical(mirror(w))


# law: w is a quasi-subword of itself
@given(words())
def test_quasi_subword_reflexive(w):
    assert is_quasi_subword(w, w)


@st.composite
def word_with_nested_subsequences(draw):
    w = draw(words())
    mask_v = draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
    v = Word(tuple(l for l, keep in zip(w.letters, mask_v) if keep), w.rank)
    mask_u = draw(st.lists(st.booleans(), min_size=len(v), max_size=len(v)))
    u = Word(tuple(l for l, keep in zip(v.letters, mask_u) if keep), w.rank)
    return u, v, w


# law: u <= v and v <= w imply u <= w (subsequence order is transitive)
@given(word_with_nested_subsequences())
def test_quasi_subword_transitive(triple):
    u, v, w = triple
    assert is_quasi_subword(v, w)
    assert is_quasi_subword(u, v)
    assert is_quasi_subword(u, w)


@st.composite
def word_with_factor(draw):
    w = draw(words())
    start = draw(st.integers(0, len(w)))
    stop = draw(st.integers(start, len(w)))
    return Word(w.letters[start:stop], w.rank), w


# law: every contiguous factor is a quasi-subword
@given(word_with_factor())
def test_subword_implies_quasi_subword(pair):
    u, w = pair
    assert is_quasi_subword(u, w)


# law: factors of canonical words are canonical
@given(word_with_factor())
def test_factors_of_canonical_words_are_canonical(pair):
    u, w = pair
    if is_canonical(w):
        assert is_canonical(u)
