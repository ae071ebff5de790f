from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest

from conftest import elements
from kiselman.algebra import (
    Element,
    antiautomorphism,
    content,
    display,
    from_word,
    generator,
    identity,
    idempotent,
    multiply,
    prefix_before_one,
    sort_key,
    zero,
    zero_threshold,
)
from kiselman.enumeration import Semigroup
from kiselman.errors import DomainError, ValidationError
from kiselman.words import Word, letter_subsets, parse_word


def test_from_word_canonicalizes():
    assert from_word(parse_word("3 2 1 1", 3)) == zero(3)
    assert from_word(parse_word("1 2 1", 2)) == zero(2)
    assert from_word(parse_word("", 3)) == identity(3)


def test_from_word_of_many_distinct_letters_stays_small():
    # above rank 7 the fold keeps no automaton, whose states would hold
    # 4,001 entries each
    letters = tuple(range(1, 4001))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        x = from_word(Word(letters, 4000))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.word.letters == letters
    assert peak < 10 * 2**20
    assert elapsed < 0.5


def test_element_constructor_requires_canonical_word():
    with pytest.raises(ValidationError, match="canonical"):
        Element(parse_word("1 1", 1))


def test_element_equality_and_hash_follow_canonical_words():
    x = from_word(parse_word("2 1 2", 2))
    y = from_word(parse_word("1 2 1", 2))
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_zero_words():
    assert str(zero(3)) == "3 2 1"
    assert str(zero(1)) == "1"


def test_display_shows_unit_as_e():
    assert display(identity(3)) == "e"
    assert display(zero(2)) == "2 1"


def test_multiply_matches_concatenation():
    x = generator(2, 2)
    y = from_word(parse_word("1 2", 2))
    assert str(multiply(x, y)) == "2 1"
    assert str(x * y) == "2 1"


def _assert_multiply_matches_the_table(s, pairs):
    for i, j in pairs:
        product = multiply(s.element(i), s.element(j))
        assert product.word.letters == s.words[s.product(i, s.words[j])], (i, j)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_multiply_matches_the_table_on_every_pair(rank):
    s = Semigroup(rank)
    _assert_multiply_matches_the_table(s, itertools.product(range(len(s)), repeat=2))


@pytest.mark.parametrize(
    "rank, samples",
    [(5, 2000), pytest.param(6, 20_000, marks=pytest.mark.n6)],
)
def test_multiply_matches_the_table_sampled(rank, samples):
    s = Semigroup(rank)
    rng = random.Random(rank)
    pairs = [(rng.randrange(len(s)), rng.randrange(len(s))) for _ in range(samples)]
    _assert_multiply_matches_the_table(s, pairs)


def test_multiply_rejects_rank_mismatch():
    with pytest.raises(ValidationError, match="rank mismatch"):
        multiply(identity(2), identity(3))


def test_identity_is_neutral(k3):
    e = identity(3)
    for x in elements(k3):
        assert multiply(e, x) == x
        assert multiply(x, e) == x


def test_zero_absorbs(k3):
    f = zero(3)
    for x in elements(k3):
        assert multiply(f, x) == f
        assert multiply(x, f) == f


def test_generators_are_idempotent():
    for rank in (1, 2, 3, 4):
        for i in range(1, rank + 1):
            g = generator(i, rank)
            assert multiply(g, g) == g


def test_associativity_exhaustive_rank_3(k3):
    elems = sorted(elements(k3), key=sort_key)
    for x in elems:
        for y in elems:
            xy = multiply(x, y)
            for z in elems:
                assert multiply(xy, z) == multiply(x, multiply(y, z))


def test_associativity_sampled_rank_4(k4):
    elems = sorted(elements(k4), key=sort_key)
    rng = random.Random(0)
    for _ in range(100_000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_idempotent_classification(k1, k2, k3, k4, k5):
    for result in (k1, k2, k3, k4, k5):
        rank = result.rank
        found = {x for x in elements(result) if multiply(x, x) == x}
        expected = {idempotent(s, rank) for s in letter_subsets(rank)}
        assert found == expected
        assert len(found) == 2 ** rank


def test_content_examples():
    assert content(identity(3)) == frozenset()
    assert content(zero(3)) == {1, 2, 3}
    assert content(from_word(parse_word("1 2 1", 2))) == {1, 2}


def test_content_is_a_union_homomorphism(k3):
    elems = sorted(elements(k3), key=sort_key)
    for x in elems:
        for y in elems:
            assert content(multiply(x, y)) == content(x) | content(y)


def test_content_reaches_every_subset(k4):
    assert {content(x) for x in elements(k4)} == {
        frozenset(s) for s in letter_subsets(4)
    }


def test_antiautomorphism_on_generators():
    for rank in (1, 2, 3, 4):
        for i in range(1, rank + 1):
            assert antiautomorphism(generator(i, rank)) == generator(
                rank - i + 1, rank
            )


def test_antiautomorphism_fixes_zero():
    for rank in (1, 2, 3, 4):
        assert antiautomorphism(zero(rank)) == zero(rank)


def test_antiautomorphism_frozen_value():
    # confirmed against the brute-force reversal check below before freezing
    x = from_word(parse_word("1 2", 2))
    assert str(antiautomorphism(x)) == "1 2"


def test_antiautomorphism_reverses_products_exhaustive(k2, k3):
    tau = antiautomorphism
    for result in (k2, k3):
        elems = sorted(elements(result), key=sort_key)
        for x in elems:
            for y in elems:
                assert tau(multiply(x, y)) == multiply(tau(y), tau(x))


def test_antiautomorphism_is_an_involution(k4):
    tau = antiautomorphism
    for x in elements(k4):
        assert tau(tau(x)) == x


def test_antiautomorphism_differs_from_identity_map_above_rank_1(k2, k3):
    for result in (k2, k3):
        assert any(antiautomorphism(x) != x for x in elements(result))


def test_zero_threshold_examples():
    assert zero_threshold(identity(3)) == 3
    assert zero_threshold(zero(3)) == 0
    assert zero_threshold(idempotent({2, 3}, 3)) == 1
    assert zero_threshold(identity(1)) == 1


def test_zero_threshold_is_zero_only_on_the_zero(k3):
    f = zero(3)
    for x in elements(k3):
        assert (zero_threshold(x) == 0) == (x == f)


def test_zero_threshold_is_a_threshold(k3):
    # once the growing initial-segment idempotent kills x, it keeps killing
    f = zero(3)
    for x in elements(k3):
        m = zero_threshold(x)
        for i in range(3 + 1):
            product = multiply(x, idempotent(range(1, i + 1), 3))
            assert (product == f) == (i >= m)


def test_prefix_before_one_examples():
    assert prefix_before_one(zero(2)) == generator(2, 2)
    assert prefix_before_one(generator(1, 3)) == identity(3)
    assert prefix_before_one(from_word(parse_word("3 1 2", 3))) == generator(3, 3)


def test_prefix_before_one_outside_domain():
    with pytest.raises(DomainError, match="letter 1"):
        prefix_before_one(identity(2))
    with pytest.raises(DomainError, match="letter 1"):
        prefix_before_one(idempotent({2, 3}, 3))


def test_prefix_map_is_not_multiplicative():
    # the witness: x = a1 a2 and y = a1 multiply to the zero, whose
    # prefix is a2, yet both factors have unit prefixes
    x = from_word(parse_word("1 2", 2))
    y = generator(1, 2)
    assert prefix_before_one(multiply(x, y)) == generator(2, 2)
    assert prefix_before_one(x) == identity(2)
    assert prefix_before_one(y) == identity(2)
    assert multiply(prefix_before_one(x), prefix_before_one(y)) != prefix_before_one(
        multiply(x, y)
    )


def test_one_sided_absorption_identities():
    # a_i (product of letters below i) a_i drops the right copy;
    # a_i (product of letters above i) a_i drops the left copy
    rng = random.Random(9)
    for rank in (2, 3, 4, 5):
        for _ in range(100):
            i = rng.randint(1, rank)
            below = [rng.randint(1, i - 1) for _ in range(rng.randint(0, 6))] if i > 1 else []
            above = [rng.randint(i + 1, rank) for _ in range(rng.randint(0, 6))] if i < rank else []
            g = generator(i, rank)
            low = from_word(Word(tuple(below), rank))
            high = from_word(Word(tuple(above), rank))
            assert multiply(multiply(g, low), g) == multiply(g, low)
            assert multiply(multiply(g, high), g) == multiply(high, g)


def test_separation_of_extensions_exhaustive_rank_3(k3):
    # distinct canonical continuations u, v past w . a_1 stay distinct
    # as elements once multiplied out
    words3 = {x.word for x in elements(k3)}
    no_one = [w for w in words3 if 1 not in w.letters]
    for w in no_one:
        seen = {}
        for u in no_one:
            candidate = Word(w.letters + (1,) + u.letters, 3)
            from kiselman.words import is_canonical

            if not is_canonical(candidate):
                continue
            product = multiply(from_word(w), from_word(u))
            assert u.letters not in seen
            if product in seen.values():
                pytest.fail(
                    f"extensions of '{w}' collide: '{u}' duplicates a product"
                )
            seen[u.letters] = product


def test_separation_of_extensions_sampled_rank_4(k4):
    words4 = {x.word for x in elements(k4)}
    no_one = sorted(
        (w for w in words4 if 1 not in w.letters),
        key=lambda w: (len(w.letters), w.letters),
    )
    from kiselman.words import is_canonical

    rng = random.Random(21)
    for _ in range(500):
        w = rng.choice(no_one)
        u = rng.choice(no_one)
        v = rng.choice(no_one)
        if u == v:
            continue
        wu = Word(w.letters + (1,) + u.letters, 4)
        wv = Word(w.letters + (1,) + v.letters, 4)
        if not (is_canonical(wu) and is_canonical(wv)):
            continue
        assert multiply(from_word(w), from_word(u)) != multiply(
            from_word(w), from_word(v)
        )


def test_sort_key_orders_by_length_then_letters():
    elems = [
        from_word(parse_word(t, 2)) for t in ["2 1", "", "2", "1", "1 2"]
    ]
    ordered = sorted(elems, key=sort_key)
    assert [str(x) for x in ordered] == ["", "1", "2", "1 2", "2 1"]
