from __future__ import annotations

import sys
import threading
import time
from itertools import chain, combinations

import pytest

from kiselman.algebra import (
    Element,
    content,
    from_word,
    generator,
    identity,
    multiply,
    sort_key,
    zero,
)
from kiselman.enumeration import (
    DEFAULT_ELEMENT_LIMIT,
    KNOWN_CARDINALITIES,
    EnumerationResult,
    enumerate_canonical_words,
    enumerate_elements,
    filter_by_content,
    generated_submonoid,
    letter_bounds,
    parity_report,
    read_cache,
    word_sort_key,
    write_cache,
    _closure,
)
from kiselman.errors import ResourceLimitError, ValidationError
from kiselman.rewrite import canonical_letters
from kiselman.words import is_canonical, occurrence_counts, parse_word


def test_rank_1_listing(k1):
    assert {str(x) for x in k1.elements} == {"", "1"}
    assert k1.cardinality == 2


def test_rank_2_listing(k2):
    assert {str(x) for x in k2.elements} == {"", "1", "2", "1 2", "2 1"}
    assert k2.cardinality == 5


def test_known_cardinalities(k1, k2, k3, k4):
    # 18 and 115 are artifact values: both enumeration routes agreed on
    # them before they were frozen here
    for result in (k1, k2, k3, k4):
        assert result.cardinality == KNOWN_CARDINALITIES[result.rank]


def test_enumeration_contains_structural_elements(k3):
    assert identity(3) in k3.elements
    assert zero(3) in k3.elements
    for i in (1, 2, 3):
        assert generator(i, 3) in k3.elements


def test_enumeration_closed_under_generator_multiplication(k3):
    for x in k3.elements:
        for i in (1, 2, 3):
            assert multiply(x, generator(i, 3)) in k3.elements


def test_both_enumerators_agree(k1, k2, k3, k4):
    for result in (k1, k2, k3, k4):
        direct = enumerate_canonical_words(result.rank)
        assert {x.word for x in result.elements} == direct


@pytest.mark.n5
def test_both_enumerators_agree_rank_5(k5):
    direct = enumerate_canonical_words(5)
    assert {x.word for x in k5.elements} == direct
    assert k5.cardinality == KNOWN_CARDINALITIES[5]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        enumerate_elements(0)
    with pytest.raises(ValidationError):
        enumerate_elements(2, limit=0)
    with pytest.raises(ValidationError):
        enumerate_canonical_words(0)


def test_element_cap_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match="cap"):
        enumerate_elements(3, limit=5)


def test_letter_bounds_shape():
    assert letter_bounds(1) == {1: 1}
    assert letter_bounds(2) == {1: 1, 2: 1}
    assert letter_bounds(3) == {1: 1, 2: 2, 3: 1}
    assert letter_bounds(4) == {1: 1, 2: 2, 3: 2, 4: 1}
    assert letter_bounds(5) == {1: 1, 2: 2, 3: 4, 4: 2, 5: 1}


def test_canonical_words_respect_letter_bounds(k4):
    for rank in (1, 2, 3, 4):
        bounds = letter_bounds(rank)
        for w in enumerate_canonical_words(rank):
            counts = occurrence_counts(w)
            for i, bound in bounds.items():
                assert counts[i] <= bound


@pytest.mark.n5
def test_canonical_words_respect_letter_bounds_rank_5():
    bounds = letter_bounds(5)
    for w in enumerate_canonical_words(5):
        counts = occurrence_counts(w)
        for i, bound in bounds.items():
            assert counts[i] <= bound


def test_generated_submonoid_matches_content_filter(k3, k4):
    for result in (k3, k4):
        rank = result.rank
        sub = generated_submonoid(rank, range(2, rank + 1))
        filtered = filter_by_content(result, set(), set(range(2, rank + 1)))
        assert sub == filtered
        assert len(sub) == KNOWN_CARDINALITIES[rank - 1]


def test_generated_submonoid_trivial_cases():
    assert generated_submonoid(3, []) == frozenset({identity(3)})
    assert generated_submonoid(1, [1]) == frozenset({identity(1), zero(1)})


def test_generated_submonoid_rejects_foreign_generators():
    with pytest.raises(ValidationError, match="out of range"):
        generated_submonoid(2, [3])


def test_filter_by_content_validates_sets(k2):
    with pytest.raises(ValidationError, match="subset"):
        filter_by_content(k2, {1}, {2})
    with pytest.raises(ValidationError, match="allowed"):
        filter_by_content(k2, set(), {3})


def test_filter_by_content_slices(k3):
    containing_one = filter_by_content(k3, {1}, {1, 2, 3})
    avoiding_one = filter_by_content(k3, set(), {2, 3})
    assert len(containing_one) + len(avoiding_one) == k3.cardinality
    assert len(avoiding_one) == KNOWN_CARDINALITIES[2]
    assert containing_one == {x for x in k3.elements if 1 in content(x)}


def test_four_part_content_partition(k3, k4):
    # inner letters only / forced letter 1 without the top /
    # forced top letter without 1 / both extremes forced
    for result in (k3, k4):
        rank = result.rank
        inner = filter_by_content(result, set(), set(range(2, rank)))
        low = filter_by_content(result, {1}, set(range(1, rank)))
        high = filter_by_content(result, {rank}, set(range(2, rank + 1)))
        both = filter_by_content(result, {1, rank}, set(range(1, rank + 1)))
        parts = [inner, low, high, both]
        assert sum(len(p) for p in parts) == result.cardinality
        union = set().union(*parts)
        assert len(union) == result.cardinality


def test_parity_base_cases():
    r1 = parity_report(1)
    assert (r1.cardinality, r1.parity) == (2, "even")
    assert r1.cardinality_rank_minus_1 is None
    r2 = parity_report(2)
    assert (r2.cardinality, r2.parity) == (5, "odd")
    assert r2.identity_holds


def test_parity_report_rank_3():
    report = parity_report(3)
    assert report.cardinality == 18
    assert report.parity == "even"
    assert report.cardinality_rank_minus_1 == 5
    assert report.cardinality_rank_minus_2 == 2
    assert report.count_one_first == report.count_top_first == 5
    assert report.mirror_pairing
    assert report.identity_holds


def test_parity_report_rank_4():
    report = parity_report(4)
    assert report.cardinality == 115
    assert report.parity == "odd"
    assert report.count_one_first == report.count_top_first == 42
    assert report.mirror_pairing
    assert report.identity_holds


def test_parity_alternates_with_rank(k1, k2, k3, k4):
    for result in (k1, k2, k3, k4):
        expected = "even" if result.rank % 2 == 1 else "odd"
        assert parity_report(result.rank).parity == expected


def test_extreme_letters_occur_at_most_once(k4):
    for x in k4.elements:
        assert x.word.letters.count(1) <= 1
        assert x.word.letters.count(4) <= 1


def test_sorted_elements_order(k2):
    ordered = k2.sorted_elements()
    assert [str(x) for x in ordered] == ["", "1", "2", "1 2", "2 1"]


def test_cache_roundtrip(tmp_path, k3):
    words = {x.word for x in k3.elements}
    path = write_cache(tmp_path, 3, words)
    assert path.read_text().splitlines()[0] == "kiselman-cache v1 n=3 count=18"
    loaded = read_cache(tmp_path, 3)
    assert loaded == words


def test_cache_missing_is_none(tmp_path):
    assert read_cache(tmp_path, 3) is None


def test_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "k3.cache"
    path.write_text("some other file\n")
    with pytest.raises(ValidationError, match="header"):
        read_cache(tmp_path, 3)


def test_cache_rejects_rank_mismatch(tmp_path, k2):
    write_cache(tmp_path, 2, {x.word for x in k2.elements})
    (tmp_path / "k3.cache").write_text((tmp_path / "k2.cache").read_text())
    with pytest.raises(ValidationError, match="rank 2"):
        read_cache(tmp_path, 3)


def test_cache_rejects_count_drift(tmp_path):
    path = tmp_path / "k1.cache"
    path.write_text("kiselman-cache v1 n=1 count=3\n\n1\n")
    with pytest.raises(ValidationError, match="promises 3"):
        read_cache(tmp_path, 1)


def test_cache_rejects_non_canonical_entries(tmp_path):
    path = tmp_path / "k2.cache"
    path.write_text("kiselman-cache v1 n=2 count=1\n1 2 1\n")
    with pytest.raises(ValidationError, match="non-canonical"):
        read_cache(tmp_path, 2)


def test_cache_rejects_duplicates(tmp_path):
    path = tmp_path / "k2.cache"
    path.write_text("kiselman-cache v1 n=2 count=2\n1\n1\n")
    with pytest.raises(ValidationError, match="duplicate"):
        read_cache(tmp_path, 2)


def test_enumeration_result_is_reproducible():
    first = enumerate_elements(3)
    second = enumerate_elements(3)
    assert first.elements == second.elements
    assert isinstance(first, EnumerationResult)


def test_word_sort_key_is_length_lexicographic():
    ws = [parse_word(t, 2) for t in ["2 1", "1", "", "2", "1 2"]]
    assert [str(w) for w in sorted(ws, key=word_sort_key)] == [
        "", "1", "2", "1 2", "2 1",
    ]


def test_canonical_word_enumeration_yields_only_canonical_words():
    for rank in (1, 2, 3):
        for w in enumerate_canonical_words(rank):
            assert is_canonical(w)


def test_elements_recoverable_from_words(k3):
    # each canonical word is already its own element's canonical form
    for w in enumerate_canonical_words(3):
        assert from_word(w).word == w


def _rewriter_closure(rank, generators, limit):
    """The closure decided by the rewriter, one call per product.

    Returns the words in discovery order with the round and product
    counts; the reference the table closure is held to.
    """
    seen = {()}
    order = [()]
    frontier = [()]
    rounds = multiplications = 0
    while frontier:
        rounds += 1
        fresh = []
        for letters in frontier:
            for g in generators:
                multiplications += 1
                product = canonical_letters(letters + (g,))
                if product not in seen:
                    if len(seen) >= limit:
                        raise ResourceLimitError(f"rank {rank} cap {limit}")
                    seen.add(product)
                    fresh.append(product)
        order.extend(fresh)
        frontier = fresh
    return order, rounds, multiplications


def _check_table_against_rewriter(rank, generators):
    words, table, rounds, multiplications = _closure(
        rank, generators, DEFAULT_ELEMENT_LIMIT
    )
    width = len(generators)
    assert len(set(words)) == len(words)
    assert len(table) == multiplications == len(words) * width
    for ui, u in enumerate(words):
        for j, g in enumerate(generators):
            assert words[table[ui * width + j]] == canonical_letters(u + (g,)), (u, g)
    return words, rounds, multiplications


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_cayley_table_matches_rewriter(rank):
    generators = tuple(range(1, rank + 1))
    table_run = _check_table_against_rewriter(rank, generators)
    assert table_run == _rewriter_closure(rank, generators, DEFAULT_ELEMENT_LIMIT)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_generated_submonoid_every_generator_subset(rank):
    direct = enumerate_canonical_words(rank)
    subsets = chain.from_iterable(
        combinations(range(1, rank + 1), size) for size in range(rank + 1)
    )
    for subset in subsets:
        expected = {Element(w) for w in direct if set(w.letters) <= set(subset)}
        assert generated_submonoid(rank, subset) == expected, subset
        table_run = _check_table_against_rewriter(rank, subset)
        assert table_run == _rewriter_closure(rank, subset, DEFAULT_ELEMENT_LIMIT)


def test_element_cap_matches_rewriter_closure():
    with pytest.raises(ResourceLimitError, match="cap of 17"):
        enumerate_elements(3, limit=17)
    assert enumerate_elements(3, limit=18).cardinality == 18
    for rank in (1, 2, 3, 4):
        generators = tuple(range(1, rank + 1))
        for limit in range(1, KNOWN_CARDINALITIES[rank] + 2):
            outcomes = []
            for closure in (_closure, _rewriter_closure):
                try:
                    closure(rank, generators, limit)
                except ResourceLimitError:
                    outcomes.append("raised")
                else:
                    outcomes.append("done")
            assert outcomes[0] == outcomes[1], (rank, limit)
            expected = "raised" if limit < KNOWN_CARDINALITIES[rank] else "done"
            assert outcomes[0] == expected, (rank, limit)


@pytest.mark.n6
def test_cayley_table_matches_rewriter_rank_6():
    result = enumerate_elements(6)
    assert result.cardinality == KNOWN_CARDINALITIES[6]
    assert result.frontier_rounds == 15
    assert result.multiplications == 503838
    words, rounds, multiplications = _check_table_against_rewriter(
        6, tuple(range(1, 7))
    )
    assert {x.word.letters for x in result.elements} == set(words)
    assert (rounds, multiplications) == (15, 503838)


def test_cache_rejects_forged_count(tmp_path):
    # every line is canonical and the header count matches the body,
    # but rank 3 has 18 elements, not 3
    (tmp_path / "k3.cache").write_text("kiselman-cache v1 n=3 count=3\n\n1\n2\n")
    with pytest.raises(ValidationError, match="rank 3 has 18 elements"):
        read_cache(tmp_path, 3)


def test_cache_write_keeps_ordinary_file_permissions(tmp_path, k2):
    plain = tmp_path / "plain"
    plain.write_text("")
    path = write_cache(tmp_path, 2, {x.word for x in k2.elements})
    assert path.stat().st_mode == plain.stat().st_mode


def test_cache_writers_race_without_partial_reads(tmp_path, k4):
    words = {x.word for x in k4.elements}
    write_cache(tmp_path, 4, words)
    stop = threading.Event()
    errors = []
    reads = []

    def writer():
        try:
            while not stop.is_set():
                write_cache(tmp_path, 4, words)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    def reader():
        try:
            while not stop.is_set():
                loaded = read_cache(tmp_path, 4)
                if loaded != words:
                    errors.append("a reader saw a different word set")
                    return
                reads.append(1)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    workers = [threading.Thread(target=writer) for _ in range(2)]
    workers += [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for t in workers:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert reads
    assert [p.name for p in tmp_path.iterdir()] == ["k4.cache"]
