from __future__ import annotations

import hashlib
import random
import sys
import threading
import time

import pytest

from conftest import elements, gap_states
import kiselman.enumeration as enumeration
from kiselman.algebra import (
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
    enumerate_canonical_words,
    letter_bounds,
    Semigroup,
    write_cache,
)
from kiselman import rewrite
from kiselman.errors import ResourceLimitError, ValidationError
from kiselman.rewrite import _SAME, _WALK, _automaton, canonical_letters
from kiselman.words import (
    Word,
    is_canonical,
    letter_subsets,
    parse_word,
)


def test_rank_1_listing(k1):
    assert {str(x) for x in elements(k1)} == {"", "1"}
    assert len(k1) == 2


def test_rank_2_listing(k2):
    assert {str(x) for x in elements(k2)} == {"", "1", "2", "1 2", "2 1"}
    assert len(k2) == 5


def test_known_cardinalities(k1, k2, k3, k4):
    # 18 and 115 are artifact values: both enumeration routes agreed on
    # them before they were frozen here
    for result in (k1, k2, k3, k4):
        assert len(result) == KNOWN_CARDINALITIES[result.rank]


def test_enumeration_contains_structural_elements(k3):
    members = elements(k3)
    assert identity(3) in members
    assert zero(3) in members
    for i in (1, 2, 3):
        assert generator(i, 3) in members


def test_enumeration_closed_under_generator_multiplication(k3):
    members = elements(k3)
    for x in members:
        for i in (1, 2, 3):
            assert multiply(x, generator(i, 3)) in members


def test_both_enumerators_agree(k1, k2, k3, k4):
    for result in (k1, k2, k3, k4):
        direct = enumerate_canonical_words(result.rank)
        assert {x.word for x in elements(result)} == direct


@pytest.mark.n5
def test_both_enumerators_agree_rank_5(k5):
    direct = enumerate_canonical_words(5)
    assert {x.word for x in elements(k5)} == direct
    assert len(k5) == KNOWN_CARDINALITIES[5]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        Semigroup(0)
    with pytest.raises(ValidationError):
        Semigroup(2, limit=0)
    with pytest.raises(ValidationError):
        enumerate_canonical_words(0)


def test_element_cap_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match="cap"):
        Semigroup(3, limit=5)


def test_letter_bounds_shape():
    assert letter_bounds(1) == {1: 1}
    assert letter_bounds(2) == {1: 1, 2: 1}
    assert letter_bounds(3) == {1: 1, 2: 2, 3: 1}
    assert letter_bounds(4) == {1: 1, 2: 2, 3: 2, 4: 1}
    assert letter_bounds(5) == {1: 1, 2: 2, 3: 4, 4: 2, 5: 1}
    assert letter_bounds(6) == {1: 1, 2: 2, 3: 4, 4: 4, 5: 2, 6: 1}
    assert letter_bounds(7) == {1: 1, 2: 2, 3: 4, 4: 8, 5: 4, 6: 2, 7: 1}


def _assert_words_respect_letter_bounds(semigroup):
    # the closure's words: the direct search prunes with these bounds
    bounds = letter_bounds(semigroup.rank)
    for letters in semigroup.words:
        for i, bound in bounds.items():
            assert letters.count(i) <= bound


def test_canonical_words_respect_letter_bounds(k1, k2, k3, k4):
    for semigroup in (k1, k2, k3, k4):
        _assert_words_respect_letter_bounds(semigroup)


@pytest.mark.n5
def test_canonical_words_respect_letter_bounds_rank_5(k5):
    _assert_words_respect_letter_bounds(k5)


def test_semigroup_takes_no_generators():
    # limit is keyword-only, so a generator tuple cannot pass for a cap
    with pytest.raises(TypeError):
        Semigroup(3, (2, 3))


def test_four_part_content_partition(k3, k4):
    # inner letters only / forced letter 1 without the top /
    # forced top letter without 1 / both extremes forced
    for result in (k3, k4):
        rank = result.rank
        members = elements(result)
        parts = [
            {x for x in members if required <= content(x) <= allowed}
            for required, allowed in [
                (set(), set(range(2, rank))),
                ({1}, set(range(1, rank))),
                ({rank}, set(range(2, rank + 1))),
                ({1, rank}, set(range(1, rank + 1))),
            ]
        ]
        assert sum(len(p) for p in parts) == len(result)
        assert len(set().union(*parts)) == len(result)


def test_extreme_letters_occur_at_most_once(k4):
    for x in elements(k4):
        assert x.word.letters.count(1) <= 1
        assert x.word.letters.count(4) <= 1


def test_sorted_elements_order(k2):
    ordered = [k2.element(i) for i in range(len(k2))]
    assert [str(x) for x in ordered] == ["", "1", "2", "1 2", "2 1"]


def test_table_is_filled_on_first_product():
    s = Semigroup(3)
    s.words, s.index, len(s), s.element(5), elements(s)
    assert s.multiplications == 0
    assert s._columns is None
    assert s.product(s.index[(2,)], (1,)) == s.index[(2, 1)]
    assert s.multiplications == 18 * 3
    assert s.product(0, (3, 2, 1)) == s.index[(3, 2, 1)]
    assert s.multiplications == 18 * 3
    assert s.columns is s.columns
    assert s.columns[0] is None
    assert [len(column) for column in s.columns[1:]] == [18] * 3


def test_enumeration_result_is_reproducible():
    first = Semigroup(3)
    second = Semigroup(3)
    assert first.words == second.words
    assert first.columns == second.columns
    assert elements(first) == elements(second)


def test_word_sort_key_is_length_lexicographic():
    # one key orders words and bare letter tuples alike
    ws = [parse_word(t, 2) for t in ["2 1", "1", "", "2", "1 2"]]
    assert [str(w) for w in sorted(ws, key=sort_key)] == [
        "", "1", "2", "1 2", "2 1",
    ]
    tuples = [w.letters for w in ws]
    assert sorted(tuples, key=sort_key) == [w.letters for w in sorted(ws, key=sort_key)]


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


def _check_table_against_rewriter(rank):
    s = Semigroup(rank)
    # the words come in sort_key order without repeats, which write_cache
    # relies on, and no table is filled for them
    assert s.words == sorted(s.words, key=sort_key)
    assert s.multiplications == 0
    words, columns = s.words, s.columns
    assert len(set(words)) == len(words)
    assert s.index == {w: i for i, w in enumerate(words)}
    # one column per letter, indexed by the letter; column 0 is None
    assert columns[0] is None
    assert len(columns) == rank + 1
    assert s.multiplications == len(words) * rank
    for g in range(1, rank + 1):
        column = columns[g]
        assert len(column) == len(words)
        for ui, u in enumerate(words):
            assert words[column[ui]] == canonical_letters(u + (g,)), (u, g)
    return words, len(s.rounds()), s.multiplications


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_cayley_table_matches_rewriter(rank):
    table_run = _check_table_against_rewriter(rank)
    assert table_run == _rewriter_closure(
        rank, range(1, rank + 1), DEFAULT_ELEMENT_LIMIT
    )


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_generated_submonoid_every_generator_subset(rank):
    # canonicity compares letters only by order, so the letters of S
    # generate K_|S|, its letters mapped in order onto S; the submonoid
    # over 2..rank that the x * a_1 = zero construction reads is one case
    direct = enumerate_canonical_words(rank)
    for subset in letter_subsets(rank):
        closure = _rewriter_closure(rank, subset, DEFAULT_ELEMENT_LIMIT)
        if not subset:
            assert closure == ([()], 1, 0)
            continue
        s = Semigroup(len(subset))
        s.columns  # filling the table counts its products
        relabel = (None, *subset)
        words = [tuple(relabel[g] for g in w) for w in s.words]
        assert (words, len(s.rounds()), s.multiplications) == closure, subset
        expected = {w.letters for w in direct if set(w.letters) <= set(subset)}
        assert set(words) == expected, subset


def test_element_cap_matches_rewriter_closure():
    with pytest.raises(
        ResourceLimitError,
        match=r"^enumeration at rank 3 exceeded the element cap of 17$",
    ):
        Semigroup(3, limit=17)
    assert len(Semigroup(3, limit=18)) == 18
    for rank in (1, 2, 3, 4):
        for limit in range(1, KNOWN_CARDINALITIES[rank] + 2):
            outcomes = []
            for close in (
                lambda: Semigroup(rank, limit=limit),
                lambda: _rewriter_closure(rank, range(1, rank + 1), limit),
            ):
                try:
                    close()
                except ResourceLimitError:
                    outcomes.append("raised")
                else:
                    outcomes.append("done")
            assert outcomes[0] == outcomes[1], (rank, limit)
            expected = "raised" if limit < KNOWN_CARDINALITIES[rank] else "done"
            assert outcomes[0] == expected, (rank, limit)


def test_small_cap_is_refused_before_the_automaton_grows(monkeypatch):
    # K_9 holds K_6, so a cap of 1 is refused before the automaton is asked
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    with pytest.raises(
        ResourceLimitError,
        match=r"^enumeration at rank 9 exceeded the element cap of 1$",
    ):
        Semigroup(9, limit=1)
    assert 9 not in rewrite._AUTOMATA


@pytest.mark.parametrize("rank", [7, 300])
def test_default_cap_refuses_ranks_past_the_table_unbuilt(monkeypatch, rank):
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    with pytest.raises(
        ResourceLimitError,
        match=rf"^enumeration at rank {rank} exceeded the element cap of 83973$",
    ):
        Semigroup(rank)
    assert rewrite._AUTOMATA == {}


def test_cap_above_the_table_still_trips_in_the_loop(monkeypatch):
    # 100,000 passes the check before building, and K_7 outgrows it
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    with pytest.raises(
        ResourceLimitError,
        match=r"^enumeration at rank 7 exceeded the element cap of 100000$",
    ):
        Semigroup(7, limit=100_000)


@pytest.mark.n6
def test_cayley_table_matches_rewriter_rank_6():
    words, rounds, multiplications = _check_table_against_rewriter(6)
    assert len(words) == KNOWN_CARDINALITIES[6]
    assert (rounds, multiplications) == (15, 503838)


def test_cache_write_keeps_ordinary_file_permissions(tmp_path, k2):
    plain = tmp_path / "plain"
    plain.write_text("")
    path = write_cache(tmp_path, 2, k2.texts())
    assert path.stat().st_mode == plain.stat().st_mode


def test_cache_writers_race_without_partial_reads(tmp_path, k4):
    texts = k4.texts()
    path = write_cache(tmp_path, 4, texts)
    full = path.read_bytes()
    stop = threading.Event()
    errors = []
    reads = []

    def writer():
        try:
            while not stop.is_set():
                write_cache(tmp_path, 4, texts)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    def reader():
        try:
            while not stop.is_set():
                if path.read_bytes() != full:
                    errors.append("a reader saw a partial or different file")
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


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_product_matches_rewriter_on_every_pair(rank):
    s = Semigroup(rank)
    for i, u in enumerate(s.words):
        for j, v in enumerate(s.words):
            assert s.product(i, v) == s.index[canonical_letters(u + v)], (u, v)


def test_product_matches_rewriter_on_long_words_rank_5():
    s = Semigroup(5)
    rng = random.Random(5)
    for _ in range(500):
        i = rng.randrange(len(s))
        w = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 200)))
        assert s.product(i, w) == s.index[canonical_letters(s.words[i] + w)], (i, w)


@pytest.mark.n6
def test_product_matches_rewriter_sampled_rank_6():
    s = Semigroup(6)
    rng = random.Random(6)
    for _ in range(20_000):
        i, j = rng.randrange(len(s)), rng.randrange(len(s))
        u, v = s.words[i], s.words[j]
        assert s.product(i, v) == s.index[canonical_letters(u + v)], (u, v)


def test_semigroup_views_agree_with_elements(k3):
    members = elements(k3)
    assert len(members) == len(k3)
    ordered = [k3.element(i) for i in range(len(k3))]
    assert ordered == sorted(members, key=sort_key)
    assert k3.product(0, ()) == 0


def test_cache_file_format_is_unchanged(tmp_path):
    # the same bytes as the Word-based writer: header, then str(w)
    # shortest first; the digest pins the rank-4 file itself
    ordered = sorted(enumerate_canonical_words(4), key=sort_key)
    path = write_cache(tmp_path, 4, Semigroup(4).texts())
    expected = ["kiselman-cache v1 n=4 count=115"] + [str(w) for w in ordered]
    data = path.read_bytes()
    assert data == ("\n".join(expected) + "\n").encode("ascii")
    assert hashlib.sha256(data).hexdigest() == (
        "620e5e5ae39f9fd5df6d793c76f871c37f27f5078371830e2e49cf7036246a64"
    )


def test_cache_write_writes_the_header_and_the_given_lines(tmp_path):
    # the lines are written as given, neither sorted nor de-duplicated:
    # keeping them in sort_key order is the caller's part
    texts = ["2 1", "", "1", "1"]
    path = write_cache(tmp_path, 2, texts)
    assert path.read_bytes() == b"kiselman-cache v1 n=2 count=4\n2 1\n\n1\n1\n"
    assert write_cache(tmp_path, 2, []).read_bytes() == b"kiselman-cache v1 n=2 count=0\n"


def _check_texts(rank):
    s = Semigroup(rank)
    texts, rounds = s.texts(), s.rounds()
    # built from the links alone: no letter tuple, no lookup, no product
    assert (s._words, s._index, s._columns) == (None, None, None)
    assert texts == [str(Word(w, rank)) for w in s.words]
    # one round per length, shortest first, covering every element once
    assert [start for start, _ in rounds] == [0] + [end for _, end in rounds[:-1]]
    assert rounds[-1][1] == len(s)
    for length, (start, end) in enumerate(rounds):
        assert start < end
        assert {len(w) for w in s.words[start:end]} == {length}


@pytest.mark.parametrize(
    "rank", [1, 2, 3, 4, 5], ids=["rank1", "rank2", "rank3", "rank4", "rank5"]
)
def test_texts_are_the_words_as_str_writes_them(rank):
    _check_texts(rank)


@pytest.mark.n6
def test_texts_are_the_words_as_str_writes_them_rank_6():
    _check_texts(6)


@pytest.mark.parametrize(
    "rank", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.n6)]
)
def test_words_from_the_links_are_the_direct_search_in_order(rank):
    s = Semigroup(rank)
    assert s._words is None
    assert s.words == sorted(enumeration._canonical_words(rank), key=sort_key)
    assert s.words is s.words


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_direct_search_core_lists_each_word_once(rank):
    # the verify suites count these tuples: a repeat would inflate |K_n|
    core = enumeration._canonical_words(rank)
    assert len(core) == len(set(core)) == KNOWN_CARDINALITIES[rank]
    assert {Word(w, rank) for w in core} == enumerate_canonical_words(rank)


def test_index_is_built_on_first_read():
    s = Semigroup(3)
    assert s._index is None
    s.product(0, (1, 2))
    assert s._index is None
    assert s.index[(2, 1)] == s.words.index((2, 1))
    assert s.index is s.index


def _rewriter_threshold(letters, rank):
    """Least m with letters * (m, ..., 1) the zero, by the rewriter.

    The oracle of the table's thresholds: `algebra.zero_threshold` takes
    the same products by the fold, which the tests hold to the rewriter
    on their own.
    """
    zero_letters = tuple(range(rank, 0, -1))
    return next(
        m
        for m in range(rank + 1)
        if canonical_letters(letters + zero_letters[rank - m:]) == zero_letters
    )


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_zero_thresholds_match_the_rewriter(rank):
    s = Semigroup(rank)
    thresholds = s.zero_thresholds()
    assert len(thresholds) == len(s)
    for u, t in zip(s.words, thresholds):
        assert t == _rewriter_threshold(u, rank)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_submonoid_thresholds_are_one_below_the_rewriter(rank):
    # K_{rank-1} shifted up one letter is the submonoid over 2..rank,
    # whose tails lack letter 1, which appending a_1 supplies: the
    # threshold in K_rank is one more
    if rank == 1:
        below = [((), 0)]  # K_0 = {e}, whose zero is e
    else:
        s = Semigroup(rank - 1)
        below = zip(s.words, s.zero_thresholds())
    for w, t in below:
        x = tuple(g + 1 for g in w)
        assert t + 1 == _rewriter_threshold(x, rank)


# The closure reads the gap automaton of `rewrite`, the one the fold
# grows lazily: fully grown, it has one state per distinct tuple of gap
# states among the canonical words.
AUTOMATON_STATES = {1: 2, 2: 5, 3: 15, 4: 49, 5: 164, 6: 549, 7: 1825}


@pytest.mark.parametrize(
    "rank", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.n7)]
)
def test_shared_automaton_state_counts(rank):
    automaton = _automaton(rank)
    # every action of every state reachable by the letters
    s = 0
    while s < len(automaton.states):
        for g in range(1, rank + 1):
            automaton.act(s, g)
        s += 1
    assert len(automaton.states) == AUTOMATON_STATES[rank]


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_automaton_actions_match_the_rewriter(rank):
    # every canonical word's state is its gap states by definition, and
    # each letter's action there is what the rewriter does to the word
    # with that letter appended
    Semigroup(rank)  # the closure asks for every action of every state
    automaton = _automaton(rank)
    states, rows = automaton.states, automaton.rows
    seen = set()
    for w in enumerate_canonical_words(rank):
        u = w.letters
        s = 0
        for g in u:
            s = rows[s][g]
        assert states[s] == gap_states(u, rank)
        seen.add(s)
        for g in range(1, rank + 1):
            action, product = rows[s][g], canonical_letters(u + (g,))
            if product == u + (g,):
                assert action >= 0 and states[action] == gap_states(product, rank)
            elif product == u:
                assert action == _SAME, (u, g)
            else:
                assert action == _WALK, (u, g)
    assert len(seen) == len(states)
