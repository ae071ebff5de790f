from __future__ import annotations

import itertools
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gap_states, is_quasi_subword, words
from kiselman import rewrite, words as words_module
from kiselman.algebra import Element, multiply
from kiselman.enumeration import Semigroup, enumerate_canonical_words, letter_bounds
from kiselman.errors import ResourceLimitError, ValidationError
from kiselman.rewrite import (
    Reduction,
    ReductionKind,
    _deletions,
    _direct_fold,
    _fold,
    all_normal_forms,
    canonical_form,
    canonical_letters,
    reduction_trace,
)
from kiselman.words import (
    Word,
    is_canonical,
    parse_word,
)


# The one-step deletion relation is scanned inside the private deletion
# loop behind canonical_letters and reduction_trace; each step it yields
# is (kind, letter, kept position, removed position) and the word left.
# all_normal_forms has its own one-pass scan, held below to a search
# written from the definition.
RIGHT, LEFT = ReductionKind.RIGHT_DELETION, ReductionKind.LEFT_DELETION


def _redexes_by_definition(letters):
    """Every deletion of letters, in the order the rewriter scans them.

    A plain scan written from the definition: pairs go by the position of
    their left copy, each copy pairs with the next copy of its letter, and
    a gap of smaller letters gives a right deletion before a gap of larger
    letters gives a left one, so an empty gap gives both.
    """
    found = []
    for p, i in enumerate(letters):
        q = None
        for r in range(p + 1, len(letters)):
            if letters[r] == i:
                q = r
                break
        if q is None:
            continue
        gap = letters[p + 1:q]
        if all(g < i for g in gap):
            found.append((RIGHT, i, p, q))
        if all(g > i for g in gap):
            found.append((LEFT, i, q, p))
    return found


def _chain_by_definition(letters):
    """The deletion chain that always takes the reference scan's first pair."""
    chain = []
    while True:
        found = _redexes_by_definition(letters)
        if not found:
            return chain
        removed = found[0][3]
        letters = letters[:removed] + letters[removed + 1:]
        chain.append((found[0], letters))


def _first_step(letters):
    """The first deletion the loop takes on letters; None on a canonical word."""
    step = next(_deletions(letters), None)
    return step and step[0]


def test_one_step_on_adjacent_equal_letters_has_both_kinds():
    # both kinds apply, and the loop takes the right deletion first
    assert _redexes_by_definition((1, 1)) == [(RIGHT, 1, 0, 1), (LEFT, 1, 1, 0)]
    assert list(_deletions((1, 1))) == [((RIGHT, 1, 0, 1), (1,))]


def test_one_step_right_deletion_only():
    assert list(_deletions((2, 1, 2))) == [((RIGHT, 2, 0, 2), (2, 1))]


def test_one_step_left_deletion_only():
    assert list(_deletions((1, 2, 1))) == [((LEFT, 1, 2, 0), (2, 1))]


def test_one_step_empty_on_canonical_word():
    assert _first_step((3, 2, 1)) is None
    assert _first_step(()) is None


def test_one_step_ignores_separated_occurrence_pairs():
    # the middle copy of the letter blocks both deletion conditions, so
    # the first copy pairs with the middle one, not the last
    assert _first_step((2, 1, 2, 1, 2)) == (RIGHT, 2, 0, 2)


def test_canonical_form_examples():
    assert str(canonical_form(parse_word("2 1 2", 2))) == "2 1"
    assert str(canonical_form(parse_word("1 2 1", 2))) == "2 1"
    assert str(canonical_form(parse_word("3 2 1 2", 3))) == "3 2 1"
    assert str(canonical_form(parse_word("", 2))) == ""
    assert str(canonical_form(parse_word("2 1 3 2", 3))) == "2 1 3 2"


def test_canonical_form_is_idempotent():
    rng = random.Random(4)
    for _ in range(300):
        rank = rng.randint(1, 4)
        w = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 12))), rank)
        c = canonical_form(w)
        assert is_canonical(c)
        assert canonical_form(c) == c


def test_all_normal_forms_examples():
    forms = all_normal_forms(parse_word("2 1 2 1", 2))
    assert {str(w) for w in forms} == {"2 1"}
    assert all_normal_forms(parse_word("", 3)) == {parse_word("", 3)}


def test_all_normal_forms_budget_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match="budget|visited"):
        all_normal_forms(parse_word("1 1", 1), node_budget=1)
    # a budget of 2 suffices for this two-word search space
    assert all_normal_forms(parse_word("1 1", 1), node_budget=2) == {
        parse_word("1", 1)
    }


def test_all_normal_forms_rejects_nonpositive_budget():
    with pytest.raises(ValidationError):
        all_normal_forms(parse_word("1", 1), node_budget=0)


def _search_by_definition(letters):
    """The normal forms of letters and the number of words reachable from it.

    Written from the module docstring: any two equal letters, consecutive
    copies or not, delete when the letters between them are all smaller
    (the right copy goes) or all larger (the left copy goes).
    """
    seen = {letters}
    stack = [letters]
    normals = set()
    while stack:
        current = stack.pop()
        successors = set()
        for p, q in itertools.combinations(range(len(current)), 2):
            i = current[p]
            if current[q] != i:
                continue
            gap = current[p + 1:q]
            if all(g < i for g in gap):
                successors.add(current[:q] + current[q + 1:])
            if all(g > i for g in gap):
                successors.add(current[:p] + current[p + 1:])
        if not successors:
            normals.add(current)
        fresh = successors - seen
        seen |= fresh
        stack.extend(fresh)
    return normals, len(seen)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_all_normal_forms_matches_the_definition_exhaustively(rank):
    # every word of at most 6 letters
    for length in range(7):
        for letters in itertools.product(range(1, rank + 1), repeat=length):
            normals, _ = _search_by_definition(letters)
            assert all_normal_forms(Word(letters, rank)) == {
                Word(v, rank) for v in normals
            }


@pytest.mark.parametrize(
    "text, rank",
    [
        ("1 1 1", 1),
        ("2 1 2 1", 2),
        ("1 2 1 2 1 2", 2),
        ("3 1 2 3 1 2 3", 3),
        ("2 2 1 4 3 1 2 4 4 1", 4),
    ],
)
def test_all_normal_forms_budget_boundary(text, rank):
    # the budget bounds the distinct words reachable, start included
    w = parse_word(text, rank)
    normals, reachable = _search_by_definition(w.letters)
    assert reachable >= 2
    assert all_normal_forms(w, node_budget=reachable) == {
        Word(v, rank) for v in normals
    }
    with pytest.raises(ResourceLimitError):
        all_normal_forms(w, node_budget=reachable - 1)


def test_trace_on_canonical_word_is_empty():
    assert list(reduction_trace(parse_word("3 2 1", 3))) == []


def test_trace_deterministic_chain():
    steps = list(reduction_trace(parse_word("1 1 1", 1)))
    assert len(steps) == 2
    assert str(steps[-1][1]) == "1"
    # right deletion wins on a pair admitting both kinds
    assert all(r.kind == ReductionKind.RIGHT_DELETION for r, _ in steps)


def test_trace_single_step():
    [(red, word)] = reduction_trace(parse_word("3 2 1 2", 3))
    assert red == Reduction(ReductionKind.RIGHT_DELETION, 2, 1, 3)
    assert str(word) == "3 2 1"


def test_trace_runs_twice_identically():
    w = parse_word("1 2 1 2 3 1", 3)
    assert list(reduction_trace(w)) == list(reduction_trace(w))


# law: each reduction removes exactly one letter and the trace ends canonical
@given(words())
def test_trace_shape(w):
    steps = list(reduction_trace(w))
    final = steps[-1][1] if steps else w
    assert len(steps) == len(w) - len(final)
    assert final == canonical_form(w)
    assert is_canonical(final)
    previous = w
    for red, after in steps:
        assert len(after) == len(previous) - 1
        assert previous.letters[red.removed_position] == red.letter
        assert previous.letters[red.kept_position] == red.letter
        if red.kind == ReductionKind.RIGHT_DELETION:
            assert red.kept_position < red.removed_position
        else:
            assert red.removed_position < red.kept_position
        previous = after


# law: every deletion's gap is one-sided in value
@given(words())
def test_one_step_reductions_are_sound(w):
    before = w.letters
    for (kind, letter, kept, removed), after in _deletions(before):
        assert before[kept] == before[removed] == letter
        lo, hi = sorted((kept, removed))
        gap = before[lo + 1:hi]
        assert letter not in gap
        if kind == RIGHT:
            assert kept < removed
            assert all(g < letter for g in gap)
        else:
            assert removed < kept
            assert all(g > letter for g in gap)
        assert after == before[:removed] + before[removed + 1:]
        before = after


# law: the deletion loop's scan takes the reference's first deletion, and
# the loop, which keeps the counts the scan reads, follows the reference
# chain step for step, which is what keeps traces byte-identical
@pytest.mark.parametrize("rank, max_len, count", [(3, 7, 3280), (5, 5, 3906)])
def test_redex_scan_matches_the_reference_exhaustively(rank, max_len, count):
    scanned = 0
    for length in range(max_len + 1):
        for letters in itertools.product(range(1, rank + 1), repeat=length):
            first = next(iter(_redexes_by_definition(letters)), None)
            assert _first_step(letters) == first, letters
            assert list(_deletions(letters)) == _chain_by_definition(letters), letters
            scanned += 1
    assert scanned == count


@given(words(max_rank=7, max_len=40))
@settings(max_examples=300)
def test_redex_scan_matches_the_reference(w):
    first = next(iter(_redexes_by_definition(w.letters)), None)
    assert _first_step(w.letters) == first
    assert list(_deletions(w.letters)) == _chain_by_definition(w.letters)


@st.composite
def skewed_letters(draw):
    """Up to 60 letters drawn from a pool in which some letters are rare.

    A letter listed once in a pool of up to a dozen entries can run down
    to its last copy partway through the deletion chain, while the
    others still have pairs to delete.
    """
    rank = draw(st.integers(1, 7))
    pool = draw(st.lists(st.integers(1, rank), min_size=1, max_size=12))
    length = draw(st.integers(0, 60))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length)))


# law: the deletion loop, which keeps the counts the scan reads across
# its deletions, takes the reference scan's first pair at every step
@given(skewed_letters())
@settings(max_examples=300)
def test_deletion_chain_matches_the_reference(letters):
    assert list(_deletions(letters)) == _chain_by_definition(letters)


def test_long_trace_follows_the_reference_chain():
    rng = random.Random(300)
    w = Word(tuple(rng.randint(1, 6) for _ in range(300)), 6)
    chain = _chain_by_definition(w.letters)
    assert len(chain) > 250
    assert [(tuple(red), word.letters) for red, word in reduction_trace(w)] == chain


# law: every maximal deletion sequence ends at the same word
@given(words())
@settings(max_examples=200)
def test_confluence(w):
    assert all_normal_forms(w) == {canonical_form(w)}


# law: the canonical form is a subsequence of the word with no new letters
@given(words())
def test_canonical_form_is_a_quasi_subword(w):
    c = canonical_form(w)
    assert is_quasi_subword(c, w)
    counts_before = Counter(w.letters)
    counts_after = Counter(c.letters)
    for letter in range(1, w.rank + 1):
        count = counts_after[letter]
        assert count <= counts_before[letter]
        # letters never vanish entirely
        assert (count == 0) == (counts_before[letter] == 0)


def test_prefix_stability_for_stems_avoiding_letter_one():
    # can(w . 1 . u) keeps the stem w . 1 intact and thins u to a
    # subsequence, for canonical w and arbitrary u both avoiding letter 1
    rng = random.Random(11)
    for rank in (2, 3, 4):
        stems = sorted(
            (w for w in enumerate_canonical_words(rank) if 1 not in w.letters),
            key=lambda w: (len(w.letters), w.letters),
        )
        alphabet = list(range(2, rank + 1))
        for w in stems:
            for _ in range(30):
                u = tuple(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 8))
                )
                combined = Word(w.letters + (1,) + u, rank)
                reduced = canonical_form(combined)
                head = w.letters + (1,)
                assert reduced.letters[:len(head)] == head
                tail = Word(reduced.letters[len(head):], rank)
                assert is_quasi_subword(tail, Word(u, rank))


def test_prefix_recovery_exhaustive_small_ranks():
    # if can(w . u) contains letter 1 with u avoiding letter 1, the part
    # up to and including that 1 is a prefix of w
    for rank in (2, 3):
        alphabet = list(range(2, rank + 1))
        suffixes = [()]
        frontier = [()]
        for _ in range(3):
            frontier = [s + (a,) for s in frontier for a in alphabet]
            suffixes.extend(frontier)
        for w in enumerate_canonical_words(rank):
            for u in suffixes:
                reduced = canonical_form(Word(w.letters + u, rank))
                if 1 not in reduced.letters:
                    continue
                pos = reduced.letters.index(1)
                assert 1 not in reduced.letters[pos + 1:]
                assert w.letters[:pos + 1] == reduced.letters[:pos + 1]


def test_prefix_recovery_sampled_rank_4():
    rng = random.Random(7)
    stems = sorted(
        enumerate_canonical_words(4),
        key=lambda w: (len(w.letters), w.letters),
    )
    for _ in range(2000):
        w = rng.choice(stems)
        u = tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(0, 6)))
        reduced = canonical_form(Word(w.letters + u, 4))
        if 1 not in reduced.letters:
            continue
        pos = reduced.letters.index(1)
        assert w.letters[:pos + 1] == reduced.letters[:pos + 1]


def test_zero_word_absorbs_on_the_left():
    rng = random.Random(3)
    for rank in (1, 2, 3, 4):
        zero_word = tuple(range(rank, 0, -1))
        for _ in range(50):
            u = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            assert canonical_form(Word(zero_word + u, rank)).letters == zero_word


# The fold behind `multiply` appends letters to a canonical prefix and
# resolves the one deletion each append can create; the rewriter, which
# rescans the whole word after every deletion, is its oracle.


@st.composite
def fold_inputs(draw, max_rank=12, max_letters=300):
    """A rank, a canonical prefix by the rewriter, and letters to fold on.

    Ranks above 6 reach gap states that no enumeration at those ranks
    could, grown lazily by the fold alone.
    """
    rank = draw(st.integers(1, max_rank))
    letter = st.integers(1, rank)
    prefix = canonical_letters(tuple(draw(st.lists(letter, max_size=60))))
    return rank, prefix, tuple(draw(st.lists(letter, max_size=max_letters)))


def _long_fold_input():
    rng = random.Random(14)
    prefix = canonical_letters(tuple(rng.randint(1, 7) for _ in range(60)))
    return 7, prefix, tuple(rng.randint(1, 7) for _ in range(1000))


@given(fold_inputs())
@example(_long_fold_input())
@settings(deadline=None, max_examples=100)
def test_fold_matches_the_rewriter(case):
    # the fold above rank 10 too, at the ranks the rewriter checks densely
    rank, prefix, letters = case
    expected = canonical_letters(prefix + letters)
    assert _fold(prefix, letters, rank) == _direct_fold(prefix + letters) == expected


@st.composite
def short_fold_inputs(draw):
    """A canonical prefix and letters, at most 10 letters in all."""
    rank = draw(st.integers(1, 7))
    w = tuple(draw(st.lists(st.integers(1, rank), max_size=10)))
    cut = draw(st.integers(0, len(w)))
    return rank, canonical_letters(w[:cut]), w[cut:]


@given(short_fold_inputs())
def test_fold_is_the_one_normal_form(case):
    rank, prefix, letters = case
    forms = all_normal_forms(Word(prefix + letters, rank))
    assert forms == {Word(_fold(prefix, letters, rank), rank)}


@st.composite
def sparse_fold_inputs(draw):
    """A canonical prefix and letters over a few letters of a rank up to 10**5."""
    rank = draw(st.integers(1, 10**5))
    pool = draw(st.lists(st.integers(1, rank), min_size=1, max_size=8))
    prefix = canonical_letters(tuple(draw(st.lists(st.sampled_from(pool), max_size=30))))
    return rank, prefix, tuple(draw(st.lists(st.sampled_from(pool), max_size=30)))


@given(sparse_fold_inputs())
@settings(deadline=None)
def test_fold_of_sparse_letters_matches_the_rewriter(case):
    rank, prefix, letters = case
    assert _fold(prefix, letters, rank) == canonical_letters(prefix + letters)


def test_fold_above_rank_10_files_no_automaton(monkeypatch):
    # only whole automata are filed, so above rank 10 the fold tests each
    # append directly.  Words over 1..10 fold at ranks 11, 21 and 3000 to
    # what the rank-10 automaton gives, the ruler with its walks
    # included, and only that automaton is filed
    rng = random.Random(3000)
    long = tuple(rng.randint(1, 10) for _ in range(3001))
    w = _ruler_word(10)
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    letters = tuple(range(2, 152))
    assert _fold((1,), letters, 10**5) == (1, *letters)
    assert _fold((50_000, 7), (50_000,), 10**5) == (50_000, 7)
    assert _fold((11, 1), (11,), 11) == (11, 1)
    assert rewrite._AUTOMATA == {}
    for rank in (11, 21, 3000):
        assert _fold((), long, rank) == _fold((), long, 10)
        assert _fold(w, w[::-1], rank) == _fold(w, w[::-1], 10)
    assert list(rewrite._AUTOMATA) == [10]


def _ruler(lo, hi):
    """Each letter of lo..hi between two copies of the ruler over lo+1..hi."""
    if lo == hi:
        return (lo,)
    inner = _ruler(lo + 1, hi)
    return inner + (lo,) + inner


def _ruler_word(rank):
    """The ruler over 1..rank/2, letter by letter with its mirror above."""
    lower = _ruler(1, rank // 2)
    return tuple(i for pair in zip(lower, (rank + 1 - i for i in lower)) for i in pair)


def test_fold_of_the_longest_rank_10_word_with_its_reversal(monkeypatch):
    # the rank-10 ruler meets every bound of `letter_bounds`: 62 letters.
    # It folds on its reversal through the automaton, and 57 of the 62
    # appends walk back to delete the old copy
    w = _ruler_word(10)
    assert is_canonical(Word(w, 10))
    assert len(w) == sum(letter_bounds(10).values()) == 62
    assert _held_words(w, w[::-1])[1] == 57
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    assert _fold(w, w[::-1], 10) == canonical_letters(w + w[::-1])
    assert list(rewrite._AUTOMATA) == [10]


def test_fold_of_the_longest_rank_20_word_with_its_reversal():
    # the ruler over the lower half, letter by letter with its mirror
    # over the upper half, meets every bound of `letter_bounds`: 2,046
    # letters.  Folding on its reversal, by the direct fold, leaves 20 of
    # the 4,092 letters, and more than 2,000 of the appends delete the
    # old copy
    w = _ruler_word(20)
    assert is_canonical(Word(w, 20))
    assert len(w) == sum(letter_bounds(20).values()) == 2046
    assert _fold(w, w[::-1], 20) == canonical_letters(w + w[::-1])


def test_fold_does_not_call_itself():
    # letters wait on a stack, so no word is too long for the recursion limit
    assert "_fold" not in _fold.__code__.co_names


def test_canonicality_check_is_not_the_automaton():
    # `Element` runs is_canonical on every product, so it must not read
    # the automaton or the fold that made the product
    names = set(is_canonical.__code__.co_names) | set(vars(words_module))
    assert names.isdisjoint({"_fold", "_automaton", "_GapAutomaton", "rewrite"})


# Up to rank 10 the fold's automaton is one memo per rank, shared by
# the whole process and grown only by the states a fold visits.


def test_fold_reaches_its_memo_by_the_rank(monkeypatch):
    # one memo per rank, filed under the rank alone: the fold and the
    # closure of K_3 share it
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    assert _fold((1, 3), (2, 1), 3) == (3, 2, 1)
    memo = rewrite._AUTOMATA[3]
    assert Semigroup(3)._rows is memo.rows
    assert rewrite._AUTOMATA == {3: memo}


def _held_words(prefix, letters):
    """Every word the fold of letters onto prefix holds, and its walks.

    A replay on letters, by the gap test written out: the prefix's
    prefixes, then the word after each append that keeps its letter.
    """
    word = list(prefix)
    held = {prefix[:i] for i in range(len(prefix) + 1)}
    walks = 0
    pending = list(reversed(letters))
    while pending:
        g = pending.pop()
        if g in word:
            p = len(word) - 1 - word[::-1].index(g)
            gap = word[p + 1:]
            if not gap or max(gap) < g:
                continue
            if min(gap) > g:
                walks += 1
                pending += [g, *reversed(gap)]
                del word[p:]
                continue
        word.append(g)
        held.add(tuple(word))
    return held, walks


def test_fresh_memo_holds_only_the_states_one_multiply_visits(monkeypatch):
    # one-shot arithmetic grows no more of the rank-6 automaton's 549
    # states than the words its product held: m + k + 1 states at most
    # when no append deletes an old copy, and in general one per word
    rng = random.Random(16)
    universe = Semigroup(6).words
    without_walks = 0
    for _ in range(300):
        x, y = rng.choice(universe), rng.choice(universe)
        monkeypatch.setattr(rewrite, "_AUTOMATA", {})
        multiply(Element(Word(x, 6)), Element(Word(y, 6)))
        states = rewrite._AUTOMATA[6].states
        held, walks = _held_words(x, y)
        assert set(states) == {gap_states(u, 6) for u in held}
        assert len(states) == len(set(states)) < 549
        if not walks:
            without_walks += 1
            assert len(states) <= len(x) + len(y) + 1
    assert without_walks > 0


def test_threads_growing_one_memo_agree_with_the_rewriter(monkeypatch):
    # the memo is shared by the process: folds racing to grow it from
    # empty must neither give two states one id nor one state two ids
    rng = random.Random(161)
    cases = []
    for _ in range(200):
        prefix = canonical_letters(tuple(rng.randint(1, 8) for _ in range(30)))
        letters = tuple(rng.randint(1, 8) for _ in range(30))
        cases.append((prefix, letters, canonical_letters(prefix + letters)))
    monkeypatch.setattr(rewrite, "_AUTOMATA", {})
    _fold((), (), 8)
    wrong = []

    def work(offset):
        for prefix, letters, expected in cases[offset:] + cases[:offset]:
            if _fold(prefix, letters, 8) != expected:
                wrong.append((prefix, letters))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(50 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    memo = rewrite._AUTOMATA[8]
    assert len(set(memo.states)) == len(memo.states)
    assert all(memo.ids[state] == i for i, state in enumerate(memo.states))
