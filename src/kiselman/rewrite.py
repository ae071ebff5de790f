"""The one-letter deletion relation and canonical forms.

A word rewrites in one step by deleting one of two equal letters i when
every letter strictly between them is smaller (a *right deletion*: the
right copy goes) or every letter strictly between them is larger (a
*left deletion*: the left copy goes).  Adjacent equal letters satisfy
both conditions vacuously, so they admit both deletion kinds.

Iterating deletions always terminates, every deletion shortening the
word by one, and the endpoint does not depend on the order in which
deletions were applied; that unique fixpoint is the canonical form.
`canonical_form` commits to one deterministic order so traces are
reproducible byte for byte, while `all_normal_forms` deliberately
follows every maximal deletion sequence and reports every endpoint,
which makes it the independent oracle the tests use to confirm that
the endpoint really is unique.  The oracle finds each word's deletions
in one left-to-right pass of its own; the redex scan `_redexes` serves
only `canonical_letters` and `reduction_trace`, whose pair order fixes
the traces.

Products start from two canonical words, and `_fold` uses that: it
appends a right factor's letters one at a time to a canonical prefix.
Appending a letter to a canonical word can create only one deletion,
between the new letter and its last earlier copy (Kudryavtseva &
Mazorchuk, "On Kiselman's semigroup", 2009), so the prefix is never
rescanned.  `algebra.multiply` folds; `canonical_form`,
`canonical_letters` and `reduction_trace` keep the rewriter, which the
tests hold the fold to, as they hold it to `all_normal_forms`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

from .errors import ResourceLimitError, ValidationError
from .words import Word

__all__ = [
    "ReductionKind",
    "Reduction",
    "ReductionTrace",
    "canonical_form",
    "canonical_letters",
    "all_normal_forms",
    "reduction_trace",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 1_000_000


class ReductionKind(Enum):
    RIGHT_DELETION = "RightDeletion"
    LEFT_DELETION = "LeftDeletion"


class Reduction(NamedTuple):
    """One deletion step, with 0-based positions into the word it acts on.

    A right deletion keeps the left copy (kept < removed); a left
    deletion keeps the right copy (removed < kept).
    """

    kind: ReductionKind
    letter: int
    kept_position: int
    removed_position: int

    def describe(self) -> str:
        return (
            f"{self.kind.value} letter={self.letter} "
            f"keep={self.kept_position} remove={self.removed_position}"
        )


class ReductionTrace(NamedTuple):
    """A deletion chain from a source word down to its canonical form."""

    source: Word
    steps: tuple[tuple[Reduction, Word], ...]

    @property
    def final(self) -> Word:
        return self.steps[-1][1] if self.steps else self.source


def _redexes(letters: tuple[int, ...]) -> Iterator[tuple[ReductionKind, int, int, int]]:
    """Yield (kind, letter, kept, removed) for every applicable deletion.

    Only consecutive occurrences of a letter can form a redex: a copy of
    the letter inside the gap is neither smaller nor larger than its own
    value, so it defeats both deletion conditions.  Pairs are scanned by
    the position of their left copy, right deletion checked first, and
    that order is what makes `canonical_form` and `reduction_trace`
    deterministic.  Only those two read it: `all_normal_forms` has its
    own scan, so the oracle shares no code with what it checks.
    """
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
            yield ReductionKind.RIGHT_DELETION, i, p, q
        if all(g > i for g in gap):
            yield ReductionKind.LEFT_DELETION, i, q, p


def canonical_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Tuple-level canonical form.

    Its callers are `canonical_form`, the tests and the benchmark; no
    enumerator calls it.
    """
    current = letters
    while True:
        redex = next(_redexes(current), None)
        if redex is None:
            return current
        removed = redex[3]
        current = current[:removed] + current[removed + 1:]


def _fold(prefix: tuple[int, ...], letters: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical form of prefix + letters, for a canonical prefix.

    Appends the letters one at a time.  Appending g to a canonical word
    can pair only with the last copy of g in it, and the gap after that
    copy decides, as in `enumeration._gap_automaton`: no copy, or a gap
    holding both a larger and a smaller letter, keeps the new g; an
    empty gap, or one of smaller letters only, absorbs it; a gap of
    larger letters only deletes the old g, after which the gap and then
    g are appended again to the word before the old g.  Letters still to
    append wait on an explicit stack, so a long word cannot exhaust the
    interpreter's recursion limit.  The word is held reversed, so the
    last copy of g is its first index there.

    >>> _fold((2, 1), (2,))
    (2, 1)
    >>> _fold((1, 3), (2, 1))
    (3, 2, 1)
    """
    word = list(prefix)
    word.reverse()
    pending = list(letters)
    pending.reverse()
    while pending:
        g = pending.pop()
        if g not in word:
            word.insert(0, g)
            continue
        p = word.index(g)
        if not p:
            continue
        gap = word[:p]
        if max(gap) < g:
            continue
        if min(gap) < g:
            word.insert(0, g)
            continue
        pending.append(g)
        pending.extend(gap)  # held reversed, so it pops in word order
        del word[:p + 1]
    word.reverse()
    return tuple(word)


def canonical_form(w: Word) -> Word:
    """The unique shortest word representing the same semigroup element.

    The deletion order cannot change the answer; this implementation
    always applies the first redex found by the left-to-right pair scan,
    preferring right deletion on a pair that admits both kinds.

    >>> from .words import parse_word
    >>> str(canonical_form(parse_word("2 1 2", 2)))
    '2 1'
    >>> str(canonical_form(parse_word("1 2 1", 2)))
    '2 1'
    >>> str(canonical_form(parse_word("3 2 1 2", 3)))
    '3 2 1'
    >>> str(canonical_form(parse_word("", 2)))
    ''
    """
    return Word(canonical_letters(w.letters), w.rank)


def reduction_trace(w: Word) -> ReductionTrace:
    """The deterministic deletion chain from w down to its canonical form.

    The chain has exactly len(w) - len(canonical_form(w)) steps and its
    last word is the canonical form.
    """
    steps: list[tuple[Reduction, Word]] = []
    current = w
    while True:
        redex = next(_redexes(current.letters), None)
        if redex is None:
            return ReductionTrace(w, tuple(steps))
        kind, letter, kept, removed = redex
        current = Word(
            current.letters[:removed] + current.letters[removed + 1:], current.rank
        )
        steps.append((Reduction(kind, letter, kept, removed), current))


def all_normal_forms(w: Word, node_budget: int = DEFAULT_NODE_BUDGET) -> set[Word]:
    """Endpoints of every maximal deletion sequence starting at w.

    Each word's deletions come from one left-to-right pass that keeps
    the last position of every letter: only consecutive copies can pair
    (see `_redexes`), and the gap between a pair is sliced once.  An
    empty or all-smaller gap drops the right copy, and an all-larger gap
    the left one; on an empty gap both kinds give the same word.
    Visited words are deduplicated, so the search walks a DAG rather
    than a tree.  A ResourceLimitError is raised exactly when more than
    node_budget distinct words are reachable from w, w included; that is
    a resource failure, never a wrong answer.  Confluence promises a
    singleton result, but this function must not assume it: it is the
    oracle that checks it.
    """
    if node_budget < 1:
        raise ValidationError(f"node budget must be >= 1, got {node_budget}")
    seen: set[tuple[int, ...]] = {w.letters}
    stack: list[tuple[int, ...]] = [w.letters]
    normals: set[tuple[int, ...]] = set()
    absent = [-1] * (w.rank + 1)
    while stack:
        current = stack.pop()
        last = absent[:]
        terminal = True
        for q, i in enumerate(current):
            p = last[i]
            last[i] = q
            if p < 0:
                continue
            gap = current[p + 1:q]
            if not gap or max(gap) < i:
                removed = q
            elif min(gap) > i:
                removed = p
            else:
                continue
            terminal = False
            nxt = current[:removed] + current[removed + 1:]
            if nxt in seen:
                continue
            if len(seen) >= node_budget:
                raise ResourceLimitError(
                    f"normal-form search visited more than "
                    f"{node_budget} distinct words"
                )
            seen.add(nxt)
            stack.append(nxt)
        if terminal:
            normals.add(current)
    return {Word(letters, w.rank) for letters in normals}
