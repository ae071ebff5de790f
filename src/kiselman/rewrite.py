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
only `_deletions`, the one deletion loop behind `canonical_letters` and
`reduction_trace`, whose pair order fixes the traces.

Products start from two canonical words, and `_fold` uses that: it
appends a right factor's letters one at a time to a canonical prefix.
Appending a letter to a canonical word can create only one deletion,
between the new letter and its last earlier copy (Kudryavtseva &
Mazorchuk, "On Kiselman's semigroup", 2009), and the gap after that
copy decides it.  `_GapAutomaton` writes that rule once, as one
transition on gap states, grown lazily; the process keeps one automaton
per rank, over the letters 1..rank.  The fold reads it one lookup per
append, and `enumeration.Semigroup` closes through the same automaton,
asking for every action of each state its elements reach.
`algebra.multiply` folds; `canonical_form`, `canonical_letters` and
`reduction_trace` keep the rewriter, which the tests hold the fold and
the automaton to, as they hold the fold to `all_normal_forms`.  Neither
oracle, nor `words.is_canonical`, reads the automaton.
"""

from __future__ import annotations

from enum import Enum
from threading import Lock
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
    deterministic.  Only their one loop, `_deletions`, reads it:
    `all_normal_forms` has its own scan, so the oracle shares no code
    with what it checks.
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


def _deletions(
    letters: tuple[int, ...],
) -> Iterator[tuple[tuple[ReductionKind, int, int, int], tuple[int, ...]]]:
    """Yield each step of the deterministic deletion chain from letters.

    A step is the first redex `_redexes` finds and the letters left once
    its removed copy is gone; the last step's letters are the canonical
    form.  `canonical_letters` and `reduction_trace` both run this one
    loop, so a trace ends where `canonical_form` does.
    """
    while True:
        redex = next(_redexes(letters), None)
        if redex is None:
            return
        removed = redex[3]
        letters = letters[:removed] + letters[removed + 1:]
        yield redex, letters


def canonical_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Tuple-level canonical form.

    Its callers are `canonical_form`, the tests and the benchmark; no
    enumerator calls it.
    """
    for _, letters in _deletions(letters):
        pass
    return letters


# What follows the last copy of a letter g in a canonical word u: its
# gap state.  The two flags combine, so _SMALLER | _LARGER is _BOTH.
_EMPTY, _SMALLER, _LARGER, _BOTH, _ABSENT = 0, 1, 2, 3, 4
# The actions of a letter that do not make a new word; a new word's
# action is the id of its gap states.
_SAME, _WALK = -1, -2

# The most states one rank's memo keeps: the reachable count at rank 10,
# about 23 MB at some 360 bytes a state.  Every automaton up to rank 10
# therefore grows once and stays, while a higher rank, whose states
# multiply about threefold per rank (664,305 at rank 12), drops its memo
# once past the bound and starts a new one, instead of holding the
# process's memory for good.
_MEMO_LIMIT = 63_973


class _GapAutomaton:
    """The append-letter rule as an automaton on gap states, grown lazily.

    A canonical word's gap states hold, for every letter, one of five
    states: no copy of it, an empty gap after its last copy, a gap of
    smaller letters only, of larger letters only, or of both.  They are
    indexed by letter, 1..rank, with entry 0 always absent.
    Appending g to a canonical word u can pair only with the last g in u
    (Kudryavtseva & Mazorchuk, "On Kiselman's semigroup", 2009), so g's
    state decides the product u * g:

    - absent, or a gap with both a larger and a smaller letter: u + (g,)
      is canonical, and the action is the id of its gap states;
    - an empty gap, or one of smaller letters only: the new g is
      deleted, u * g = u (_SAME);
    - a gap of larger letters only: the old g is deleted (_WALK), and
      the product is u[:p] * gap * g, p the last g in u.

    Appending g empties g's gap and adds g to the gap of every other
    letter present, so the states of u + (g,) follow from those of u by
    one transition, `act`, the one place the rule is written.  States
    are interned to ids, 0 being the empty word's, and rows[s][g] holds
    the action of letter g at state s, or None until it is first asked
    for.  Every path from state 0 spells a canonical word, so the
    automaton is finite and acyclic: 549 states over the six letters of
    rank 6.
    """

    __slots__ = ("rank", "states", "ids", "rows")

    def __init__(self, rank: int) -> None:
        start = (_ABSENT,) * (rank + 1)
        self.rank = rank
        self.states = [start]
        self.ids = {start: 0}
        self.rows: list[list[int | None]] = [[None] * len(start)]

    def act(self, s: int, g: int) -> int:
        """The action of letter g at state s, computed and memoized.

        Readers look actions up without the lock: a new state's row is
        in place before any action names it.
        """
        with _GROWING:
            gaps = self.states[s]
            state = gaps[g]
            if state == _ABSENT or state == _BOTH:
                child = tuple(
                    _EMPTY if h == g
                    else t if t == _ABSENT
                    else t | (_LARGER if g > h else _SMALLER)
                    for h, t in enumerate(gaps)
                )
                action = self.ids.get(child)
                if action is None:
                    action = self.ids[child] = len(self.states)
                    self.states.append(child)
                    self.rows.append([None] * len(child))
                    if len(self.states) > _MEMO_LIMIT:
                        # whoever holds this one finishes with it; the
                        # next fold starts a new memo
                        if _AUTOMATA.get(self.rank) is self:
                            del _AUTOMATA[self.rank]
            else:
                action = _WALK if state == _LARGER else _SAME
            self.rows[s][g] = action
            return action


# One automaton per rank, filed under the rank.
_AUTOMATA: dict[int, _GapAutomaton] = {}
# Growth is rare, so one lock serves every automaton.
_GROWING = Lock()


def _automaton(rank: int) -> _GapAutomaton:
    """The process's one gap automaton over the letters 1..rank."""
    automaton = _AUTOMATA.get(rank)
    if automaton is None:
        automaton = _AUTOMATA[rank] = _GapAutomaton(rank)
    return automaton


def _fold(
    prefix: tuple[int, ...], letters: tuple[int, ...], rank: int
) -> tuple[int, ...]:
    """The canonical form of prefix + letters, for a canonical prefix.

    Appends the letters one at a time through the gap automaton over
    1..rank, keeping a stack of states, one per length of the word so
    far; after the prefix is walked in, each append is one lookup of
    its action.  A new word appends g; _SAME drops it; a walk deletes
    the old g, truncates the word and the stack to just before it, and
    appends the gap and then g again.  Letters still to append wait on
    an explicit stack, so a long word cannot exhaust the interpreter's
    recursion limit.  The automaton grows only by the states this fold
    visits.

    >>> _fold((2, 1), (2,), 2)
    (2, 1)
    >>> _fold((1, 3), (2, 1), 3)
    (3, 2, 1)
    """
    automaton = _AUTOMATA.get(rank) or _automaton(rank)
    rows, act = automaton.rows, automaton.act
    word = list(prefix)
    s = 0
    states = [s]
    for g in prefix:
        s = rows[s][g]
        if s is None:
            s = act(states[-1], g)
        states.append(s)
    pending = list(letters)
    pending.reverse()
    while pending:
        g = pending.pop()
        action = rows[s][g]
        if action is None:
            action = act(s, g)
        if action >= 0:
            word.append(g)
            states.append(action)
            s = action
        elif action == _WALK:
            p = len(word) - 1 - word[::-1].index(g)
            pending.append(g)
            pending.extend(word[:p:-1])  # reversed, so it pops in word order
            del word[p:]
            del states[p + 1:]
            s = states[p]
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
    return ReductionTrace(w, tuple(
        (Reduction(*redex), Word(letters, w.rank))
        for redex, letters in _deletions(w.letters)
    ))


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
