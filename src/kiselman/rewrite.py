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
in one left-to-right pass of its own.  `_deletions` is the one deletion
loop behind `canonical_letters` and `reduction_trace`: it scans the
current word from position 0 for its first pair, deletes, and scans
again, so its pair order fixes the traces; its docstring says how a
scan finds each pair.

Products start from two canonical words, and `_fold` uses that: it
appends a right factor's letters one at a time to a canonical prefix.
Appending a letter to a canonical word can create only one deletion,
between the new letter and its last earlier copy (Kudryavtseva &
Mazorchuk, "On Kiselman's semigroup", 2009), and the gap after that
copy decides it.  `_GapAutomaton` writes that rule once, as one
transition on gap states, grown lazily.  No automaton exists above rank
`_DIRECT_ABOVE`, 10.  Up to it the process keeps one automaton per rank,
over the letters 1..rank: the fold reads it one lookup per append, and
`enumeration.Semigroup` closes through the same automaton, asking for
every action of each state its elements reach.  Above that rank the
fold tests each append directly, and `Semigroup` refuses to close.
`algebra.multiply` and `algebra.from_word`, which every word the CLI
reads goes through, fold; `canonical_form`, `canonical_letters` and
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


def _deletions(
    letters: tuple[int, ...],
) -> Iterator[tuple[tuple[ReductionKind, int, int, int], tuple[int, ...]]]:
    """Yield each step of the deterministic deletion chain from letters.

    A step is (kind, letter, kept, removed), the first deletion a
    left-to-right scan of the current word meets, and the letters left
    once its removed copy is gone; the last step's letters are the
    canonical form.  Only consecutive copies of a letter can pair: a
    copy of the letter inside the gap is neither smaller nor larger than
    its own value, so it defeats both deletion conditions.  So each
    position p pairs only with the next copy of its letter, found by the
    tuple's own `index` from p + 1, and the gap between them is decided
    by its `max` (all smaller) or its `min` (all larger); an empty gap
    admits both kinds, and the right deletion comes first.
    The loop counts the copies of each letter once and takes one off the
    deleted letter after each step.  Each scan counts down a copy as it
    passes a position, so a position that holds the last copy of its
    letter, which pairs with nothing, is passed over without a search.
    Every scan restarts from position 0, and that order is what makes
    `canonical_letters` and `reduction_trace`, which both run this one
    loop, deterministic: a trace ends where `canonical_form` does.
    `all_normal_forms` has its own scan, so the oracle shares no code
    with what it checks.
    """
    # a plain loop: building a Counter costs about 1 µs more on a short word
    counts: dict[int, int] = {}
    for i in letters:
        counts[i] = counts.get(i, 0) + 1
    while True:
        later = dict(counts)
        index = letters.index
        for p, i in enumerate(letters):
            later[i] -= 1
            if not later[i]:  # p holds the last copy of i
                continue
            q = index(i, p + 1)
            gap = letters[p + 1:q]
            if not gap or max(gap) < i:
                step, removed = (ReductionKind.RIGHT_DELETION, i, p, q), q
                break
            if min(gap) > i:
                step, removed = (ReductionKind.LEFT_DELETION, i, q, p), p
                break
        else:
            return
        counts[i] -= 1
        letters = letters[:removed] + letters[removed + 1:]
        yield step, letters


def canonical_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Tuple-level canonical form.

    The last word of the `_deletions` chain.  Its callers are
    `canonical_form`, the tests and the benchmark; `from_word`,
    `multiply` and the enumerators fold instead.
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

# Above this rank there is no automaton.  Up to it, each rank's
# automaton grows once and stays: 63,973 states at rank 10, and 92,285
# over ranks 1..10, about 33 MB at some 360 bytes a state.  A state
# holds rank + 1 entries and their number grows about threefold per
# rank (664,305 at rank 12), so above rank 10 the fold tests each
# append directly, and `enumeration.Semigroup` refuses the rank: K_11
# could only ever end at its element cap.
_DIRECT_ABOVE = 10


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
            else:
                action = _WALK if state == _LARGER else _SAME
            self.rows[s][g] = action
            return action


# One automaton per rank up to _DIRECT_ABOVE, filed under the rank.
_AUTOMATA: dict[int, _GapAutomaton] = {}
# Growth is rare, so one lock serves every automaton.
_GROWING = Lock()


def _automaton(rank: int) -> _GapAutomaton:
    """The process's one gap automaton over the letters 1..rank, filed.

    Its callers, `_fold` and `enumeration.Semigroup`, ask only up to
    rank `_DIRECT_ABOVE`.  Threads that race to build it all get the one
    `setdefault` files.
    """
    return _AUTOMATA.get(rank) or _AUTOMATA.setdefault(rank, _GapAutomaton(rank))


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
    visits.  Above rank `_DIRECT_ABOVE`, `_direct_fold` serves instead.

    >>> _fold((2, 1), (2,), 2)
    (2, 1)
    >>> _fold((1, 3), (2, 1), 3)
    (3, 2, 1)
    """
    if rank > _DIRECT_ABOVE:
        return _direct_fold(prefix + letters)
    automaton = _automaton(rank)
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


def _direct_fold(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical form of letters, by the fold with no automaton.

    Each append tests the gap after the last copy of its letter by the
    gap's `max` and `min`, as `_GapAutomaton.act` does on its states.
    The fold keeps each letter's last position, and each position the
    one of its letter's copy before it, -1 for none, by which a walk
    restores the letters it cuts off.  Memory stays linear in the word.

    >>> _direct_fold((1, 3, 2, 1))
    (3, 2, 1)
    """
    word: list[int] = []
    before: list[int] = []
    last: dict[int, int] = {}
    pending = list(letters)
    pending.reverse()
    while pending:
        g = pending.pop()
        p = last.get(g, -1)
        if p >= 0:
            gap = word[p + 1:]
            if not gap or max(gap) < g:
                continue
            if min(gap) > g:
                pending.append(g)
                pending += reversed(gap)
                for q in range(len(word) - 1, p - 1, -1):
                    last[word[q]] = before[q]
                del word[p:], before[p:]
                continue
        before.append(p)
        last[g] = len(word)
        word.append(g)
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


def reduction_trace(w: Word) -> Iterator[tuple[Reduction, Word]]:
    """The deterministic deletion chain from w down to its canonical form.

    Yields each step as the deletion, with its positions in the word
    before it, and the word after it.  The chain has exactly
    len(w) - len(canonical_form(w)) steps and its last word is the
    canonical form.  Its words total about len(w)**2 / 2 letters, so
    `canon --trace` prints each step in text mode as it comes.

    >>> from .words import parse_word
    >>> steps = reduction_trace(parse_word("1 2 1", 2))
    >>> [(red.describe(), str(word)) for red, word in steps]
    [('LeftDeletion letter=1 keep=2 remove=0', '2 1')]
    """
    for redex, letters in _deletions(w.letters):
        yield Reduction(*redex), Word(letters, w.rank)


def all_normal_forms(w: Word, node_budget: int = DEFAULT_NODE_BUDGET) -> set[Word]:
    """Endpoints of every maximal deletion sequence starting at w.

    Each word's deletions come from one left-to-right pass that keeps
    the last position of every letter: only consecutive copies can pair
    (see `_deletions`), and the gap between a pair is sliced once.  An
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
