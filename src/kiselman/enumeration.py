"""The indexed semigroup, and exhaustive construction by two routes.

`Semigroup` is the package's one indexed representation of an enumerated
monoid.  It closes {identity} under right multiplication by its
generators and keeps the canonical words in discovery order, each word's
parent, a dict from word to index, and the flat right Cayley table
(Froidure & Pin, "Algorithms for computing finite semigroups", 1997).
Its one kernel, `product(i, letters)`, walks the letters of a right
factor through the table from element i, so a product costs one lookup
per letter and never rewrites.

The closure runs in two phases.  The words phase, at construction, runs
breadth first in index order and builds the words and their parents: the
parent of u is u without its last letter.  The table phase fills the
table row by row in index order, on the first `product` or read of
`table`.  The index, from word to element, is built on its first read;
neither phase needs it.  Both phases decide each product u * g by the
append-letter rule: appending g to a canonical word can create only one
deletion, between the new g and the last g already in u, so the letters
after that last g say whether the new g stays, drops, or deletes the old
g.  Neither scans u for them.  Each element carries one gap state per
generator, one of five: no copy of the letter, an empty gap after its
last copy, a gap of smaller letters only, of larger letters only, or of
both.  The states of u + (g,) follow from those of u by one transition,
which is the one place the rule is written, and each distinct tuple of
states memoizes its row's actions: a new element, u * g = u, or, when
the old g is deleted, a walk through the rows of shorter elements, which
the table phase has already filled; the walk starts from u[:p], p the
last g in u, reached by parent links.  At rank 6 there are 549 distinct
tuples for 83,973 elements.

Users: the CLI's `enum` lists its words and their `texts()`, each text
its parent's plus one letter, and builds neither the index nor the
table; `stats` counts on its indices and products, its zero-threshold
histogram from `zero_thresholds()`; the verify suites and
`equations.solve_right_zero` take their products from its table; the
constructive solver reads the words and `zero_thresholds()` of the
submonoid avoiding letter 1, a `Semigroup` over the letters 2..n, and
never builds K_n; and the tests hold `elements()` to the rewriter's
`multiply`, and `zero_thresholds()` to `algebra.zero_threshold`.  One-shot
arithmetic (`canon`, `mul`, `algebra.multiply`) builds no table and
calls the rewriter.

The deletion rewriter stays as the oracle.  The direct route backtracks
over canonical words, growing a word one letter at a time; every prefix
of a canonical word is canonical, so the search tree is exactly the
canonical words, each append checks only the one new consecutive pair
of equal letters, and per-letter multiplicity bounds prune the tree
finite.  Both routes use the fact that an appended letter pairs only
with its last earlier copy, but only the closure resolves the pairs that
delete, and only the direct route relies on the multiplicity bounds, so
their agreement is still a real check.  For the same reason the
word_bounds verification suite checks the bounds on the closure's words:
the direct search could never produce a word that breaks them.  The
cardinality verification suite and tests/test_enumeration.py hold the
closure to the direct search element for element; the same tests hold every table entry, and
`product` on sampled words, to the deletion rewriter, and replay the
rewriter-driven closure as a reference.

Cardinalities grow double-exponentially with the rank.  Enumeration
therefore takes an element cap, and the CLI refuses ranks above
MAX_DEFAULT_RANK unless explicitly forced.

Cache files (one per rank) use a one-line header followed by one
canonical word per line, shortest first::

    kiselman-cache v1 n=<rank> count=<N>

They are written for other tools and never read back: building the
semigroup costs less than validating a file would, and a file cannot
vouch for a count that no second route has checked.  The caller
supplies the lines, as `Semigroup.texts()` returns them: formatted, in
`sort_key` order and without repeats; the writer neither sorts nor
checks them.  Writes replace the file in one step.
"""

from __future__ import annotations

import math
import os
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from .algebra import Element
from .errors import InvariantError, ResourceLimitError, ValidationError
from .words import Word

__all__ = [
    "Semigroup",
    "enumerate_canonical_words",
    "letter_bounds",
    "cache_path",
    "write_cache",
    "DEFAULT_ELEMENT_LIMIT",
    "MAX_DEFAULT_RANK",
    "KNOWN_CARDINALITIES",
]

DEFAULT_ELEMENT_LIMIT = 10_000_000
MAX_DEFAULT_RANK = 6
CACHE_MAGIC = "kiselman-cache v1"

# Ranks 1 and 2 are small enough to list by hand; the larger values are
# cross-validated by this module's two independent enumerators agreeing
# element for element (see the cardinality verification suite).
KNOWN_CARDINALITIES: dict[int, int] = {1: 2, 2: 5, 3: 18, 4: 115, 5: 1710, 6: 83973}


# What follows the last copy of a generator g in a canonical word u: its
# gap state.  The two flags combine, so _SMALLER | _LARGER is _BOTH.
_EMPTY, _SMALLER, _LARGER, _BOTH, _ABSENT = 0, 1, 2, 3, 4
# The actions of a row that do not make a new element; a new one is
# the child's gap states, as an index into the automaton.
_SAME, _WALK = -1, -2


def _gap_automaton(generators: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The row actions of every reachable tuple of gap states.

    A word u's gap states hold one state per generator.  Row s of the
    result has one action per generator g, decided by g's state in s:

    - absent, or a gap with both a larger and a smaller letter: u + (g,)
      is canonical, a new element, and the action is the row of its
      gap states;
    - an empty gap, or one of smaller letters only: the new g is
      deleted, u * g = u (_SAME);
    - a gap of larger letters only: the old g is deleted (_WALK).

    Appending g empties g's gap and adds g to the gap of every other
    generator present, so the states of u + (g,) follow from those of u
    by one transition.  Every path from row 0, the identity's, spells a
    canonical word, so the automaton is finite and acyclic.
    """
    start = (_ABSENT,) * len(generators)
    ids = {start: 0}
    pending = [start]
    rows: list[tuple[int, ...]] = []
    while len(rows) < len(pending):
        gaps = pending[len(rows)]
        row = []
        for g, state in zip(generators, gaps):
            if state == _ABSENT or state == _BOTH:
                child = tuple(
                    _EMPTY if h == g
                    else s if s == _ABSENT
                    else s | (_LARGER if g > h else _SMALLER)
                    for h, s in zip(generators, gaps)
                )
                if child not in ids:
                    ids[child] = len(pending)
                    pending.append(child)
                row.append(ids[child])
            else:
                row.append(_WALK if state == _LARGER else _SAME)
        rows.append(tuple(row))
    return rows


class Semigroup:
    """The monoid generated by some letters of K_rank, closed and indexed.

    The generators default to every letter 1..rank.  Element i is the
    canonical word words[i], and its parent is the element of words[i]
    without its last letter (0 for the identity itself); index maps each
    canonical word back to its element; table[i * width + j] is the
    element words[i] * generators[j], where width = len(generators), so
    table is the right Cayley table.
    Elements are numbered in discovery order, which is `sort_key` order:
    shortest first, then letter by letter.  frontier_rounds counts the
    rounds of the closure, one per word length and a last one that finds
    nothing.

    The words and parents are built with the semigroup, the index and
    the table on their first read (the table also on the first
    `product`), so a caller that needs only the words, or their
    `texts()`, pays for neither.  multiplications counts the table
    entries filled: 0 before that, len(words) * width after.

    `product` is the one multiplication kernel: it walks the letters of
    a right factor through the table, one lookup per letter.  Building
    the semigroup raises ResourceLimitError if more than `limit`
    elements appear.
    """

    __slots__ = (
        "rank", "generators", "words", "frontier_rounds", "multiplications",
        "_width", "_column", "_automaton", "_states", "_parents", "_index",
        "_table",
    )

    def __init__(
        self,
        rank: int,
        generators: Iterable[int] | None = None,
        limit: int = DEFAULT_ELEMENT_LIMIT,
    ) -> None:
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if limit < 1:
            raise ValidationError(f"element limit must be >= 1, got {limit}")
        gens = (
            tuple(range(1, rank + 1))
            if generators is None
            else tuple(sorted(set(generators)))
        )
        for g in gens:
            if not 1 <= g <= rank:
                raise ValidationError(f"generator {g} out of range [1, {rank}]")
        self.rank = rank
        self.generators = gens
        self._width = len(gens)
        self._column = {g: j for j, g in enumerate(gens)}
        self._index: dict[tuple[int, ...], int] | None = None
        self._table: list[int] | None = None
        self.multiplications = 0
        self._close(limit)

    def _close(self, limit: int) -> None:
        """Close {identity} under right multiplication: the words phase.

        Elements are processed in index order, and each u * g that is a
        new element is appended as u + (g,), with u as its parent, so the
        words come out in `sort_key` order.  The products that are not
        new are already known: they are at most as long as u, and every
        such element was found in an earlier round.  They wait for the
        table phase.
        """
        automaton = _gap_automaton(self.generators)
        news = [
            [(g, action) for g, action in zip(self.generators, row) if action >= 0]
            for row in automaton
        ]
        words: list[tuple[int, ...]] = [()]
        states = [0]
        parents = [0]
        # both lists grow as the loop runs, and zip reads the new items
        for ui, (u, state) in enumerate(zip(words, states)):
            for g, child in news[state]:
                if len(words) >= limit:
                    raise ResourceLimitError(
                        f"enumeration at rank {self.rank} exceeded "
                        f"the element cap of {limit}"
                    )
                words.append(u + (g,))
                states.append(child)
                parents.append(ui)
        self.words = words
        self.frontier_rounds = len(words[-1]) + 1
        self._automaton = automaton
        self._states = states
        self._parents = parents

    def _fill(self) -> list[int]:
        """Fill the right Cayley table from the row actions: the table phase.

        A walk, for u * g with the old g deleted, is the element
        u[:p] * gap * g, where p is the last g in u; u[:p] is reached
        from u by len(u) - p parent links.  Every element the walk visits
        is a product of at most len(u) - 1 letters, so its word is
        shorter than u; rows are filled in index order, which is length
        order, so every row the walk reads is already complete.
        """
        words, parents, column, width = (
            self.words, self._parents, self._column, self._width
        )
        table: list[int] = []
        new = 1  # the words phase appended the new elements in this order
        automaton = self._automaton
        for ui, (u, state) in enumerate(zip(words, self._states)):
            for g, action in zip(self.generators, automaton[state]):
                if action >= 0:
                    table.append(new)
                    new += 1
                elif action == _SAME:
                    table.append(ui)
                else:
                    i = ui
                    for h in reversed(u):
                        i = parents[i]
                        if h == g:
                            break
                    for h in u[len(words[i]) + 1:] + (g,):
                        i = table[i * width + column[h]]
                    table.append(i)
        self._table = table
        self.multiplications = len(table)
        return table

    @property
    def table(self) -> list[int]:
        """The right Cayley table, filled on first use."""
        return self._fill() if self._table is None else self._table

    @property
    def index(self) -> dict[tuple[int, ...], int]:
        """Each canonical word's element, built on first use."""
        if self._index is None:
            self._index = dict(zip(self.words, range(len(self.words))))
        return self._index

    def texts(self) -> list[str]:
        """Each word's letters joined by spaces, as `str(Word)` writes them.

        Each text is its parent's text and one more letter, so no word
        is joined from scratch.

        >>> Semigroup(2).texts()
        ['', '1', '2', '1 2', '2 1']
        """
        # the identity, then its children (g,), one per generator: the
        # only texts without a space
        texts = [""] + [str(g) for g in self.generators]
        spaced = [f" {g}" for g in range(self.rank + 1)]
        pairs = zip(self._parents, self.words)
        for parent, u in islice(pairs, len(texts), None):
            texts.append(texts[parent] + spaced[u[-1]])
        return texts

    def __len__(self) -> int:
        return len(self.words)

    def product(self, i: int, letters: Iterable[int]) -> int:
        """The index of words[i] * letters; every letter must be a generator."""
        table, width, column = self.table, self._width, self._column
        for g in letters:
            i = table[i * width + column[g]]
        return i

    def zero_thresholds(self) -> list[int]:
        """Each element's zero threshold, read from the table.

        Entry i is the least m such that words[i] * (g_m, ..., g_1) is
        the zero, the decreasing word over the generators g_1 < ... < g_k;
        m = k always works, since the zero absorbs.  Over every letter
        1..rank this is `algebra.zero_threshold` of element i.

        >>> Semigroup(2).zero_thresholds()
        [2, 2, 1, 1, 0]
        """
        tails = [self.generators[:m][::-1] for m in range(self._width + 1)]
        zero = self.product(0, tails[-1])
        thresholds = []
        for i in range(len(self.words)):
            for m, tail in enumerate(tails):
                if self.product(i, tail) == zero:
                    thresholds.append(m)
                    break
            else:
                raise InvariantError(
                    f"'{self.element(i)}' times the zero is not the zero"
                )
        return thresholds

    def element(self, i: int) -> Element:
        """Element i as an `Element`."""
        return Element(Word(self.words[i], self.rank))

    def elements(self) -> frozenset[Element]:
        """Every element as an `Element`; a set, so no traversal order shows."""
        return frozenset(map(self.element, range(len(self.words))))


def letter_bounds(rank: int) -> dict[int, int]:
    """Per-letter multiplicity bounds satisfied by every canonical word.

    Letter i occurs at most 2^(i-1) times counted from the bottom of the
    alphabet and at most 2^(rank-i) times counted from the top; both
    extreme letters occur at most once.

    >>> letter_bounds(4)
    {1: 1, 2: 2, 3: 2, 4: 1}
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    lower_half = math.ceil(rank / 2)
    upper_half = math.ceil((rank + 1) / 2)
    bounds: dict[int, int] = {}
    for i in range(1, rank + 1):
        bound: int | None = None
        if i <= lower_half:
            bound = 2 ** (i - 1)
        if i >= upper_half:
            top = 2 ** (rank - i)
            bound = top if bound is None else min(bound, top)
        assert bound is not None  # every letter falls in at least one half
        bounds[i] = bound
    return bounds


def enumerate_canonical_words(rank: int) -> set[Word]:
    """All canonical words over 1..rank, by pruned backtracking.

    Appending a letter adds exactly one new consecutive-occurrence pair,
    so canonicality is re-checked incrementally on that pair alone.

    >>> sorted(str(w) for w in enumerate_canonical_words(2))
    ['', '1', '1 2', '2', '2 1']
    """
    return {Word(letters, rank) for letters in _canonical_words(rank)}


def _canonical_words(rank: int) -> list[tuple[int, ...]]:
    """The direct search behind `enumerate_canonical_words`, as letter tuples.

    Each canonical word comes once, in depth-first order: the search
    tree holds each word once, as the path of its prefixes.  The verify
    suites count and compare these tuples and never build a `Word`.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    bounds = [0, *letter_bounds(rank).values()]
    letters = range(1, rank + 1)
    counts = [0] * (rank + 1)
    last = [-1] * (rank + 1)  # the position of each letter's last copy
    found: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...]) -> None:
        found.append(prefix)
        end = len(prefix)
        for i in letters:
            if counts[i] == bounds[i]:
                continue
            prev = last[i]
            if prev >= 0:
                # the gap after the last i holds no i: it needs a larger
                # and a smaller letter
                gap = prefix[prev + 1:]
                if not gap or max(gap) < i or min(gap) > i:
                    continue
            counts[i] += 1
            last[i] = end
            grow(prefix + (i,))
            counts[i] -= 1
            last[i] = prev

    grow(())
    return found


def cache_path(cache_dir: str | Path, rank: int) -> Path:
    return Path(cache_dir) / f"k{rank}.cache"


def write_cache(cache_dir: str | Path, rank: int, texts: Sequence[str]) -> Path:
    """Write one rank's cache file: the header, then the given lines.

    texts are the rank's canonical words as `Semigroup.texts()` returns
    them, in `sort_key` order and without repeats; the file holds exactly
    those lines, and the header counts them.  The text goes to a
    temporary file in the same directory, which then replaces the cache
    file in one step, so a concurrent reader sees the old file or the
    new one and never a partial write.
    """
    path = cache_path(cache_dir, rank)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = f"{CACHE_MAGIC} n={rank} count={len(texts)}"
    # opened like any new file, so the cache keeps the umask's permissions
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="ascii") as handle:
            handle.write("\n".join([header, *texts]) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
