"""The indexed semigroup, and exhaustive construction by two routes.

`Semigroup(n)` is the package's one indexed representation of K_n.  It
closes {identity} under right multiplication by the letters 1..n and
stores each element, in discovery order, as a parent link and a last
letter, with its gap state; the right Cayley graph is kept one letter at
a time, as one column per letter 1..n, column 0 being None (Froidure &
Pin, "Algorithms for computing finite semigroups", 1997).  It takes no
subset of the letters: any k letters generate a copy of K_k, since
canonicity compares letters only by order, so such a submonoid is
`Semigroup(k)` with its letters relabelled.  Its one kernel,
`product(i, letters)`, walks the letters of a right factor through the
columns from element i, so a product costs one list index per letter
and never rewrites.

The closure runs in two phases.  The words phase, at construction, runs
breadth first in index order and fills three flat lists: each element's
parent, the element of its word without the last letter, that last
letter, and its gap state.  It builds no letter tuple.  The table phase
fills the columns on the first `product` or read of `columns`.  The
words, as letter tuples, and the index, from word to element, are built
on their first read; neither phase needs them.  Each of the three views
is computed once and kept.  The links are this module's storage format
and no other module reads them: `along(op, by_letter, root)` is their
one walk, giving each element a value from its parent's value and its
last letter, and the words are built through it.  Both phases decide
each product u * g by the append-letter rule: appending g to a canonical
word can create only one deletion, between the new g and the last g
already in u, so the letters after that last g say whether the new g
stays, drops, or deletes the old g.  Neither scans u for them.  Each
element carries one gap state per letter, one of five: no copy of the
letter, an empty gap after its last copy, a gap of smaller letters only,
of larger letters only, or of both.  The states of u + (g,) follow from
those of u by one transition, which `rewrite._GapAutomaton` writes once
and runs on every state when it is built; the words phase reads each
state's actions from its row: a new element, u * g = u, or, when the old
g is deleted, a walk.  The table phase resolves each walk in three
lookups of entries already filled, by parent links and last letters (see
`Semigroup._fill`).  At rank 6 there are 549 states for 83,973 elements.

Users: the CLI's `enum` lists the `texts()`, each its parent's plus
one letter, by `rounds()`, the elements of each word length, and builds
neither the words, the index nor the table; `stats` counts on its
indices and products, its zero-threshold histogram from
`zero_thresholds()`; the verify suites, and `equations.solve_right_zero`
on the one its caller builds, take their products from its table, and
the suites their left products, contents and prefix tails by `along`;
the constructive solver reads the words and `zero_thresholds()` of
K_{n-1}, shifts each word up one letter, and never builds K_n; and the
tests hold `element` and `product` to `algebra.multiply`, and
`zero_thresholds()` and the automaton's actions to the rewriter.
One-shot arithmetic builds no table: `algebra.multiply`, which `mul`
calls, folds the right factor onto the left one's canonical word
(`rewrite._fold`) through the same automaton, and `canon` folds its
word the same way.  The process keeps one automaton per rank up to
rank 7 and none above it, where the fold tests each append directly
and `Semigroup` refuses to close.

The deletion rewriter stays as the oracle.  The direct route backtracks
over canonical words, growing a word one letter at a time; every prefix
of a canonical word is canonical, so the search tree is exactly the
canonical words, finite as they are, and each append checks only the
one new consecutive pair of equal letters.  Per-letter multiplicity
bounds skip, unchecked, children the gap check would reject anyway.
Both routes use the fact that an appended letter pairs only
with its last earlier copy, but only the closure resolves the pairs that
delete, and only the direct route relies on the multiplicity bounds, so
their agreement is still a real check.  For the same reason the
word_bounds verification suite checks the bounds on the closure's words:
the direct search could never produce a word that breaks them.  The
cardinality verification suite and tests/test_enumeration.py hold the
closure to the direct search element for element; the same tests hold
every table entry, and `product` on sampled words, to the deletion
rewriter, and replay the rewriter-driven closure as a reference.

Cardinalities grow double-exponentially with the rank.  Enumeration
therefore takes an element cap, |K_6| by default, and decides it before
anything is built: every rank above 7 is refused whatever the cap, since
no automaton exists there (`rewrite._DIRECT_ABOVE`) and K_8 alone has
64,146,328,635 elements; then, as KNOWN_CARDINALITIES holds |K_n| for
every rank 1..7, a cap below it is refused.  A closure that starts
builds exactly |K_n| elements, so no cap can trip while it runs.

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

import os
from bisect import bisect_left
from functools import cached_property
from itertools import compress, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .algebra import Element
from .errors import InvariantError, ResourceLimitError, ValidationError
from .rewrite import _DIRECT_ABOVE, _WALK, _automaton
from .words import Word

if TYPE_CHECKING:  # a one-shot command that writes no cache skips pathlib
    from pathlib import Path

__all__ = [
    "Semigroup",
    "enumerate_canonical_words",
    "letter_bounds",
    "cache_path",
    "write_cache",
    "DEFAULT_ELEMENT_LIMIT",
    "KNOWN_CARDINALITIES",
]

# |K_6|, so ranks 1-6 fit; a literal, so a rank added below cannot raise it
DEFAULT_ELEMENT_LIMIT = 83_973
CACHE_MAGIC = "kiselman-cache v1"

# Every rank a closure accepts, 1..rewrite._DIRECT_ABOVE.  Ranks 1 and 2
# are small enough to list by hand; ranks 3-6 are cross-validated by this
# module's two independent enumerators agreeing element for element (see
# the cardinality verification suite).  Rank 7 is vouched for by two
# counts that share no code: the paths of new-element edges of the gap
# automaton, one per canonical word, and a count-only run of the direct
# search (both in tests/test_enumeration.py).
KNOWN_CARDINALITIES: dict[int, int] = {
    1: 2, 2: 5, 3: 18, 4: 115, 5: 1710, 6: 83973, 7: 22_263_378,
}


class Semigroup:
    """K_rank, closed under the letters 1..rank and indexed.

    Element i is the canonical word words[i].  It is stored as two
    links, its parent, the element of words[i] without its last letter
    (0 for the identity itself), and that last letter, and as its gap
    state in the automaton of `rewrite`.  Elements are numbered in
    discovery order, which is `sort_key` order: shortest first, then
    letter by letter.

    The links are built with the semigroup, and only this class reads
    them: `texts()` and `rounds()` from them alone, and `along` walks
    them for a caller, giving each element a value from its parent's and
    its last letter.  Three views are computed on first read and kept:
    words, the letter tuples, built by `along`; index, from each
    canonical word to its element; and columns, the right Cayley table,
    also filled by the first `product`.  The table is one column per
    letter g in 1..rank: columns[g][i] is the element words[i] * g, and
    columns[0] is None.  A caller that needs only the texts pays for
    none of them.

    `product` is the one multiplication kernel: it walks the letters of
    a right factor through the columns, one list index per letter.
    Building the semigroup raises ResourceLimitError, before the
    automaton is touched, for any rank above `rewrite._DIRECT_ABOVE`, 7,
    where no automaton exists, whatever the `limit`; and then for a
    `limit` below the rank's entry in KNOWN_CARDINALITIES, which has one
    for every other rank.  The CLI's `solve`, `verify` and `stats` read
    the table and build under the default limit, so they stop at rank 6.
    The library still builds rank 7 for a caller that raises `limit` to
    22,263,378 and has the memory: the links, words and texts, all
    `enum` builds, peak near 3 GB.  Its table is refused: `product`,
    `columns` and `zero_thresholds` raise ResourceLimitError at once
    above DEFAULT_ELEMENT_LIMIT elements, where the table did not fit in
    5 GB of address space.
    """

    def __init__(self, rank: int, *, limit: int = DEFAULT_ELEMENT_LIMIT) -> None:
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if limit < 1:
            raise ValidationError(f"element limit must be >= 1, got {limit}")
        if rank > _DIRECT_ABOVE:
            raise ResourceLimitError(f"enumeration at rank {rank} is refused: "
                                     f"closures run only up to rank {_DIRECT_ABOVE}")
        if limit < KNOWN_CARDINALITIES[rank]:
            raise ResourceLimitError(
                f"enumeration at rank {rank} needs {KNOWN_CARDINALITIES[rank]} "
                f"elements, above the element cap of {limit}"
            )
        self.rank = rank
        self._close()

    def _close(self) -> None:
        """Close {identity} under right multiplication: the words phase.

        Elements are processed in index order, and each u * g that is a
        new element is appended with u as its parent and g as its last
        letter, so the elements come out in `sort_key` order: |K_rank| of
        them, which the caller has checked its cap against.  The products
        that are not new are already known: they are at most as long as
        u, and every such element was found in an earlier round.  They
        wait for the table phase.  Each state's new elements are
        listed once, from its row of the automaton, which is whole when
        `rewrite._automaton` returns it.
        """
        rows = _automaton(self.rank).rows
        letters = range(1, self.rank + 1)
        # each state's new elements, as (last letter, state) in letter order
        news = [[(g, row[g]) for g in letters if row[g] >= 0] for row in rows]
        parents = [0]
        lasts = [0]
        states = [0]
        add_parent, add_last, add_state = parents.append, lasts.append, states.append
        # states grows as the loop runs, and enumerate reads the new items
        for ui, s in enumerate(states):
            for g, child in news[s]:
                add_parent(ui)
                add_last(g)
                add_state(child)
        # parents never decrease past the identity, and the elements of
        # one length are those whose parents have the length before, so
        # each round's end is where the parents reach its start
        bounds = [0, 1]
        while bounds[-1] < len(parents):
            bounds.append(bisect_left(parents, bounds[-1], bounds[-1]))
        self._rows = rows
        self._parents = parents
        self._lasts = lasts
        self._states = states
        self._bounds = bounds

    def rounds(self) -> list[tuple[int, int]]:
        """The elements of each word length, as (start, end) index ranges.

        Entry L holds the elements whose words have L letters, the ones
        the closure's round L found, read from the links alone.

        >>> Semigroup(2).rounds()
        [(0, 1), (1, 3), (3, 5)]
        """
        return list(zip(self._bounds, self._bounds[1:]))

    def _fill(self) -> list[list[int] | None]:
        """Fill the right Cayley table from the row actions: the table phase.

        Every column starts as u * g = u; the words phase's new elements
        are then set from their links.  A walk, for u * g with the old g
        deleted, has every letter of the gap after that g larger than g,
        the last letter h of u included.  With u = v * h, and because
        g h g = h g is a left deletion:

        - if v ends in g, u = x g h and u * g = (x * h) * g, x the parent
          of v;
        - otherwise v * g is a walk too, and u * g = ((v * g) * h) * g.

        So a walk reads three entries.  Columns are filled from the
        largest letter down, so column h > g is complete; v, x * h and
        v * g are shorter than u, and (v * g) * h is shorter than u, or
        as long as u and later in `sort_key` order.  So column g takes
        its walks one length at a time, shortest first, and within a
        length from the last element back.

        Above DEFAULT_ELEMENT_LIMIT elements, that is at rank 7, the table
        is refused before anything is allocated: its rank * |K_7| entries
        did not fit in 5 GB of address space.
        """
        if len(self) > DEFAULT_ELEMENT_LIMIT:
            raise ResourceLimitError(
                f"the Cayley table at rank {self.rank} is refused: tables are "
                f"built only up to {DEFAULT_ELEMENT_LIMIT} elements"
            )
        parents, lasts, states, rows = (
            self._parents, self._lasts, self._states, self._rows
        )
        n = len(parents)
        unchanged = list(range(n))
        columns: list[list[int] | None] = [None]
        columns += [unchanged[:] for _ in range(self.rank)]
        for c in unchanged[1:]:
            columns[lasts[c]][parents[c]] = c
        for g in range(self.rank, 0, -1):
            walks = [row[g] == _WALK for row in rows]
            walkers = list(compress(unchanged, map(walks.__getitem__, states)))
            column = columns[g]
            for start, end in self.rounds():
                for u in reversed(walkers[
                    bisect_left(walkers, start):bisect_left(walkers, end)
                ]):
                    v = parents[u]
                    column[u] = column[columns[lasts[u]][
                        parents[v] if lasts[v] == g else column[v]
                    ]]
        return columns

    @cached_property
    def columns(self) -> list[list[int] | None]:
        """The right Cayley table, one column per letter, filled on first use."""
        return self._fill()

    def along(self, op: Callable, by_letter: Sequence, root: object) -> list:
        """A value per element, along the links: root for the identity,
        and op(by_letter[g], v's value) for the element v * g whose parent
        is v and whose last letter is g.

        >>> Semigroup(2).along(int.__or__, [0, 1, 2], 0)  # contents as bitmasks
        [0, 1, 2, 3, 3]
        """
        values = [root]
        # a round's parents are all in the rounds before it
        for start, end in self.rounds()[1:]:
            labels = map(by_letter.__getitem__, self._lasts[start:end])
            values += map(op, labels, map(values.__getitem__, self._parents[start:end]))
        return values

    @cached_property
    def words(self) -> list[tuple[int, ...]]:
        """Each element's canonical word, built along the links on first use."""
        singles = [(g,) for g in range(self.rank + 1)]
        return self.along(lambda g, w: w + g, singles, ())

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Each canonical word's element, built on first use."""
        return dict(zip(self.words, range(len(self))))

    def texts(self) -> list[str]:
        """Each word's letters joined by spaces, as `str(Word)` writes them.

        Each text is its parent's text and one more letter, so no word
        is joined from scratch, and no letter tuple is built.

        >>> Semigroup(2).texts()
        ['', '1', '2', '1 2', '2 1']
        """
        parents, lasts = self._parents, self._lasts
        spaced = [f" {g}" for g in range(self.rank + 1)]
        texts = [""]
        for length, (start, end) in enumerate(self.rounds()[1:], 1):
            if length == 1:  # the only texts without a space
                texts += map(str, lasts[start:end])
            else:
                texts += [
                    texts[p] + spaced[g]
                    for p, g in zip(parents[start:end], lasts[start:end])
                ]
        return texts

    def __len__(self) -> int:
        return len(self._parents)

    def product(self, i: int, letters: Iterable[int]) -> int:
        """The index of words[i] * letters, each letter in 1..rank."""
        columns = self.columns
        for g in letters:
            i = columns[g][i]
        return i

    def zero_thresholds(self) -> list[int]:
        """Each element's zero threshold, read from the table.

        Entry i is the least m such that words[i] * (m, ..., 1) is the
        zero; m = rank always works, since the zero absorbs.  This is
        `algebra.zero_threshold` of element i.  Whether x * (m, ..., 1)
        is the zero is whether (x * m) * (m - 1, ..., 1) is, so each m's
        answers are the m - 1 answers read through column m.

        >>> Semigroup(2).zero_thresholds()
        [2, 2, 1, 1, 0]
        """
        zero = self.product(0, range(self.rank, 0, -1))
        reaches = [[i == zero for i in range(len(self))]]
        for column in self.columns[1:]:
            reaches.append(list(map(reaches[-1].__getitem__, column)))
        try:
            return list(map(tuple.index, zip(*reaches), repeat(True)))
        except ValueError:
            i = [True in reach for reach in zip(*reaches)].index(False)
            raise InvariantError(
                f"'{self.element(i)}' times the zero is not the zero"
            ) from None

    def element(self, i: int) -> Element:
        """Element i as an `Element`."""
        return Element(Word(self.words[i], self.rank))


def letter_bounds(rank: int) -> dict[int, int]:
    """Per-letter multiplicity bounds satisfied by every canonical word.

    Letter i occurs at most 2^(i-1) times counted from the bottom of the
    alphabet and at most 2^(rank-i) times counted from the top; both
    extreme letters occur at most once.  The bottom bound is the smaller
    exactly when i <= (rank + 1) / 2, so the minimum of the two is the
    bottom bound over the lower half of the alphabet and the top one
    over the upper half.

    >>> letter_bounds(4)
    {1: 1, 2: 2, 3: 2, 4: 1}
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    return {i: min(2 ** (i - 1), 2 ** (rank - i)) for i in range(1, rank + 1)}


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
    from pathlib import Path

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
            handle.write(f"{header}\n")
            if texts:
                handle.write("\n".join(texts))
                handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
