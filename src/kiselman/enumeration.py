"""The indexed semigroup, and exhaustive construction by two routes.

`Semigroup` is the package's one indexed representation of an
enumerated monoid.  It closes {identity} under right multiplication by
its generators, round by round, and keeps the canonical words in
discovery order, a dict from word to index, and the flat right Cayley
table (Froidure & Pin, "Algorithms for computing finite semigroups",
1997).  Its one kernel, `product(i, letters)`, walks the letters of a
right factor through the table from element i, so a product costs one
lookup per letter and never rewrites.

The closure decides each product u * g by the append-letter rule:
appending g to a canonical word can create only one deletion, between
the new g and the last g already in u, so the letters after that last g
say whether the new g stays, drops, or deletes the old g.  In the last
case the product is a walk through the rows of shorter elements, which
are already complete.

Users: the CLI's `enum` lists its words and `stats` counts on its
indices; the verify suites and `equations.solve_right_zero` take their
products from its table; the constructive solver walks the submonoid
avoiding letter 1, a `Semigroup` over the letters 2..n; and the tests
hold `elements()` to the rewriter's `multiply`.  One-shot
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
vouch for a count that no second route has checked.  Writes replace the
file in one step.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterable

from .algebra import Element, sort_key
from .errors import ResourceLimitError, ValidationError
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


class Semigroup:
    """The monoid generated by some letters of K_rank, closed and indexed.

    The generators default to every letter 1..rank.  Element i is the
    canonical word words[i]; index maps each canonical word back to its
    element; table[i * width + j] is the element words[i] * generators[j],
    where width = len(generators), so table is the right Cayley table.
    Elements are numbered in discovery order, which is round order, and
    frontier_rounds and multiplications count the rounds and the table
    entries of the closure.

    `product` is the one multiplication kernel: it walks the letters of
    a right factor through the table, one lookup per letter.  Building
    the semigroup raises ResourceLimitError if more than `limit`
    elements appear.
    """

    __slots__ = (
        "rank", "generators", "words", "index", "table",
        "frontier_rounds", "multiplications", "_width", "_column",
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
        self.words: list[tuple[int, ...]] = [()]
        self.index: dict[tuple[int, ...], int] = {(): 0}
        self.table: list[int] = []
        self._close(limit)

    def _close(self, limit: int) -> None:
        """Close {identity} under right multiplication, filling the table.

        Each product u * g is decided by where g last occurs in u and
        which letters follow it there:

        - no g in u, or the gap after it holds both a larger and a
          smaller letter: u + (g,) is canonical, and it is a new element;
        - the gap is empty or all smaller: the new g is deleted, u * g = u;
        - the gap is all larger: the old g is deleted, so u * g is the
          element u[:p] * gap * g, a walk through the table.

        The walk in the last case relies on one invariant.  An element
        is first found in the round equal to its canonical length (its
        longest proper prefix is canonical and one letter shorter, and no
        product of a shorter word is that long), and elements are
        processed in index order, which is round order.  Every element
        the walk visits is a product of at most len(u) - 1 letters, so
        its canonical word is shorter than u, it was processed in an
        earlier round, and its table row is already complete.
        """
        words, index, table = self.words, self.index, self.table
        product = self.product
        rounds = 0
        start, end = 0, 1
        while start < end:
            rounds += 1
            for ui in range(start, end):
                u = words[ui]
                for g in self.generators:
                    larger = smaller = False
                    p = len(u) - 1
                    while p >= 0:
                        h = u[p]
                        if h == g:
                            break
                        if h > g:
                            larger = True
                        else:
                            smaller = True
                        if larger and smaller:
                            break
                        p -= 1
                    if p < 0 or (larger and smaller):
                        if len(words) >= limit:
                            raise ResourceLimitError(
                                f"enumeration at rank {self.rank} exceeded "
                                f"the element cap of {limit}"
                            )
                        new = u + (g,)
                        index[new] = len(words)
                        table.append(len(words))
                        words.append(new)
                    elif not larger:
                        table.append(ui)
                    else:
                        # u * g = u[:p] * gap * g; every row read is complete
                        table.append(product(index[u[:p]], u[p + 1:] + (g,)))
            start, end = end, len(words)
        self.frontier_rounds = rounds
        self.multiplications = len(table)

    def __len__(self) -> int:
        return len(self.words)

    def product(self, i: int, letters: Iterable[int]) -> int:
        """The index of words[i] * letters; every letter must be a generator."""
        table, width, column = self.table, self._width, self._column
        for g in letters:
            i = table[i * width + column[g]]
        return i

    def element(self, i: int) -> Element:
        """Element i as an `Element`."""
        return Element(Word(self.words[i], self.rank))

    def elements(self) -> frozenset[Element]:
        """Every element as an `Element`; a set, so no traversal order shows."""
        return frozenset(map(self.element, range(len(self.words))))

    def sorted_indices(self) -> list[int]:
        """Every index, in the package's length-lexicographic element order."""
        words = self.words
        return sorted(range(len(words)), key=lambda i: sort_key(words[i]))


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
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    bounds = letter_bounds(rank)
    prefix: list[int] = []
    counts = dict.fromkeys(range(1, rank + 1), 0)
    last_pos: dict[int, int] = {}
    found: set[Word] = set()

    def grow() -> None:
        found.add(Word(tuple(prefix), rank))
        for i in range(1, rank + 1):
            if counts[i] + 1 > bounds[i]:
                continue
            prev = last_pos.get(i)
            if prev is not None:
                gap = prefix[prev + 1:]
                if not (any(g > i for g in gap) and any(g < i for g in gap)):
                    continue
            prefix.append(i)
            counts[i] += 1
            last_pos[i] = len(prefix) - 1
            grow()
            prefix.pop()
            counts[i] -= 1
            if prev is None:
                del last_pos[i]
            else:
                last_pos[i] = prev

    grow()
    return found


def cache_path(cache_dir: str | Path, rank: int) -> Path:
    return Path(cache_dir) / f"k{rank}.cache"


def write_cache(
    cache_dir: str | Path, rank: int, words: Iterable[tuple[int, ...]]
) -> Path:
    """Write one rank's canonical words, given as letter tuples.

    The words may come in any order and repeat; the file is the same.
    The text goes to a temporary file in the same directory, which then
    replaces the cache file in one step, so a concurrent reader sees the
    old file or the new one and never a partial write.
    """
    path = cache_path(cache_dir, rank)
    path.parent.mkdir(parents=True, exist_ok=True)
    # sort first: a set would shuffle input that is usually sorted already
    ordered = list(dict.fromkeys(sorted(words, key=sort_key)))
    lines = [f"{CACHE_MAGIC} n={rank} count={len(ordered)}"]
    lines.extend(" ".join(map(str, letters)) for letters in ordered)
    # opened like any new file, so the cache keeps the umask's permissions
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
