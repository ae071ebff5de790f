"""Exhaustive construction of the semigroup by two independent routes.

The closure route starts from the unit and right-multiplies elements by
every generator, round by round, until nothing new appears.  It decides
each product u * g of a canonical word u and a generator g by the
append-letter rule: appending g to a canonical word can create only one
deletion, between the new g and the last g already in u, so the letters
after that last g say whether the new g stays, drops, or deletes the old
g.  In the last case the product is read off a right Cayley table of the
elements found so far (Froidure & Pin, "Algorithms for computing finite
semigroups", 1997), so the closure never calls the rewriter.  The direct
route backtracks over canonical words, growing a word one letter at a
time; every prefix of a canonical word is canonical, so the search tree
is exactly the canonical words, each append checks only the one new
consecutive pair of equal letters, and per-letter multiplicity bounds
prune the tree finite.

Both routes use the fact that an appended letter pairs only with its
last earlier copy, but only the closure resolves the pairs that delete,
and only the direct route relies on the multiplicity bounds, so their
agreement is still a real check.  The cardinality verification suite and
tests/test_enumeration.py hold the closure to the direct search element
for element; the same tests hold every table entry to the deletion
rewriter and replay the rewriter-driven closure as a reference.

Cardinalities grow double-exponentially with the rank.  Enumeration
therefore takes an element cap, and the CLI refuses ranks above
MAX_DEFAULT_RANK unless explicitly forced.

Cache files (one per rank) use a one-line header followed by one
canonical word per line::

    kiselman-cache v1 n=<rank> count=<N>

Reads re-validate the header, the count and the canonicality of every
line, and check the count against KNOWN_CARDINALITIES where the rank is
listed, so a stale or hand-edited file fails loudly.  Writes replace the
file in one step.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .algebra import Element, content, sort_key
from .errors import InvariantError, ResourceLimitError, ValidationError
from .words import Word, is_canonical, mirror, parse_word

__all__ = [
    "EnumerationResult",
    "ParityReport",
    "enumerate_elements",
    "enumerate_canonical_words",
    "generated_submonoid",
    "filter_by_content",
    "parity_report",
    "letter_bounds",
    "word_sort_key",
    "cache_path",
    "write_cache",
    "read_cache",
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


def word_sort_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Length-lexicographic key for listing canonical words."""
    return (len(w.letters), w.letters)


@dataclass(frozen=True)
class EnumerationResult:
    """The outcome of a closure enumeration at one rank."""

    rank: int
    elements: frozenset[Element]
    cardinality: int
    frontier_rounds: int
    multiplications: int

    def sorted_elements(self) -> list[Element]:
        return sorted(self.elements, key=sort_key)


@dataclass(frozen=True)
class ParityReport:
    """The even/odd bookkeeping behind the cardinality parity pattern.

    For ranks 1 and 2 only the cardinality and its parity are reported;
    the decomposition fields need three distinct letters and stay None.
    For rank >= 3 the canonical words containing both extreme letters
    are split by which extreme comes first; the mirror map pairs the two
    halves off, and the counting identity

        card = card_minus_2 + 2 * (card_minus_1 - card_minus_2)
                            + 2 * count_one_first

    forces the parity to alternate with the rank.
    """

    rank: int
    cardinality: int
    parity: str
    cardinality_rank_minus_1: int | None
    cardinality_rank_minus_2: int | None
    count_one_first: int | None
    count_top_first: int | None
    mirror_pairing: bool | None
    identity_holds: bool


def _closure(
    rank: int, generators: tuple[int, ...], limit: int
) -> tuple[list[tuple[int, ...]], list[int], int, int]:
    """Close {identity} under right multiplication through a Cayley table.

    Returns the canonical words in discovery order, the right Cayley
    table (entry u * len(generators) + j is the index of
    words[u] * generators[j]), the number of rounds and the number of
    products.  Each product u * g is decided by where g last occurs in
    u and which letters follow it there:

    - no g in u, or the gap after it holds both a larger and a smaller
      letter: u + (g,) is canonical, and it is a new element;
    - the gap is empty or all smaller: the new g is deleted, u * g = u;
    - the gap is all larger: the old g is deleted, so u * g is the
      element u[:p] * gap * g, read off the table.

    The walk in the last case relies on one invariant.  An element is
    first found in the round equal to its canonical length (its longest
    proper prefix is canonical and one letter shorter, and no product
    of a shorter word is that long), and elements are processed in
    index order, which is round order.  Every element the walk visits
    is a product of at most len(u) - 1 letters, so its canonical word
    is shorter than u, it was processed in an earlier round, and its
    table row is already complete.
    """
    width = len(generators)
    column = {g: j for j, g in enumerate(generators)}
    words: list[tuple[int, ...]] = [()]
    index: dict[tuple[int, ...], int] = {(): 0}
    table: list[int] = []
    rounds = 0
    start, end = 0, 1
    while start < end:
        rounds += 1
        for ui in range(start, end):
            u = words[ui]
            for g in generators:
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
                            f"enumeration at rank {rank} exceeded "
                            f"the element cap of {limit}"
                        )
                    product = u + (g,)
                    index[product] = len(words)
                    table.append(len(words))
                    words.append(product)
                elif not larger:
                    table.append(ui)
                else:
                    # u * g = u[:p] * gap * g; every row read is complete
                    v = index[u[:p]]
                    for h in u[p + 1:]:
                        v = table[v * width + column[h]]
                    table.append(table[v * width + column[g]])
        start, end = end, len(words)
    return words, table, rounds, len(words) * width


def enumerate_elements(
    rank: int, limit: int = DEFAULT_ELEMENT_LIMIT
) -> EnumerationResult:
    """Close {identity} under right multiplication by every generator.

    The result is a set, so it cannot depend on traversal order.  Raises
    ResourceLimitError if more than `limit` elements appear.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    if limit < 1:
        raise ValidationError(f"element limit must be >= 1, got {limit}")
    words, _, rounds, multiplications = _closure(
        rank, tuple(range(1, rank + 1)), limit
    )
    elements = frozenset(Element(Word(letters, rank)) for letters in words)
    return EnumerationResult(rank, elements, len(elements), rounds, multiplications)


def generated_submonoid(
    rank: int, generators: Iterable[int], limit: int = DEFAULT_ELEMENT_LIMIT
) -> frozenset[Element]:
    """Close {identity} under right multiplication by selected generators.

    With generators 2..rank this realizes the submonoid avoiding letter
    1, which has the size of the semigroup one rank down.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    gens = tuple(sorted(set(generators)))
    for g in gens:
        if not 1 <= g <= rank:
            raise ValidationError(f"generator {g} out of range [1, {rank}]")
    words, _, _, _ = _closure(rank, gens, limit)
    return frozenset(Element(Word(letters, rank)) for letters in words)


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


def filter_by_content(
    result: EnumerationResult, required: Iterable[int], allowed: Iterable[int]
) -> set[Element]:
    """Elements whose content contains `required` and stays inside `allowed`.

    Realizes both the letter-avoiding submonoids (required empty) and
    the slices of elements forced to use particular letters.
    """
    req = frozenset(required)
    allow = frozenset(allowed)
    universe = frozenset(range(1, result.rank + 1))
    if not req <= allow:
        raise ValidationError("required letters must be a subset of allowed letters")
    if not allow <= universe:
        raise ValidationError(
            f"allowed letters must lie in [1, {result.rank}]"
        )
    return {x for x in result.elements if req <= content(x) <= allow}


def parity_report(rank: int) -> ParityReport:
    """Split off the words using both extreme letters and audit the parity.

    Every canonical word containing letters 1 and rank contains each
    exactly once, and the mirror map exchanges the half where 1 comes
    first with the half where rank does.
    """
    words = enumerate_canonical_words(rank)
    cardinality = len(words)
    parity = "even" if cardinality % 2 == 0 else "odd"
    if rank <= 2:
        return ParityReport(rank, cardinality, parity, None, None, None, None, None, True)
    card_1 = len(enumerate_canonical_words(rank - 1))
    card_2 = len(enumerate_canonical_words(rank - 2))
    extremes = [w for w in words if 1 in w.letters and rank in w.letters]
    for w in extremes:
        if w.letters.count(1) != 1 or w.letters.count(rank) != 1:
            raise InvariantError(
                f"extreme letters must occur exactly once, got '{w}'"
            )
    one_first = {w for w in extremes if w.letters.index(1) < w.letters.index(rank)}
    top_first = set(extremes) - one_first
    mirror_pairing = {mirror(w) for w in one_first} == top_first
    identity_holds = cardinality == card_2 + 2 * (card_1 - card_2) + 2 * len(one_first)
    return ParityReport(
        rank,
        cardinality,
        parity,
        card_1,
        card_2,
        len(one_first),
        len(top_first),
        mirror_pairing,
        identity_holds,
    )


def cache_path(cache_dir: str | Path, rank: int) -> Path:
    return Path(cache_dir) / f"k{rank}.cache"


def write_cache(cache_dir: str | Path, rank: int, words: Iterable[Word]) -> Path:
    """Write one rank's canonical words in the cache file format.

    The text goes to a temporary file in the same directory, which then
    replaces the cache file in one step, so a concurrent reader sees the
    old file or the new one and never a partial write.
    """
    path = cache_path(cache_dir, rank)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(set(words), key=word_sort_key)
    lines = [f"{CACHE_MAGIC} n={rank} count={len(ordered)}"]
    lines.extend(str(w) for w in ordered)
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


def read_cache(cache_dir: str | Path, rank: int) -> set[Word] | None:
    """Load one rank's cache, or None when the file does not exist.

    Validation failures (foreign header, count drift, non-canonical or
    duplicate lines, or a count that differs from the known cardinality
    of the rank) raise ValidationError rather than returning partial
    data.
    """
    path = cache_path(cache_dir, rank)
    if not path.exists():
        return None
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValidationError(f"cache file {path} is empty")
    match = re.fullmatch(
        re.escape(CACHE_MAGIC) + r" n=(\d+) count=(\d+)", lines[0]
    )
    if match is None:
        raise ValidationError(f"cache file {path} has a bad header: {lines[0]!r}")
    header_rank, count = int(match.group(1)), int(match.group(2))
    if header_rank != rank:
        raise ValidationError(
            f"cache file {path} is for rank {header_rank}, not rank {rank}"
        )
    body = lines[1:]
    if len(body) != count:
        raise ValidationError(
            f"cache file {path} promises {count} words but holds {len(body)}"
        )
    words: set[Word] = set()
    for line in body:
        w = parse_word(line, rank)
        if not is_canonical(w):
            raise ValidationError(
                f"cache file {path} contains a non-canonical word: {line!r}"
            )
        words.add(w)
    if len(words) != count:
        raise ValidationError(f"cache file {path} contains duplicate words")
    known = KNOWN_CARDINALITIES.get(rank)
    if known is not None and count != known:
        raise ValidationError(
            f"cache file {path} holds {count} words, but rank {rank} "
            f"has {known} elements"
        )
    return words
