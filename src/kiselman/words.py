"""Words over the generator alphabet of Kiselman's semigroup.

Kiselman's semigroup K_n is the monoid with generators a_1, ..., a_n and
relations a_i^2 = a_i and a_i a_j a_i = a_j a_i a_j = a_i a_j for j < i.
This module supplies the raw substrate: finite words over the letters
1..n, the canonicality test, and the strictly decreasing idempotent
words.

A word is *canonical* when every factor that starts and ends with the
same letter i encloses both a letter larger than i and a letter smaller
than i.  Canonical words are the shortest representatives of semigroup
elements, exactly one per element, so the rest of the package identifies
elements with their canonical words.

Textual format, shared by the CLI and the cache files: space-separated
decimal letter indices ("3 2 1"), with the empty string for the empty
word.  Every word carries its rank so that mixing alphabets fails loudly
instead of silently reinterpreting letters.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

from .errors import ValidationError

__all__ = [
    "Word",
    "parse_word",
    "is_canonical",
    "idempotent_word",
    "letter_subsets",
]


class Word:
    """An immutable word over the letters 1..rank.

    Equal words hash as the tuple (letters, rank) does.  Pickling and
    copying go through the constructor, which validates again.
    """

    __slots__ = ("letters", "rank")
    letters: tuple[int, ...]
    rank: int

    def __init__(self, letters: Iterable[int], rank: int) -> None:
        letters = tuple(letters)
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if letters and not (1 <= min(letters) and max(letters) <= rank):
            # the scan only finds the first bad letter for the message
            for pos, letter in enumerate(letters):
                if not 1 <= letter <= rank:
                    raise ValidationError(
                        f"letter index {letter} at position {pos} "
                        f"out of range [1, {rank}]"
                    )
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Word, (self.letters, self.rank)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.letters, self.rank))

    def __repr__(self) -> str:
        return f"Word(letters={self.letters!r}, rank={self.rank!r})"

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(i) for i in self.letters)


def parse_word(text: str, rank: int) -> Word:
    """Parse the textual word format: space-separated indices, "" for empty.

    >>> parse_word("3 2 1", 3).letters
    (3, 2, 1)
    >>> parse_word("", 3).letters
    ()
    """
    parts = text.split()
    # int() would also take signs, underscores and non-ASCII digits
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValidationError(
            f"cannot parse word text {text!r}: expected space-separated integers"
        )
    return Word(map(int, parts), rank)


def is_canonical(w: Word) -> bool:
    """Does every repeated-letter factor enclose a larger and a smaller letter?

    Checking consecutive occurrences of each letter suffices: a violating
    factor with another copy of the same letter inside contains a violating
    consecutive pair, because that inner copy is neither larger nor smaller
    than its own value.  A consecutive pair's gap holds no copy of its
    letter, so it lacks a larger letter exactly when its max is smaller,
    and a smaller one exactly when its min is larger.

    >>> is_canonical(parse_word("3 2 1", 3))
    True
    >>> is_canonical(parse_word("2 1 2", 3))
    False
    >>> is_canonical(parse_word("2 1 3 2", 3))
    True
    >>> is_canonical(parse_word("", 1))
    True
    """
    letters = w.letters
    last: dict[int, int] = {}
    for pos, i in enumerate(letters):
        prev = last.get(i)
        if prev is not None:
            gap = letters[prev + 1:pos]
            if not gap or max(gap) < i or min(gap) > i:
                return False
        last[i] = pos
    return True


def idempotent_word(members: Iterable[int], rank: int) -> Word:
    """The strictly decreasing word over a set of letters.

    These words are canonical and represent the idempotent elements; the
    full set {1..rank} gives the word of the zero element.

    >>> str(idempotent_word({1, 2, 3}, 3))
    '3 2 1'
    >>> str(idempotent_word(set(), 2))
    ''
    >>> str(idempotent_word({2}, 4))
    '2'
    """
    return Word(tuple(sorted(set(members), reverse=True)), rank)


def letter_subsets(rank: int) -> Iterator[tuple[int, ...]]:
    """Every subset of the letters 1..rank, by size, then lexicographically.

    With `idempotent_word` these give the 2^rank idempotent words.

    >>> list(letter_subsets(2))
    [(), (1,), (2,), (1, 2)]
    """
    letters = range(1, rank + 1)
    return chain.from_iterable(combinations(letters, k) for k in range(rank + 1))
