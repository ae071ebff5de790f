"""Kiselman's semigroup: elements, multiplication and the structural maps.

An element is identified with its canonical word, so equality and
hashing are word-level and the deterministic element order used in all
output is length-lexicographic on canonical words.  Multiplication
folds the right factor's letters onto the left factor's canonical word
with `rewrite._fold`, which never rescans that word: up to rank 10 each
append is one lookup in the append-letter transition on gap states that
`enumeration.Semigroup` closes through too, and above it each append
tests its gap directly.  `from_word` folds an
arbitrary word onto the empty one the same way.  The empty word is
the unit; the strictly decreasing word n, n-1, ..., 1 is the zero,
absorbing on both sides.

Structural maps:

* `content` -- the set of letters in the canonical form, a morphism onto
  subsets of {1..n} under union.
* `antiautomorphism` -- reverse the canonical word and flip every letter
  i -> n-i+1.  The image is canonical with no rewriting: a factor between
  two copies of a letter becomes a factor between two copies of its
  flipped letter, with the larger and the smaller letters trading places,
  so a pair that enclosed both still does.  Order-reversing, involutive,
  fixes the zero.  Reversal and the letter flip act letter-wise
  independently, so they can be applied in either order.  The map on
  letter tuples is the private `_reverse_flip`; the antiautomorphism
  verification suite applies that same helper to the words of the
  Cayley table, so it checks the code this function runs.
* `zero_threshold` -- the least i such that right-multiplying by the
  decreasing idempotent over {1..i} gives the zero; zero exactly on the
  zero element itself.  This is the definition, by `multiply`, and the
  tests' oracle: `stats` and the construction of the solutions
  of x * a_1 = zero read `enumeration.Semigroup.zero_thresholds()`,
  which takes the same products from the Cayley table.
* `prefix_before_one` -- for an element whose canonical form contains
  the letter 1 (necessarily exactly once), the element of the prefix
  before that letter.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .errors import DomainError, InvariantError, ValidationError
from .rewrite import _fold
from .words import Word, idempotent_word, is_canonical

__all__ = [
    "Element",
    "from_word",
    "multiply",
    "identity",
    "zero",
    "generator",
    "idempotent",
    "content",
    "antiautomorphism",
    "zero_threshold",
    "prefix_before_one",
    "sort_key",
    "display",
]


class Element:
    """A semigroup element, held as its canonical word.

    Immutable.  Equal elements hash as the tuple (word,) does, and
    pickling and copying go through the constructor, which validates
    again.
    """

    __slots__ = ("word",)
    word: Word

    def __init__(self, word: Word) -> None:
        if not is_canonical(word):
            raise ValidationError(f"element word must be canonical, got '{word}'")
        object.__setattr__(self, "word", word)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Element, (self.word,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word

    def __hash__(self) -> int:
        return hash((self.word,))

    def __repr__(self) -> str:
        return f"Element(word={self.word!r})"

    @property
    def rank(self) -> int:
        return self.word.rank

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __str__(self) -> str:
        return str(self.word)


def from_word(w: Word) -> Element:
    """The element represented by an arbitrary word.

    w's letters fold onto the empty word, as a product's right factor
    does, so a long word parses in linear time.

    >>> from .words import parse_word
    >>> str(from_word(parse_word("3 2 1 1", 3)))
    '3 2 1'
    """
    return Element(Word(_fold((), w.letters, w.rank), w.rank))


def identity(rank: int) -> Element:
    """The unit: the element of the empty word."""
    return Element(Word((), rank))


@functools.cache
def zero(rank: int) -> Element:
    """The absorbing element, whose canonical word is rank, rank-1, ..., 1.

    One element per rank, built once: `Element` is frozen, and
    `zero_threshold` asks for it on every call.

    >>> str(zero(3))
    '3 2 1'
    >>> str(zero(1))
    '1'
    """
    return Element(Word(tuple(range(rank, 0, -1)), rank))


def generator(i: int, rank: int) -> Element:
    """The single-letter element for letter i."""
    return Element(Word((i,), rank))


def idempotent(members: Iterable[int], rank: int) -> Element:
    """The idempotent element of a letter set: its decreasing word."""
    return Element(idempotent_word(members, rank))


def multiply(x: Element, y: Element) -> Element:
    """The product: y's letters folded onto x's canonical word.

    The fold appends one letter at a time and resolves the one deletion
    each append can create, so x's word is never rescanned.  The result
    is the canonical form of the concatenation, and the `Element`
    constructor checks that it is canonical.  Associative, with
    `identity` neutral and `zero` absorbing.

    >>> from .words import parse_word
    >>> str(multiply(generator(2, 2), from_word(parse_word("1 2", 2))))
    '2 1'
    """
    if x.rank != y.rank:
        raise ValidationError(f"rank mismatch: {x.rank} vs {y.rank}")
    return Element(Word(_fold(x.word.letters, y.word.letters, x.rank), x.rank))


def content(x: Element) -> frozenset[int]:
    """The set of letters appearing in the canonical form.

    content(x * y) = content(x) | content(y), and every subset of
    {1..rank} is the content of exactly one idempotent.
    """
    return frozenset(x.word.letters)


def _reverse_flip(letters: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """The letters reversed, each i sent to rank - i + 1.

    >>> _reverse_flip((2, 1, 3), 3)
    (1, 3, 2)
    """
    return tuple([rank + 1 - i for i in reversed(letters)])


def antiautomorphism(x: Element) -> Element:
    """The order-reversing involution sending letter i to rank - i + 1.

    >>> str(antiautomorphism(generator(1, 3)))
    '3'
    >>> str(antiautomorphism(zero(3)))
    '3 2 1'
    """
    return Element(Word(_reverse_flip(x.word.letters, x.rank), x.rank))


def zero_threshold(x: Element) -> int:
    """Least i in [0, rank] with x * idempotent({1..i}) equal to the zero.

    Returns 0 exactly on the zero element; rank is always enough because
    the full idempotent is itself the zero.
    """
    target = zero(x.rank)
    for i in range(x.rank + 1):
        if multiply(x, idempotent(range(1, i + 1), x.rank)) == target:
            return i
    raise InvariantError(
        f"multiplying '{x}' by the full decreasing idempotent did not give the zero"
    )


def prefix_before_one(x: Element) -> Element:
    """The element of the canonical-form prefix before the letter 1.

    Defined only when the canonical form contains the letter 1; it then
    contains it exactly once, so the split is unambiguous, and a prefix
    of a canonical word is itself canonical.
    """
    letters = x.word.letters
    if 1 not in letters:
        raise DomainError(
            "prefix before letter 1 undefined: canonical form contains no letter 1"
        )
    pos = letters.index(1)
    if 1 in letters[pos + 1:]:
        raise InvariantError(f"canonical form '{x}' contains letter 1 twice")
    return Element(Word(letters[:pos], x.rank))


def sort_key(
    x: Element | Word | tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Length-lexicographic key: the package's deterministic element order.

    Orders elements, words and bare letter tuples alike, shortest first
    and then letter by letter.

    >>> from .words import parse_word
    >>> sorted([(2, 1), (2,), ()], key=sort_key)
    [(), (2,), (2, 1)]
    >>> words = [parse_word("1 2", 2), parse_word("2", 2)]
    >>> [str(w) for w in sorted(words, key=sort_key)]
    ['2', '1 2']
    """
    if isinstance(x, Element):
        x = x.word
    letters = x.letters if isinstance(x, Word) else x
    return (len(letters), letters)


def display(x: Element) -> str:
    """Human-readable form: the canonical word, with the unit shown as "e"."""
    return str(x.word) or "e"
