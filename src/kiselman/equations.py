"""Solving x * y = zero, and the structure of the solutions.

Cancellation facts pin the interesting case down: when the right factor
avoids letter 1 the only left factor reaching the zero is the zero
itself, and dually when the left factor avoids the top letter.  The one
genuinely rich equation is therefore x * a_1 = zero.  Its solutions are
the decreasing idempotent over 2..n plus one solution per member x of
the submonoid avoiding letter 1, namely x * a_1 * e_{2..m} with m the
zero threshold of x; the canonical word of that solution is literally
the concatenation of the three parts, no rewriting needed, which is what
makes the constructive build cheap.  The solution set is closed under
multiplication and its products follow a three-case rule: special *
special = special, anything * special is unchanged, and a right factor
containing letter 1 collapses the product to the zero.  The rule is
written once, in the solution_structure verification suite, which checks
it on the indices of the table against every product it samples.

The solver here exists to keep the construction honest: it scans the
whole of K_n, a `Semigroup` over every letter, takes every product from
its right Cayley table and never assumes any of the structure above.
The construction reads only the table of the submonoid over the letters
2..n, for the thresholds, and the rewriter, for one membership product
per solution, so the two routes share no product of K_n.  The remaining
facts are checked by the verification suites alone: the
zero_cancellation suite holds that x * y reaches the zero with y over
the letters 2..n only when x is the zero, and the solution_structure
suite that the solutions of a_n * y = zero are the antiautomorphism's
image of the solutions of x * a_1 = zero.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    Element,
    content,
    generator,
    idempotent,
    multiply,
    sort_key,
    zero,
)
from .enumeration import DEFAULT_ELEMENT_LIMIT, Semigroup
from .errors import InvariantError, ValidationError
from .words import Word

__all__ = [
    "SolutionDecomposition",
    "ZeroSolutionSet",
    "solve_right_zero",
    "construct_right_zero_solutions",
]


class SolutionDecomposition(NamedTuple):
    """The split of the x * a_1 = zero solutions by use of letter 1."""

    special: Element
    containing_one: frozenset[Element]


class ZeroSolutionSet(NamedTuple):
    """All solutions of one zero equation at one rank."""

    rank: int
    y: Element
    solutions: frozenset[Element]
    decomposition: SolutionDecomposition | None

    def sorted_solutions(self) -> list[Element]:
        return sorted(self.solutions, key=sort_key)


def solve_right_zero(
    y: Element,
    semigroup: Semigroup | None = None,
    limit: int = DEFAULT_ELEMENT_LIMIT,
) -> ZeroSolutionSet:
    """Brute-force the left factors: every x with x * y = zero.

    Scans `semigroup`, the whole of K_n at y's rank, built here unless
    supplied, and takes each product x * y from its table.  When y is
    the first generator the result additionally carries the
    special/containing-one decomposition.
    """
    if semigroup is None:
        semigroup = Semigroup(y.rank, limit=limit)
    if semigroup.rank != y.rank:
        raise ValidationError(f"rank mismatch: {semigroup.rank} vs {y.rank}")
    if len(semigroup.generators) != y.rank:
        raise ValidationError(
            f"the semigroup is generated by {list(semigroup.generators)}, "
            f"not by every letter 1..{y.rank}"
        )
    zero_index = semigroup.index[zero(y.rank).word.letters]
    solutions = frozenset(
        semigroup.element(i)
        for i in range(len(semigroup))
        if semigroup.product(i, y.word.letters) == zero_index
    )
    decomposition = None
    if y == generator(1, y.rank):
        special = idempotent(range(2, y.rank + 1), y.rank)
        containing_one = frozenset(x for x in solutions if 1 in content(x))
        rest = solutions - containing_one
        if rest != frozenset({special}):
            raise InvariantError(
                "solutions avoiding letter 1 must be exactly the decreasing "
                f"idempotent over 2..{y.rank}, got {sorted(str(x) for x in rest)}"
            )
        decomposition = SolutionDecomposition(special, containing_one)
    return ZeroSolutionSet(y.rank, y, solutions, decomposition)


def construct_right_zero_solutions(
    rank: int, limit: int = DEFAULT_ELEMENT_LIMIT
) -> ZeroSolutionSet:
    """Build the solutions of x * a_1 = zero without enumerating K_n.

    Walks only the submonoid avoiding letter 1, a `Semigroup` over the
    letters 2..rank whose size is that of the semigroup one rank down,
    and emits one solution per member x: x * a_1 * e_{2..m}, with m the
    zero threshold of x in K_rank.  The decreasing idempotent over
    2..rank completes the set.

    m is read from the submonoid's own table, as t + 1 with t the
    threshold `Semigroup.zero_thresholds` gives x there.  Appending a_1
    to a word without letter 1 just appends it, so x * e_{1..m} is the
    zero exactly when x * e_{2..m} is the submonoid's zero, rank..2.
    The canonical word of the solution is the concatenation
    x, 1, m, m-1, ..., 2 itself, which the `Element` constructor checks.
    Membership, by one rewriter product per solution, and distinctness
    are re-checked on the way out, so a construction bug cannot produce
    a quietly wrong set.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    submonoid = Semigroup(rank, range(2, rank + 1), limit)
    a1 = generator(1, rank)
    target = zero(rank)
    special = idempotent(range(2, rank + 1), rank)
    if multiply(special, a1) != target:
        raise InvariantError("the special solution must reach the zero")
    containing_one: set[Element] = set()
    for x, t in zip(submonoid.words, submonoid.zero_thresholds()):
        solution = Element(Word(x + (1,) + tuple(range(t + 1, 1, -1)), rank))
        if multiply(solution, a1) != target:
            raise InvariantError(f"constructed non-solution '{solution}'")
        containing_one.add(solution)
    if len(containing_one) != len(submonoid):
        raise InvariantError(
            "solution construction must be injective over the submonoid: "
            f"{len(submonoid)} members gave {len(containing_one)} solutions"
        )
    solutions = frozenset(containing_one) | {special}
    return ZeroSolutionSet(
        rank, a1, solutions, SolutionDecomposition(special, frozenset(containing_one))
    )
