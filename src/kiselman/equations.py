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
multiplication and its products follow a three-case rule.

Brute-force solvers here exist to keep the constructive ones honest:
they scan a full enumeration and never assume any of the structure
above.  Given a `Semigroup` they take every product from its right
Cayley table; the constructive route and `solution_word` multiply with
the rewriter, so the two routes share no multiplication code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    Element,
    content,
    generator,
    idempotent,
    multiply,
    sort_key,
    zero,
    zero_threshold,
)
from .enumeration import (
    DEFAULT_ELEMENT_LIMIT,
    Semigroup,
    enumerate_elements,
    generated_submonoid,
)
from .errors import DomainError, InvariantError, ValidationError
from .words import Word, idempotent_word

__all__ = [
    "SolutionDecomposition",
    "ZeroSolutionSet",
    "CancellationReport",
    "solve_right_zero",
    "solve_left_zero",
    "construct_right_zero_solutions",
    "solution_word",
    "solution_rule",
    "solution_multiply",
    "verify_zero_cancellation",
    "characterize_zero",
]


@dataclass(frozen=True)
class SolutionDecomposition:
    """The split of the x * a_1 = zero solutions by use of letter 1."""

    special: Element
    containing_one: frozenset[Element]


@dataclass(frozen=True)
class ZeroSolutionSet:
    """All solutions of one zero equation at one rank."""

    rank: int
    y: Element
    solutions: frozenset[Element]
    decomposition: SolutionDecomposition | None

    def sorted_solutions(self) -> list[Element]:
        return sorted(self.solutions, key=sort_key)


@dataclass(frozen=True)
class CancellationReport:
    """Result of scanning products against the cancellation facts."""

    rank: int
    checked_pairs: int
    checked_triples: int
    violations: tuple[str, ...]


def solve_right_zero(
    y: Element,
    elements: Semigroup | Iterable[Element] | None = None,
    limit: int = DEFAULT_ELEMENT_LIMIT,
) -> ZeroSolutionSet:
    """Brute-force the left factors: every x with x * y = zero.

    Scans the full semigroup at y's rank, built here unless supplied.
    A `Semigroup` over every letter gives each product x * y from its
    table; an iterable of elements is scanned with `multiply`, the
    rewriter, which keeps the table honest in the tests.  When y is the
    first generator the result additionally carries the
    special/containing-one decomposition.
    """
    target = zero(y.rank)
    if elements is None:
        elements = Semigroup(y.rank, limit=limit)
    if isinstance(elements, Semigroup):
        if elements.rank != y.rank:
            raise ValidationError(f"rank mismatch: {elements.rank} vs {y.rank}")
        zero_index = elements.index[target.word.letters]
        solutions = frozenset(
            elements.element(i)
            for i in range(len(elements))
            if elements.product(i, y.word.letters) == zero_index
        )
    else:
        solutions = frozenset(
            x for x in frozenset(elements) if multiply(x, y) == target
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


def solve_left_zero(
    x: Element,
    elements: Iterable[Element] | None = None,
    limit: int = DEFAULT_ELEMENT_LIMIT,
) -> ZeroSolutionSet:
    """Brute-force the right factors: every y with x * y = zero.

    The antiautomorphism swaps the two sides, so this set is always its
    image of a right-zero solution set; the tests hold the two scans to
    that duality.
    """
    universe = (
        frozenset(elements)
        if elements is not None
        else enumerate_elements(x.rank, limit).elements
    )
    target = zero(x.rank)
    solutions = frozenset(y for y in universe if multiply(x, y) == target)
    return ZeroSolutionSet(x.rank, x, solutions, None)


def construct_right_zero_solutions(
    rank: int, limit: int = DEFAULT_ELEMENT_LIMIT
) -> ZeroSolutionSet:
    """Build the solutions of x * a_1 = zero without enumerating K_n.

    Walks only the submonoid avoiding letter 1, whose size is that of
    the semigroup one rank down, and emits one solution per member; the
    decreasing idempotent over 2..rank completes the set.  Membership
    and distinctness are re-checked on the way out, so a construction
    bug cannot produce a quietly wrong set.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    submonoid = generated_submonoid(rank, range(2, rank + 1), limit=limit)
    a1 = generator(1, rank)
    target = zero(rank)
    special = idempotent(range(2, rank + 1), rank)
    if multiply(special, a1) != target:
        raise InvariantError("the special solution must reach the zero")
    containing_one: set[Element] = set()
    for x in submonoid:
        tail = idempotent(range(2, zero_threshold(x) + 1), rank)
        solution = multiply(multiply(x, a1), tail)
        if multiply(solution, a1) != target:
            raise InvariantError(f"constructed non-solution '{solution}'")
        if 1 not in content(solution):
            raise InvariantError(
                f"constructed solution '{solution}' avoids letter 1"
            )
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


def solution_word(x: Element) -> Word:
    """Canonical word of x * a_1 * e_{2..m(x)}, written down directly.

    For x avoiding letter 1 the concatenation of the three parts is
    already canonical; the result is cross-checked against the product
    computed the slow way.
    """
    if 1 in content(x):
        raise DomainError(
            "solution word defined only for elements avoiding letter 1"
        )
    threshold = zero_threshold(x)
    tail = idempotent_word(range(2, threshold + 1), x.rank)
    direct = Word(x.word.letters + (1,) + tail.letters, x.rank)
    computed = multiply(
        multiply(x, generator(1, x.rank)), idempotent(range(2, threshold + 1), x.rank)
    )
    if direct != computed.word:
        raise InvariantError(
            f"concatenated solution word '{direct}' is not canonical "
            f"(product rewrites to '{computed}')"
        )
    return direct


def solution_rule(
    x: Element, y: Element, solutions: ZeroSolutionSet | None = None
) -> Element:
    """The three-case rule for a product of two x * a_1 = zero solutions.

    special * special = special; anything * special is unchanged; a
    right factor containing letter 1 collapses the product to the zero.
    The rule alone: `solution_multiply` checks it against the product.
    """
    if x.rank != y.rank:
        raise ValidationError(f"rank mismatch: {x.rank} vs {y.rank}")
    pool = (
        solutions
        if solutions is not None
        else construct_right_zero_solutions(x.rank)
    )
    if pool.rank != x.rank:
        raise ValidationError(
            f"solution set is for rank {pool.rank}, factors have rank {x.rank}"
        )
    if pool.decomposition is None:
        raise ValidationError("solution set carries no decomposition")
    if x not in pool.solutions or y not in pool.solutions:
        raise DomainError("both factors must solve x * a_1 = zero")
    special = pool.decomposition.special
    if y != special:
        return zero(x.rank)
    return x


def solution_multiply(
    x: Element, y: Element, solutions: ZeroSolutionSet | None = None
) -> Element:
    """Product of two x * a_1 = zero solutions via the three-case rule.

    The rule's answer (see `solution_rule`) is checked against the
    generic product before it is returned.
    """
    result = solution_rule(x, y, solutions)
    if result != multiply(x, y):
        raise InvariantError(
            f"case rule gave '{result}' but the product is '{multiply(x, y)}'"
        )
    return result


def verify_zero_cancellation(
    rank: int,
    elements: Semigroup | None = None,
    pair_samples: int | None = None,
    triple_samples: int = 1000,
    seed: int = 0,
    limit: int = DEFAULT_ELEMENT_LIMIT,
) -> CancellationReport:
    """Scan products for violations of the cancellation facts.

    Products come from the table of `elements`, the semigroup at this
    rank over every letter, built here unless supplied.  Pairs are
    scanned exhaustively unless pair_samples caps them; the exhaustive
    scan subsumes the single-generator specializations, since the
    generators are among the factors tried.  Triples with the outer
    factors' contents bounded away from the extremes are sampled for
    the middle-factor consequence.
    """
    semigroup = Semigroup(rank, limit=limit) if elements is None else elements
    if semigroup.rank != rank:
        raise ValidationError(f"rank mismatch: {semigroup.rank} vs {rank}")
    words, product, element = semigroup.words, semigroup.product, semigroup.element
    pool = semigroup.sorted_indices()
    zero_index = semigroup.index[zero(rank).word.letters]
    violations: list[str] = []
    rng = random.Random(seed)

    if pair_samples is None:
        pairs = ((x, y) for x in pool for y in pool)
        checked_pairs = len(pool) ** 2
    else:
        pairs = (
            (rng.choice(pool), rng.choice(pool)) for _ in range(pair_samples)
        )
        checked_pairs = pair_samples
    for x, y in pairs:
        if product(x, words[y]) != zero_index:
            continue
        if 1 not in words[y] and x != zero_index:
            violations.append(
                f"x='{element(x)}' y='{element(y)}': right factor avoids letter 1 "
                "but left factor is not the zero"
            )
        if rank not in words[x] and y != zero_index:
            violations.append(
                f"x='{element(x)}' y='{element(y)}': left factor avoids letter {rank} "
                "but right factor is not the zero"
            )

    left_pool = [x for x in pool if rank not in words[x]]
    right_pool = [z for z in pool if 1 not in words[z]]
    checked_triples = 0
    if left_pool and right_pool:
        for _ in range(triple_samples):
            x = rng.choice(left_pool)
            y = rng.choice(pool)
            z = rng.choice(right_pool)
            checked_triples += 1
            if product(x, words[y] + words[z]) == zero_index and y != zero_index:
                violations.append(
                    f"x='{element(x)}' y='{element(y)}' z='{element(z)}': "
                    "middle factor is not the zero"
                )

    return CancellationReport(rank, checked_pairs, checked_triples, tuple(violations))


def characterize_zero(x: Element) -> bool:
    """Does x * a_k reach the zero for some k >= 2?

    Equivalent to x itself being the zero; the equivalence is what the
    tests check.  Needs a generator above letter 1, so rank 1 is outside
    the domain.
    """
    if x.rank < 2:
        raise DomainError(
            "zero characterization needs a generator above letter 1 (rank >= 2)"
        )
    target = zero(x.rank)
    return any(
        multiply(x, generator(k, x.rank)) == target for k in range(2, x.rank + 1)
    )
