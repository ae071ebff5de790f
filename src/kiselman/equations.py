"""Solving x * y = zero, and the structure of the solutions.

Cancellation facts pin the interesting case down: when the right factor
avoids letter 1 the only left factor reaching the zero is the zero
itself, and dually when the left factor avoids the top letter.  The one
genuinely rich equation is therefore x * a_1 = zero.  Its solutions are
the decreasing idempotent over 2..n plus one solution per member x of
the submonoid avoiding letter 1, namely x * a_1 * e_{2..m} with m the
zero threshold of x; the canonical word of that solution is literally
the concatenation of the three parts, no rewriting needed, which is what
makes the constructive build cheap.  That submonoid is K_{n-1} with
every letter shifted up by one, since canonicity compares letters only
by order: this is the paper's bijection, and its count 1 + |K_{n-1}|.
The solution set is closed under multiplication and its products follow
a three-case rule: special * special = special, anything * special is
unchanged, and a right factor containing letter 1 collapses the product
to the zero.  The rule is written once, in the solution_structure
verification suite, which proves it for every pair of solutions from
two checks on the table's edges: x * special = x, and x * a_k is a
solution for k >= 2, for every solution x.

Both routes return the solution set as a plain frozenset.  A caller
that wants the paper's split reads it by letter 1: the special solution
is the one member without it, and the rest are the solutions that hold
it.  The solver checks, for y = a_1, that the special solution is the
only member without letter 1.

The solver here exists to keep the construction honest: it scans the
whole of K_n, a `Semigroup` its caller builds, takes every product from
its right Cayley table and never assumes any of the structure above.
The construction reads only the table of K_{n-1}, for the thresholds,
and `multiply`, which folds letters without any table, for one
membership product per solution, so the two routes share no product of
K_n.  The remaining facts are checked by the verification suites alone:
the zero_cancellation suite proves, from the table's edges and by
induction on the length of y, that x * y reaches the zero with y over
the letters 2..n only when x is the zero, and the solution_structure
suite that the solutions of a_n * y = zero are the antiautomorphism's
image of the solutions of x * a_1 = zero.
"""

from __future__ import annotations

from .algebra import Element, content, generator, idempotent, multiply, zero
from .enumeration import Semigroup
from .errors import InvariantError, ValidationError
from .words import Word

__all__ = ["solve_right_zero", "construct_right_zero_solutions"]


def solve_right_zero(y: Element, semigroup: Semigroup) -> frozenset[Element]:
    """Brute-force the left factors: every x with x * y = zero.

    Scans `semigroup`, the whole of K_n at y's rank, which the caller
    builds, and takes each product x * y from its table, and the zero as
    the product n, n-1, ..., 1, so it builds no word index.  When y is the
    first generator it checks that the decreasing idempotent over 2..n
    is the one solution without letter 1.
    """
    if semigroup.rank != y.rank:
        raise ValidationError(f"rank mismatch: {semigroup.rank} vs {y.rank}")
    zero_index = semigroup.product(0, range(y.rank, 0, -1))
    solutions = frozenset(
        semigroup.element(i)
        for i in range(len(semigroup))
        if semigroup.product(i, y.word.letters) == zero_index
    )
    if y == generator(1, y.rank):
        rest = {x for x in solutions if 1 not in content(x)}
        if rest != {idempotent(range(2, y.rank + 1), y.rank)}:
            raise InvariantError(
                "solutions avoiding letter 1 must be exactly the decreasing "
                f"idempotent over 2..{y.rank}, got {sorted(str(x) for x in rest)}"
            )
    return solutions


def construct_right_zero_solutions(rank: int) -> frozenset[Element]:
    """Build the solutions of x * a_1 = zero without enumerating K_n.

    The members x of the submonoid avoiding letter 1 are the words of
    K_{rank-1}, each letter shifted up by one: a word over 2..rank is
    canonical exactly when its shift down is, since canonicity compares
    letters only by order.  Rank 1 reads K_0 = {e}.  One solution is
    emitted per member: x * a_1 * e_{2..m}, with m the zero threshold of
    x in K_rank.  The decreasing idempotent over 2..rank completes the
    set.

    m is t + 1, with t the threshold `Semigroup.zero_thresholds` gives
    the unshifted word in K_{rank-1}.  Appending a_1 to a word without
    letter 1 just appends it, so x * e_{1..m} is the zero exactly when
    x * e_{2..m} is rank..2, the shift of K_{rank-1}'s zero, that is
    when the unshifted word times e_{1..m-1} is that zero.
    The canonical word of the solution is the concatenation
    x, 1, m, m-1, ..., 2 itself, which the `Element` constructor checks.
    Membership, by one `multiply` per solution, and distinctness are
    re-checked on the way out, so a construction bug cannot produce a
    quietly wrong set.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    if rank == 1:
        below, thresholds = [()], [0]
    else:
        lower = Semigroup(rank - 1)
        below, thresholds = lower.words, lower.zero_thresholds()
    a1 = generator(1, rank)
    target = zero(rank)
    special = idempotent(range(2, rank + 1), rank)
    if multiply(special, a1) != target:
        raise InvariantError("the special solution must reach the zero")
    solutions = {special}
    for w, t in zip(below, thresholds):
        x = tuple(g + 1 for g in w)
        solution = Element(Word(x + (1,) + tuple(range(t + 1, 1, -1)), rank))
        if multiply(solution, a1) != target:
            raise InvariantError(f"constructed non-solution '{solution}'")
        solutions.add(solution)
    if len(solutions) != 1 + len(below):
        raise InvariantError(
            "solution construction must be injective over the submonoid: "
            f"{len(below)} members gave {len(solutions) - 1} solutions"
        )
    return frozenset(solutions)
