"""Machine-checkable verification suites behind the `verify` CLI command.

Each suite re-derives one structural fact at the requested rank and
reports pass/fail with counterexamples; nothing is trusted from earlier
runs.  A claim of the paper is checked here and nowhere else in the
package.  Identities of products are checked on every edge x * a_k of
the right Cayley table; as x * (y a_k) = (x * y) * a_k, induction on |y|
extends each to right factors of every length, so none is sampled:

- content(x * a_k) = content(x) | {k} gives content(x * y);
- tau(x * a_k) = a_{n+1-k} * tau(x), tau the antiautomorphism, gives
  tau(x * y) = tau(y) * tau(x);
- zero cancellation and its dual, in that suite;
- for the solutions S of x * a_1 = zero: x * special = x, and x * a_k
  is in S for k >= 2, for every x in S.  The latter holds as
  a_1 a_k a_1 = a_k a_1, so x a_k a_1 = x a_1 a_k a_1 = zero.  Any
  other member of S is u 1 v with u over 2..n; x * u is in S, so the
  product is the zero.  That covers all |S|^2 products, and closure.

Suites share one context, built once per run around the indexed
`Semigroup` of K_n; the suites that read the rest build it on first use:
the left products a_k * y, along the parent links; the direct search of
K_n, as letter tuples; the submonoid avoiding letter 1; and the solutions
of x * a_1 = zero, constructed from K_{n-1} shifted up one letter and
each checked by one `multiply`, a fold.  The deletion rewriter serves
only the confluence suite, where `canonical_form` meets the oracle
`all_normal_forms`; it and the two prefix suites alone draw from the
seed.  A suite that does not apply at the rank reports itself skipped
with a reason; the report lists every selected suite.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property

from .algebra import (
    Element,
    _reverse_flip,
    antiautomorphism,
    generator,
    idempotent,
    prefix_before_one,
    zero,
)
from .enumeration import (
    DEFAULT_ELEMENT_LIMIT,
    KNOWN_CARDINALITIES,
    Semigroup,
    _canonical_words,
    letter_bounds,
)
from .equations import (
    ZeroSolutionSet,
    construct_right_zero_solutions,
    solve_right_zero,
)
from .errors import InvariantError, ResourceLimitError, ValidationError
from .rewrite import all_normal_forms, canonical_form
from .words import Word, letter_subsets

__all__ = ["SUITE_NAMES", "run_suites"]


class _Context:
    def __init__(self, rank: int, seed: int, samples: int, limit: int) -> None:
        self.rank = rank
        self.samples = samples
        self.rng = random.Random(seed)
        self.semigroup = Semigroup(rank, limit=limit)

    def along_links(self, op, by_letter: list, roots: list) -> list[list]:
        """For each root, a value per element: the root for the identity,
        and op(by_letter[g], v's value) for v g.  A round's parents are
        all in the round before it."""
        s = self.semigroup
        labels = list(map(by_letter.__getitem__, s._lasts))
        rows = []
        for root in roots:
            row = [root]
            for start, end in s.rounds()[1:]:
                row += map(
                    op, labels[start:end], map(row.__getitem__, s._parents[start:end])
                )
            rows.append(row)
        return rows

    @cached_property
    def left(self) -> list[list[int] | None]:
        """left[k][y] is a_k * y for k in 1..n, as (a_k * v) * g for y = v g."""
        columns = self.semigroup.columns
        generators = [columns[k][0] for k in range(1, self.rank + 1)]
        return [None] + self.along_links(list.__getitem__, columns, generators)

    @cached_property
    def words(self) -> list[tuple[int, ...]]:
        """K_n by the direct search, the closure's independent check."""
        return _canonical_words(self.rank)

    @cached_property
    def submonoid(self) -> frozenset[Element]:
        # not a second closure: prefix_bijection holds the construction's to it
        return frozenset(
            self.semigroup.element(i)
            for i, w in enumerate(self.semigroup.words)
            if 1 not in w
        )

    @cached_property
    def solutions(self) -> ZeroSolutionSet:
        """The constructed solutions of x * a_1 = zero, built on first use.

        An InvariantError in the construction is not cached: it fails
        each suite that asks, and only those.
        """
        return construct_right_zero_solutions(self.rank)


def _result(name: str, checks: int, failures: list[str], detail: dict) -> dict:
    """A suite's report entry: it fails when it found a counterexample."""
    return {
        "name": name,
        "status": "fail" if failures else "pass",
        "checks": checks,
        "failures": failures[:10],
        "detail": detail,
    }


def _skip(name: str, reason: str) -> dict:
    return _result(name, 0, [], {"reason": reason}) | {"status": "skip"}


def _random_letters(
    ctx: _Context, max_len: int, letters: tuple[int, ...]
) -> tuple[int, ...]:
    length = ctx.rng.randint(0, max_len)
    return tuple(ctx.rng.choice(letters) for _ in range(length))


def _text(letters: tuple[int, ...]) -> str:
    """The letters as `str(Word)` writes them."""
    return " ".join(map(str, letters))


def _suite_cardinality(ctx: _Context) -> dict:
    failures: list[str] = []
    closure_count = len(ctx.semigroup)
    direct_count = len(ctx.words)
    checks = 2
    if closure_count != direct_count:
        failures.append(
            f"closure found {closure_count} elements, canonical-word "
            f"search found {direct_count}"
        )
    if set(ctx.semigroup.words) != set(ctx.words):
        failures.append("the two enumeration routes disagree on the element sets")
    golden = KNOWN_CARDINALITIES.get(ctx.rank)
    if golden is not None:
        checks += 1
        if closure_count != golden:
            failures.append(
                f"cardinality {closure_count} differs from the "
                f"cross-validated value {golden}"
            )
    listings = {1: {"", "1"}, 2: {"", "1", "2", "1 2", "2 1"}}
    if ctx.rank in listings:
        checks += 1
        got = set(map(_text, ctx.words))
        if got != listings[ctx.rank]:
            failures.append(f"rank-{ctx.rank} listing is {sorted(got)}")
    detail = {"closure": closure_count, "direct": direct_count}
    if golden is not None:
        detail["golden"] = golden
    return _result("cardinality", checks, failures, detail)


def _suite_confluence(ctx: _Context) -> dict:
    failures: list[str] = []
    max_len = 12
    alphabet = tuple(range(1, ctx.rank + 1))
    for _ in range(ctx.samples):
        w = Word(_random_letters(ctx, max_len, alphabet), ctx.rank)
        normals = all_normal_forms(w)
        expected = canonical_form(w)
        if normals != {expected}:
            failures.append(
                f"word '{w}' has normal forms "
                f"{sorted(str(v) for v in normals)}, expected only '{expected}'"
            )
    return _result(
        "confluence", ctx.samples, failures, {"max_length": max_len}
    )


def _suite_idempotents(ctx: _Context) -> dict:
    failures: list[str] = []
    s = ctx.semigroup
    found = {s.element(i) for i, w in enumerate(s.words) if s.product(i, w) == i}
    expected = {idempotent(subset, ctx.rank) for subset in letter_subsets(ctx.rank)}
    if len(expected) != 2 ** ctx.rank:
        failures.append("decreasing idempotent words are not pairwise distinct")
    if found != expected:
        extra = sorted(str(x) for x in found - expected)
        missing = sorted(str(x) for x in expected - found)
        failures.append(f"idempotents mismatch: extra={extra} missing={missing}")
    return _result(
        "idempotents",
        len(s) + 1,
        failures,
        {"count": len(found), "expected": 2 ** ctx.rank},
    )


def _suite_content(ctx: _Context) -> dict:
    # content(x * a_k) = content(x) | {k}, contents as bitmasks of letters
    failures: list[str] = []
    s = ctx.semigroup
    bits = [1 << g for g in range(ctx.rank + 1)]
    (masks,) = ctx.along_links(int.__or__, bits, [0])
    for k in range(1, ctx.rank + 1):
        column, bit = s.columns[k], bits[k]
        if list(map(masks.__getitem__, column)) != list(map(bit.__or__, masks)):
            failures.extend(
                f"content(x*a_{k}) != content(x) | {{{k}}} at x='{s.element(x)}'"
                for x, xk in enumerate(column)
                if masks[xk] != masks[x] | bit
            )
    contents = len(set(masks))
    if contents != 2 ** ctx.rank:
        failures.append(f"{contents} distinct contents, expected {2 ** ctx.rank}")
    edges = len(s) * ctx.rank
    return _result("content", edges + 1, failures, {"edges": edges})


def _suite_antiautomorphism(ctx: _Context) -> dict:
    failures: list[str] = []
    tau = antiautomorphism
    if tau(zero(ctx.rank)) != zero(ctx.rank):
        failures.append("the antiautomorphism moved the zero")
    for i in range(1, ctx.rank + 1):
        if tau(generator(i, ctx.rank)) != generator(ctx.rank - i + 1, ctx.rank):
            failures.append(f"generator {i} not sent to {ctx.rank - i + 1}")
    checks = 1 + ctx.rank
    s = ctx.semigroup
    # tau on indices, from the letter tuples by the map tau itself applies
    flipped = [_reverse_flip(w, ctx.rank) for w in s.words]
    image = list(map(s.index.get, flipped))
    pool = range(len(s))
    if None in image:
        failures.extend(
            f"image '{_text(flipped[i])}' of '{s.element(i)}' is not canonical"
            for i in pool
            if image[i] is None
        )
        return _result("antiautomorphism", checks, failures, {"edges": 0})
    if list(map(image.__getitem__, image)) != list(pool):
        failures.extend(
            f"not an involution at '{s.element(i)}'"
            for i in pool
            if image[image[i]] != i
        )
    # tau(x * a_k) against a_{n+1-k} * tau(x), a whole column at a time
    for k in range(1, ctx.rank + 1):
        column, mirror = s.columns[k], ctx.left[ctx.rank + 1 - k]
        images = list(map(image.__getitem__, column))
        if images != list(map(mirror.__getitem__, image)):
            failures.extend(
                f"product not reversed at x='{s.element(x)}' * a_{k}"
                for x in pool
                if image[column[x]] != mirror[image[x]]
            )
    edges = len(s) * ctx.rank
    return _result(
        "antiautomorphism", checks + len(s) + edges, failures, {"edges": edges}
    )


def _suite_word_bounds(ctx: _Context) -> dict:
    # the closure's words: the direct search prunes with these very
    # bounds, so its words could never break them
    failures: list[str] = []
    bounds = letter_bounds(ctx.rank)
    s = ctx.semigroup
    for i, letters in enumerate(s.words):
        for letter, bound in bounds.items():
            count = letters.count(letter)
            if count > bound:
                failures.append(
                    f"canonical word '{s.element(i)}' uses letter {letter} "
                    f"{count} times, bound {bound}"
                )
    return _result(
        "word_bounds", len(s) * ctx.rank, failures, {"words": len(s)}
    )


def _suite_prefix_stability(ctx: _Context) -> dict:
    # can(w . 1 . u) = w . 1 . u* with u* a subsequence of u, for w a
    # canonical word avoiding letter 1 and u any word avoiding letter 1.
    if ctx.rank < 2:
        return _skip("prefix_stability", "needs letters above 1")
    failures: list[str] = []
    s = ctx.semigroup
    # w . 1 is canonical, since its only 1 is new
    stems = [w for w in s.words if 1 not in w]
    alphabet = tuple(range(2, ctx.rank + 1))
    per_stem = max(1, ctx.samples // len(stems))
    # deleted counts the products shorter than w . 1 . u: the
    # concatenation itself would pass both checks below with none
    cases = deleted = 0
    for w in stems:
        head = w + (1,)
        start = s.index[head]
        for _ in range(per_stem):
            u = _random_letters(ctx, 8, alphabet)
            reduced = s.words[s.product(start, u)]
            cases += 1
            deleted += len(reduced) < len(head) + len(u)
            if reduced[:len(head)] != head:
                failures.append(
                    f"can('{_text(head + u)}') = '{_text(reduced)}' "
                    f"lost the stem '{_text(w)}' + 1"
                )
                continue
            tail = reduced[len(head):]
            rest = iter(u)
            if not all(letter in rest for letter in tail):
                failures.append(
                    f"can('{_text(head + u)}') tail '{_text(tail)}' "
                    f"is not a subsequence of '{_text(u)}'"
                )
    return _result(
        "prefix_stability", cases, failures,
        {"stems": len(stems), "deleted": deleted},
    )


def _suite_prefix_recovery(ctx: _Context) -> dict:
    # If can(w . u) contains letter 1 for canonical w and u avoiding
    # letter 1, then w begins with the part up to and including that 1.
    if ctx.rank < 2:
        return _skip("prefix_recovery", "needs letters above 1")
    failures: list[str] = []
    s = ctx.semigroup
    alphabet = tuple(range(2, ctx.rank + 1))
    if ctx.rank <= 3:  # every suffix of up to three letters
        suffixes = [
            p for length in range(0, 4)
            for p in itertools.product(alphabet, repeat=length)
        ]
        pairs = [(i, u) for i in range(len(s)) for u in suffixes]
    else:
        pairs = [
            (ctx.rng.randrange(len(s)), _random_letters(ctx, 6, alphabet))
            for _ in range(ctx.samples)
        ]
    # deleted counts the products shorter than w . u: the concatenation
    # itself would pass the check below with none
    cases = deleted = 0
    for i, u in pairs:
        cases += 1
        w = s.words[i]
        reduced = s.words[s.product(i, u)]
        deleted += len(reduced) < len(w) + len(u)
        if 1 not in reduced:
            continue
        pos = reduced.index(1)
        if 1 in reduced[pos + 1:]:
            failures.append(f"canonical form '{_text(reduced)}' repeats letter 1")
            continue
        if w[:pos + 1] != reduced[:pos + 1]:
            failures.append(
                f"can('{_text(w)}' + '{_text(u)}') = '{_text(reduced)}' but "
                f"'{_text(w)}' does not begin with the part up to letter 1"
            )
    return _result("prefix_recovery", cases, failures, {"deleted": deleted})


def _suite_zero_cancellation(ctx: _Context) -> dict:
    """Zero cancellation at this rank, proved on the edges of the table.

    Right edges: for every element x and letter k >= 2, x * a_k is the
    zero only when x is.  Left edges: for every element y and letter
    k <= n - 1, a_k * y is the zero only when y is.  By induction on |y|
    the right edges prove the paper's statement for every y over the
    letters 2..n, of any length: x * e = x, and x * (y a_k) is
    (x * y) * a_k, where x * y is not the zero when x is not.  The left
    edges prove its dual the same way, by induction on |x|: x * y = zero
    with x over the letters 1..n-1 forces y = zero.  The two in turn
    prove the triple statement: if x * y * z = zero, x avoiding letter n
    and z avoiding letter 1, then x * y = zero by the first, and y =
    zero by the second.  So the suite reads no seed and draws nothing.
    """
    if ctx.rank < 2:
        return _skip("zero_cancellation", "needs letters above 1")
    failures: list[str] = []
    s = ctx.semigroup
    rank, columns, element = ctx.rank, s.columns, s.element
    zero_index = s.index[zero(rank).word.letters]
    for k in range(2, rank + 1):
        for x, xk in enumerate(columns[k]):
            if xk == zero_index and x != zero_index:
                failures.append(f"x='{element(x)}' * a_{k} is the zero, but x is not")
    for k in range(1, rank):
        for y, ky in enumerate(ctx.left[k]):
            if ky == zero_index and y != zero_index:
                failures.append(f"a_{k} * y='{element(y)}' is the zero, but y is not")
    edges = len(s) * (rank - 1)
    return _result(
        "zero_cancellation",
        2 * edges,
        failures,
        {"right_edges": edges, "left_edges": edges},
    )


def _suite_solution_structure(ctx: _Context) -> dict:
    failures: list[str] = []
    constructed = ctx.solutions
    s = ctx.semigroup
    # raises unless the special solution is the only one avoiding letter 1
    brute = solve_right_zero(generator(1, ctx.rank), s)
    if constructed.solutions != brute.solutions:
        failures.append("constructive and brute-force solution sets differ")
    # the antiautomorphism swaps the sides: a_n * y = zero mirrors x * a_1 = zero
    zero_index = s.index[zero(ctx.rank).word.letters]
    left_solved = {
        s.element(y) for y, ny in enumerate(ctx.left[ctx.rank]) if ny == zero_index
    }
    if left_solved != {antiautomorphism(x) for x in brute.solutions}:
        failures.append(
            f"the solutions of a_{ctx.rank} * y = zero are not the "
            "antiautomorphism's image of the solutions of x * a_1 = zero"
        )
    if len(constructed.solutions) != 1 + len(ctx.submonoid):
        failures.append(
            f"|solutions| = {len(constructed.solutions)}, "
            f"expected 1 + {len(ctx.submonoid)}"
        )
    if ctx.rank >= 2:
        one_down = len(_canonical_words(ctx.rank - 1))
        if len(ctx.submonoid) != one_down:
            failures.append(
                f"submonoid avoiding letter 1 has {len(ctx.submonoid)} members, "
                f"rank {ctx.rank - 1} has {one_down} elements"
            )
    # the three-case rule: special * special = special, anything * special
    # is unchanged, and a right factor containing letter 1 collapses the
    # product to the zero, by these two edge checks (the module docstring)
    members = sorted(s.index[x.word.letters] for x in constructed.solutions)
    member_set = set(members)
    special = constructed.decomposition.special.word.letters
    uppers = s.columns[2:]
    for x in members:
        actual = s.product(x, special)
        if actual != x:
            failures.append(
                f"case rule gave '{s.element(x)}' but the product is "
                f"'{s.element(actual)}'"
            )
        failures.extend(
            f"product '{s.element(column[x])}' of '{s.element(x)}' * a_{k} "
            "escaped the solution set"
            for k, column in enumerate(uppers, 2) if column[x] not in member_set
        )
    # four checks of the sets (three at rank 1), then |S| * n of the rule
    return _result(
        "solution_structure",
        (4 if ctx.rank >= 2 else 3) + len(members) * ctx.rank,
        failures,
        {"solutions": len(constructed.solutions), "submonoid": len(ctx.submonoid)},
    )


def _suite_prefix_bijection(ctx: _Context) -> dict:
    containing_one = ctx.solutions.decomposition.containing_one
    failures: list[str] = []
    images = {prefix_before_one(x) for x in containing_one}
    if len(images) != len(containing_one):
        failures.append("prefix map is not injective on the solutions")
    if images != ctx.submonoid:
        failures.append(
            "prefix map does not cover the submonoid avoiding letter 1"
        )
    return _result(
        "prefix_bijection",
        len(containing_one) + 1,
        failures,
        {"solutions_with_one": len(containing_one)},
    )


def _suite_parity(ctx: _Context) -> dict:
    # From rank 3 on, the canonical words holding both extreme letters
    # hold each exactly once, and the mirror map pairs the half where 1
    # comes first with the half where the top letter does.  The counting
    # identity below, over the two ranks beneath, then forces the
    # parity to alternate with the rank.
    failures: list[str] = []
    rank = ctx.rank
    cardinality = len(ctx.words)
    parity = "even" if cardinality % 2 == 0 else "odd"
    expected_parity = "even" if rank % 2 == 1 else "odd"
    checks = 2
    if parity != expected_parity:
        failures.append(
            f"cardinality {cardinality} is {parity}, "
            f"rank {rank} demands {expected_parity}"
        )
    if cardinality != len(ctx.semigroup):
        failures.append("the direct search disagrees with the closure enumeration")
    detail: dict = {"cardinality": cardinality, "parity": parity}
    if rank >= 3:
        checks += 3
        one_first: set[tuple[int, ...]] = set()
        top_first: set[tuple[int, ...]] = set()
        for w in ctx.words:
            if 1 not in w or rank not in w:
                continue
            if w.count(1) != 1 or w.count(rank) != 1:
                raise InvariantError(
                    f"extreme letters must occur exactly once, got '{_text(w)}'"
                )
            half = one_first if w.index(1) < w.index(rank) else top_first
            half.add(w)
        card_1 = len(_canonical_words(rank - 1))
        card_2 = len(_canonical_words(rank - 2))
        if cardinality != card_2 + 2 * (card_1 - card_2) + 2 * len(one_first):
            failures.append("the counting identity fails")
        if len(one_first) != len(top_first):
            failures.append(
                f"extreme-letter halves differ: {len(one_first)} "
                f"vs {len(top_first)}"
            )
        # the mirror map sends each letter i to rank - i + 1
        if {tuple(rank + 1 - i for i in w) for w in one_first} != top_first:
            failures.append("the mirror map does not pair the two halves")
        detail["one_first"] = len(one_first)
        detail["top_first"] = len(top_first)
    return _result("parity", checks, failures, detail)


_SUITES = {
    "cardinality": _suite_cardinality,
    "confluence": _suite_confluence,
    "idempotents": _suite_idempotents,
    "content": _suite_content,
    "antiautomorphism": _suite_antiautomorphism,
    "word_bounds": _suite_word_bounds,
    "prefix_stability": _suite_prefix_stability,
    "prefix_recovery": _suite_prefix_recovery,
    "zero_cancellation": _suite_zero_cancellation,
    "solution_structure": _suite_solution_structure,
    "prefix_bijection": _suite_prefix_bijection,
    "parity": _suite_parity,
}
# the report's order, and the CLI's --suite choices
SUITE_NAMES = list(_SUITES)


def run_suites(
    rank: int,
    seed: int = 0,
    samples: int = 1000,
    limit: int = DEFAULT_ELEMENT_LIMIT,
    names: list[str] | None = None,
) -> dict:
    """Run verification suites and assemble a JSON-ready report.

    Every selected suite appears in the report, passed, failed or
    skipped.  A resource cap tripping mid-run aborts the remainder but
    the partial report is still returned, flagged as aborted.
    """
    selected = list(SUITE_NAMES) if names is None else list(names)
    for name in selected:
        if name not in _SUITES:
            raise ValidationError(f"unknown suite {name!r}")
    report: dict = {
        "rank": rank,
        "seed": seed,
        "samples": samples,
        "aborted": False,
        "all_passed": True,
        "suites": [],
    }
    try:
        ctx = _Context(rank, seed, samples, limit)
    except ResourceLimitError as exc:
        report["aborted"] = True
        report["all_passed"] = False
        report["error"] = str(exc)
        return report
    for name in selected:
        try:
            outcome = _SUITES[name](ctx)
        except ResourceLimitError as exc:
            report["aborted"] = True
            report["all_passed"] = False
            report["error"] = str(exc)
            break
        except InvariantError as exc:
            outcome = _result(name, 0, [f"invariant violated: {exc}"], {})
        report["suites"].append(outcome)
        if outcome["status"] == "fail":
            report["all_passed"] = False
    return report
