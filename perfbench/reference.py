"""An independent canonical-form reference and the per-output checks.

The reference folds a word one letter at a time onto a canonical prefix.
It shares no code with the package's rewriter, which rescans the whole
word after every deletion.  To append letter g to a canonical word u:

* if u has no g, or the gap after its last g holds both a larger and a
  smaller letter, u g is canonical;
* if that gap is empty or all smaller, the new g is deleted;
* if the gap is all larger, the old g is deleted and what follows it is
  folded back onto the prefix before g is appended again.
"""

from __future__ import annotations

# Above this length the all_normal_forms oracle gets expensive: about
# 1.5 ms at 12 letters and 0.4 s at 24 on random rank-6 words.
ORACLE_MAX_LEN = 12


def _append(word: list[int], g: int) -> None:
    try:
        p = len(word) - 1 - word[::-1].index(g)
    except ValueError:
        word.append(g)
        return
    gap = word[p + 1:]
    if not gap or max(gap) < g:
        return
    if min(gap) < g:
        word.append(g)
        return
    del word[p:]
    for x in gap:
        _append(word, x)
    _append(word, g)


def canonical_reference(letters) -> tuple[int, ...]:
    word: list[int] = []
    for g in letters:
        _append(word, g)
    return tuple(word)


def is_subsequence(small, big) -> bool:
    it = iter(big)
    return all(x in it for x in small)


def parse_text_word(text: str) -> tuple[int, ...]:
    """The CLI's text form of a word; "e" and "" are the empty word."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    return tuple(int(part) for part in text.split())


class CanonicalChecker:
    """Checks one canonicalization result against its source word.

    The result must be canonical by the package's own test, a subsequence
    of the source with the same letters, equal to the fold reference, and,
    for short sources, the single result of the package's confluence
    oracle `all_normal_forms`.
    """

    def __init__(self, kiselman, rank: int) -> None:
        self.Word = kiselman.words.Word
        self.is_canonical = kiselman.words.is_canonical
        self.all_normal_forms = kiselman.rewrite.all_normal_forms
        self.rank = rank
        self._oracle: dict[tuple[int, ...], frozenset] = {}

    def ok(self, source: tuple[int, ...], result: tuple[int, ...],
           reference: tuple[int, ...]) -> bool:
        if result != reference:
            return False
        if not self.is_canonical(self.Word(result, self.rank)):
            return False
        if not is_subsequence(result, source) or set(result) != set(source):
            return False
        if len(source) <= ORACLE_MAX_LEN:
            normals = self._oracle.get(source)
            if normals is None:
                normals = frozenset(
                    w.letters for w in self.all_normal_forms(self.Word(source, self.rank))
                )
                self._oracle[source] = normals
            if normals != {result}:
                return False
        return True
