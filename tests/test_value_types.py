"""Value semantics of the package's immutable types.

`Word` and `Element` are slotted classes and the result types are named
tuples. Each is equal and hashes equal after a round trip through
`pickle`, `copy.copy` and `copy.deepcopy`, refuses assignment to a
field, and hashes as the tuple of its fields, which fixes the iteration
order of sets of them and with it every seeded sample.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from kiselman.algebra import Element
from kiselman.equations import construct_right_zero_solutions
from kiselman.rewrite import reduction_trace
from kiselman.words import Word, parse_word


def _values():
    [(reduction, _)] = reduction_trace(parse_word("1 2 1", 2))
    solved = construct_right_zero_solutions(3)
    return {
        "Word": (Word((2, 1), 2), ("letters", "rank")),
        "Element": (Element(Word((2, 1), 2)), ("word",)),
        "Reduction": (
            reduction, ("kind", "letter", "kept_position", "removed_position")
        ),
        "SolutionDecomposition": (solved.decomposition, ("special", "containing_one")),
        "ZeroSolutionSet": (solved, ("rank", "y", "solutions", "decomposition")),
    }


VALUES = _values()


@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("name", VALUES)
def test_round_trip_keeps_equality_and_hash(name, round_trip):
    value, _ = VALUES[name]
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value
    assert hash(again) == hash(value)


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned(name):
    value, fields = VALUES[name]
    before = getattr(value, fields[0])
    with pytest.raises(AttributeError):
        setattr(value, fields[0], before)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert getattr(value, fields[0]) == before


@pytest.mark.parametrize("name", VALUES)
def test_hash_is_the_hash_of_the_fields(name):
    value, fields = VALUES[name]
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


def test_word_letters_are_coerced_to_a_tuple():
    assert Word([1, 2], 2).letters == (1, 2)
    assert type(Word([1, 2], 2).letters) is tuple
    assert Word([1, 2], 2) == Word((1, 2), 2)


def test_reprs_name_every_field():
    word = Word((2, 1), 2)
    assert repr(word) == "Word(letters=(2, 1), rank=2)"
    assert repr(Element(word)) == "Element(word=Word(letters=(2, 1), rank=2))"


def test_equality_needs_the_same_type():
    word = Word((2, 1), 2)
    assert word != Element(word)
    assert word != ((2, 1), 2)
    assert Word((1,), 1) != Word((1,), 2)
