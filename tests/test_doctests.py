"""Run the docstring examples shipped with the library modules, and the
README's library example."""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import kiselman.algebra
import kiselman.enumeration
import kiselman.rewrite
import kiselman.words

MODULES = [
    kiselman.words,
    kiselman.rewrite,
    kiselman.algebra,
    kiselman.enumeration,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_readme_library_example_runs():
    # the code block of the README's "Library" section, run as written,
    # so a public name it uses cannot be removed or renamed unnoticed
    path = Path(__file__).resolve().parents[1] / "README.md"
    section = path.read_text().split("\n## Library\n", 1)
    start = section[1].index("```python\n") + len("```python\n")
    block = section[1][start:].split("\n```", 1)[0]
    # padded so that a traceback names the README's own line
    padding = "\n" * (section[0].count("\n") + 2 + section[1][:start].count("\n"))
    exec(compile(padding + block, str(path), "exec"), {})
