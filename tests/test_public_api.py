"""The public names: every `__all__` entry of the library modules
exists, and the package re-exports only names its modules declare public.

Tools that walk `__all__` (the traced benchmark wraps every listed
function) break on a stale entry, so a deleted helper must leave
`__all__` and `kiselman/__init__.py` with it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import kiselman

MODULES = ["errors", "words", "rewrite", "algebra", "enumeration", "equations", "verify"]

# Every name the benchmark harness in perfbench/ reaches by attribute,
# which no import statement there would catch going missing.
BENCHMARK_NAMES = [
    "Word",
    "Element",
    "canonical_form",
    "enumerate_canonical_words",
    "multiply",
    "words.Word",
    "words.is_canonical",
    "rewrite.canonical_letters",
    "rewrite.canonical_form",
    "rewrite.all_normal_forms",
    "algebra.multiply",
    "enumeration.cache_path",
    "verify.run_suites",
    "verify.SUITE_NAMES",
    "cli.main",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"kiselman.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_declared_names():
    tree = ast.parse(Path(kiselman.__file__).read_text())
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node.module in MODULES
            declared = set(importlib.import_module(f"kiselman.{node.module}").__all__)
            undeclared = [a.name for a in node.names if a.name not in declared]
            assert undeclared == [], node.module
            imported += len(node.names)
    assert imported > 0


@pytest.mark.parametrize("dotted", BENCHMARK_NAMES)
def test_benchmark_names_resolve(dotted):
    *module, attr = dotted.split(".")
    owner = importlib.import_module(".".join(["kiselman", *module]))
    assert hasattr(owner, attr)
