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
