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
from kiselman import cli

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

# Every argv shape the benchmark's cli workload passes to the CLI, so
# that narrowing a subcommand's options cannot break it unnoticed.
BENCHMARK_ARGVS = [
    ["enum", "--n", "2", "--format", "csv"],
    ["enum", "--n", "6", "--format", "csv", "--cache-dir", "D"],
    ["stats", "--n", "5", "--format", "json", "--seed", "1000"],
    ["solve", "--y", "1", "--n", "5", "--format", "json", "--seed", "1000"],
    ["verify", "--n", "5", "--format", "json", "--seed", "1000"],
    ["canon", "--n", "6", "1 2 3 1"],
    ["canon", "--n", "6", "--trace", "1 2 3 1"],
    ["mul", "--n", "6", "2 1", "1 3"],
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


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=" ".join)
def test_benchmark_argvs_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


# Semigroup's links, the storage format that `Semigroup.along`, `rounds`
# and `texts` hide
LINK_FIELDS = {"_parents", "_lasts", "_states", "_rows", "_bounds"}


def test_only_enumeration_reads_the_semigroup_links():
    readers: dict[str, list[int]] = {}
    for path in sorted(Path(kiselman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in LINK_FIELDS:
                readers.setdefault(path.name, []).append(node.lineno)
    assert set(readers) == {"enumeration.py"}, readers
