"""No module in src/ or tests/ imports a name it never uses.

An ``ast`` scan of each file: a name bound by an import is used when the
module reads it (a ``Name``, or the head of an attribute chain such as
``freebraid.classes._built`` for ``import freebraid.classes``) or lists it
in its ``__all__``, which is how a package re-exports.  ``from __future__``
imports bind no name and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import freebraid

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")))


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return out


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = _exported(tree)
    for node in ast.walk(tree):
        name = _dotted(node)
        while name:
            used.add(name)
            name = name.rpartition(".")[0]
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_package_exports_every_name_its_all_lists():
    namespace: dict = {}
    exec("from freebraid import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(freebraid.__all__)


MODULES = ("coxeter", "rootseq", "classes", "triples", "typea")


def test_no_name_is_listed_by_two_modules():
    """The package star-imports each module in turn, so a name in two lists
    would be shadowed by the later module without an error."""
    owners: dict[str, list[str]] = {}
    for module in MODULES:
        for name in getattr(freebraid, module).__all__:
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_is_an_attribute_of_its_module(module):
    mod = getattr(freebraid, module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_the_package_lists_the_union_of_its_modules_lists():
    assert sorted(freebraid.__all__) == sorted(n for m in MODULES for n in getattr(freebraid, m).__all__)


def test_the_scan_finds_an_unused_import_and_passes_a_used_one():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json, sys\n"
        "from math import comb, factorial as fact\n"
        "__all__ = ['comb']\n"
        "print(os.path.sep, sys.argv)\n"
    )
    assert unused_imports(source) == [(3, "json"), (4, "fact")]
