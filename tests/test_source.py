"""Static checks on the package source, in place of a linter."""

from __future__ import annotations

import ast
from pathlib import Path

import eprb_lab

PACKAGE = Path(eprb_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> list[ast.alias]:
    """Every name an import statement of ``tree`` binds, ``__future__`` aside."""
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":  # re-exports
            used |= set(eprb_lab.__all__)
        for alias in _imported(tree):
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            if _bound_name(alias) not in used:
                unused.append(f"{path.name}:{alias.lineno}: {_bound_name(alias)}")
    assert unused == []


def test_all_lists_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [_bound_name(alias) for alias in _imported(tree)]
    assert sorted(eprb_lab.__all__) == sorted([*names, "__version__"])
