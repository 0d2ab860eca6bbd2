"""Static checks on the package source, in place of a linter."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import eprb_lab

PACKAGE = Path(eprb_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
    table = eprb_lab._EXPORTS
    assert eprb_lab.__all__ == ["__version__", *table]
    for name, module in table.items():
        defining = importlib.import_module(f"eprb_lab.{module}")
        assert getattr(eprb_lab, name) is getattr(defining, name), name
    assert set(eprb_lab.__all__) <= set(dir(eprb_lab))


def _tracer_rebinds() -> dict[str, set[str]]:
    """module -> names that the benchmark tracer's ``_rebind([...], "name", ...)``
    calls point at a wrapper in that module."""
    rebinds: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_rebind":
            modules, name = node.args[0], node.args[1]
            for module in modules.elts:  # type: ignore[attr-defined]
                rebinds.setdefault(module.id, set()).add(name.value)  # type: ignore[attr-defined]
    return rebinds


def test_every_unused_import_is_a_tracer_shim():
    # a `# noqa: F401` import exists only so the tracer can rebind the name in
    # that module; once the tracer stops rebinding it, the shim is stale
    rebinds = _tracer_rebinds()
    assert rebinds
    stale = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for alias in _imported(ast.parse(text)):
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                continue
            if _bound_name(alias) not in rebinds.get(path.stem, set()):
                stale.append(f"{path.name}:{alias.lineno}: {_bound_name(alias)}")
    assert stale == []


def _calls(node: ast.AST, scope: str = "") -> list[tuple[str, ast.Call]]:
    """Every call under ``node`` with the dotted name of the class or
    function it sits in."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call):
            found.append((scope, child))
        found += _calls(child, inner)
    return found


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_every_statistic_is_a_view_of_a_histogram():
    # Histogram.measure is the one place a MeasureEstimate is made, the kernel
    # is never handed a fifth positional argument (a selection of bins), and
    # each of its call sites is one statistic family's only sweep
    makers, sweeps = [], []
    for path in SOURCES:
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if _callee(call) == "MeasureEstimate":
                makers.append(f"{path.stem}.{scope}")
            elif _callee(call) == "sweep_statistics":
                sweeps.append((f"{path.stem}.{scope}", len(call.args)))
    assert makers == ["core.Histogram.measure"]
    assert sorted(where for where, _ in sweeps) == [
        "core.estimate_measure",
        "ordering._moc_sweep",
        "protocols.marginal_shift",
        "transition.full_report",
    ]
    assert [(where, n) for where, n in sweeps if n > 4] == []
