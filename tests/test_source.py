"""Static checks on the package source, in place of a linter."""

from __future__ import annotations

import argparse
import ast
import builtins
import importlib
import symtable
from pathlib import Path

import eprb_lab
from eprb_lab import cli
from eprb_lab.core import CONTEXTS, WINGS
from eprb_lab.models import MODEL_NAMES

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


def test_no_module_reads_another_modules_private_name():
    # a single-underscore name is its own module's: no other package module
    # imports it, or reads it as an attribute of that module (dunders aside)
    read = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: dict[str, str] = {}  # a bound name -> the package module it is
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[_bound_name(alias)] = alias.name
                    else:
                        read.append((path.stem, node.module, alias.name))
        read += [
            (path.stem, modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
        ]
    assert [
        f"{reader} -> {owner}.{name}"
        for reader, owner, name in read
        if owner != reader and name.startswith("_") and not name.endswith("__")
    ] == []


def test_cli_binds_every_kernel_name_it_reads():
    # cli imports numpy and the kernel once its arguments parse, binding numpy
    # as np and every name the package exports; a name it reads that is bound
    # nowhere would fail only on the path that reads it
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    top = symtable.symtable(text, "cli.py", "exec")
    tables, read = [top], set()
    while tables:
        table = tables.pop()
        tables += table.get_children()
        read |= {symbol.get_name() for symbol in table.get_symbols()
                 if symbol.is_referenced() and (table is top or symbol.is_global())}
    # annotations are never evaluated, but typing.get_type_hints resolves
    # their names in cli
    for node in ast.walk(ast.parse(text)):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if annotation is not None:
            read |= {name.id for name in ast.walk(annotation) if isinstance(name, ast.Name)}
    bound = {symbol.get_name() for symbol in top.get_symbols()
             if symbol.is_assigned() or symbol.is_imported()}
    kernel = {"np", *eprb_lab.__all__}
    assert read - bound - set(dir(builtins)) - kernel == set()
    assert _tracer_rebinds()["cli"] <= set(eprb_lab.__all__)


def test_cli_binds_its_kernel_through_the_package_exports():
    # the package's export table is the one record of the module a name is
    # in: cli names no package module, neither as a string nor in a from-import
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    named = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and str(node.value).startswith("eprb_lab.")]
    named += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level and node.module]
    assert named == []


def test_cli_binds_each_exported_name_to_the_package_original():
    # once the kernel loads, each name the package exports is bound in cli to
    # the package's own object, not to a copy or a namesake
    cli._load_kernel()
    assert [name for name in eprb_lab.__all__
            if getattr(cli, name) is not getattr(eprb_lab, name)] == []


def test_cli_reads_no_private_argparse_name():
    # cli's subcommand table, not argparse's private parser internals
    # (_actions, _SubParsersAction and the like), gives each subcommand's
    # flags and each flag's type
    parser = argparse.ArgumentParser()
    subparsers = parser.add_subparsers()
    action = subparsers.add_parser("sub").add_argument("--flag")
    private = {
        name
        for owner in (argparse, parser, subparsers, action, argparse.Namespace())
        for name in dir(owner)
        if name.startswith("_") and not name.startswith("__")
    }
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & private == set()


def _scoped(node: ast.AST, kind: type, scope: str = "") -> list[tuple[str, ast.AST]]:
    """Every ``kind`` node under ``node`` with the dotted name of the class
    or function it sits in."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, kind):
            found.append((scope, child))
        found += _scoped(child, kind, inner)
    return found


def _calls(node: ast.AST) -> list[tuple[str, ast.Call]]:
    return _scoped(node, ast.Call)  # type: ignore[return-value]


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
        "transition.full_report",
    ]
    assert [(where, n) for where, n in sweeps if n > 4] == []


def test_exports_that_no_package_code_uses():
    # an exported name or a public module-level function that no module of
    # the package reads (an import alone does not count) is library surface
    # that only tests and users reach; ROADMAP item 5 gives each its fate, so
    # a new one must be added here
    read, public = set(), set(eprb_lab._EXPORTS)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public |= {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(public - read) == [
        "chsh_correlations",
        "classify_lambda",
        "contradiction_trace",
        "detailed_balance",
        "moc_transition_measure",
        "probe_locality",
    ]


def test_class_members_that_no_package_code_reads():
    # a method, property or __init__ attribute of a package class that no
    # package code reads (as an attribute, or as a string constant in a
    # function that calls getattr) is surface that only tests reach; each
    # one left is listed with its ROADMAP fate, so a new one must be added here
    members, read = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                for call in ast.walk(node)
            ):
                read |= {
                    constant.value
                    for constant in ast.walk(node)
                    if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
                }
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if not item.name.startswith("__"):
                        members.add(f"{node.name}.{item.name}")
                    elif item.name == "__init__":
                        members |= {
                            f"{node.name}.{target.attr}"
                            for target in ast.walk(item)
                            if isinstance(target, ast.Attribute)
                            and isinstance(target.ctx, ast.Store)
                            and getattr(target.value, "id", None) == "self"
                        }
    fates = {
        "ContradictionTrace.escape_options": "caller: item 10",
        "ContradictionTrace.render": "caller: item 10",
        "MembershipVector.parity_consistent": "caller: item 10",
        "MembershipVector.region": "caller: item 10",
    }
    assert sorted(m for m in members if m.split(".")[1] not in read) == sorted(fates)


def test_only_core_reads_the_monte_carlo_plan():
    # blocks, chunks and their streams come from core.monte_carlo_chunks, so
    # no other module reads the sizes, the span maker or the stream maker
    plan = {"BLOCK_SIZE", "CHUNK_SIZE", "_spans", "derived_stream"}
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for alias in _imported(tree)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        readers |= {f"{path.stem}.{name}" for name in names & plan}
    assert readers == {f"core.{name}" for name in plan}


def test_one_order_rule_calls_a_sequential_model():
    # how a sequential model answers under an order is written once, in
    # models.as_simultaneous; every other first or second answer, the moc
    # sweep's included, is asked through the checked SequentialModel.first
    # and .second
    callers = set()
    for path in SOURCES:
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call.func, ast.Attribute) and call.func.attr in (
                "first_outcome",
                "second_outcome",
            ):
                callers.add(f"{path.stem}.{scope}")
    assert sorted(callers) == [
        "core.SequentialModel.first",
        "core.SequentialModel.second",
        "models.as_simultaneous.answer",
    ]


def test_only_the_checked_accessor_reads_an_outcome_function():
    # the +1/-1 rule of a two-wing model's answers is written once, in
    # HvModel.outcome; no other package code reads outcome_a or outcome_b
    readers = set()
    for path in SOURCES:
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")), ast.Attribute):
            if node.attr in ("outcome_a", "outcome_b"):  # type: ignore[attr-defined]
                readers.add(f"{path.stem}.{scope}")
    assert readers == {"core.HvModel.outcome"}


def test_only_core_pairs_the_settings_of_a_context():
    # the context cycle is written once, as core.CONTEXTS, and every table of
    # settings is derived from it; a string constant naming a setting anywhere
    # else would be a second copy of the cycle
    settings = {name for context in CONTEXTS for name in context}
    holders: dict[str, list[int]] = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in settings:
                holders.setdefault(path.stem, []).append(node.lineno)
    assert set(holders) == {"core"}, holders


def test_only_core_writes_the_wing_order():
    # which wing is Alice's and which is Bob's is written once, as the key
    # order of core.SETTINGS (core.WINGS); elsewhere a wing is looked up by
    # its place there, so no module spells the pair or picks the other wing
    # by comparing with a wing name.  A wing name passed as an argument is
    # the API's vocabulary and stays
    pair = "".join(WINGS)
    copies = []
    for path in SOURCES:
        if path.stem == "core":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in _scoped(tree, ast.Constant):
            if node.value == pair:  # type: ignore[attr-defined]
                copies.append(f"{path.stem}.{scope}:{node.lineno}")
        for scope, node in _scoped(tree, ast.Compare):
            operands = (node.left, *node.comparators)  # type: ignore[attr-defined]
            if any(isinstance(operand, ast.Constant) and operand.value in WINGS
                   for operand in operands):
                copies.append(f"{path.stem}.{scope}:{node.lineno}")
    assert copies == []


def test_only_core_makes_a_dataclass():
    # a record class is made by core.record, which gives every record one
    # shared set of methods; a dataclass made anywhere else would compile its
    # own methods at every import of the package
    makers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for alias in _imported(tree)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if names & {"dataclass", "make_dataclass"}:
            makers.add(path.stem)
    assert makers == {"core"}


def test_the_kernel_names_no_scheme():
    # each scheme class supplies its blocks and its estimate rule, so no code
    # asks which scheme it holds, and the sweep kernel and Histogram.measure
    # read no scheme's own fields
    schemes = {"GridScheme", "MonteCarloScheme"}
    checks = []
    for path in SOURCES:
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if _callee(call) == "isinstance" and len(call.args) == 2:
                named = {getattr(node, "id", None) or getattr(node, "attr", None)
                         for node in ast.walk(call.args[1])}
                if named & schemes:
                    checks.append(f"{path.stem}.{scope}")
    assert checks == []
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    histogram = next(node for node in tree.body if getattr(node, "name", None) == "Histogram")
    kernels = [node for node in (*tree.body, *histogram.body)
               if getattr(node, "name", None) in ("sweep_statistics", "measure")]
    assert len(kernels) == 2
    read = {node.attr for kernel in kernels for node in ast.walk(kernel)
            if isinstance(node, ast.Attribute)}
    assert read & {"resolution", "n"} == set()


def test_only_the_schemes_make_points():
    # the grid's runs feed GridScheme.blocks alone, and the Monte Carlo plan
    # feeds MonteCarloScheme.blocks and the communication game alone
    callers: dict[str, set[str]] = {"_axis_runs": set(), "monte_carlo_chunks": set()}
    for path in SOURCES:
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if _callee(call) in callers:
                callers[_callee(call)].add(f"{path.stem}.{scope}")
    assert callers == {
        "_axis_runs": {"core.GridScheme.blocks"},
        "monte_carlo_chunks": {"core.MonteCarloScheme.blocks", "protocols.simulate_game.play"},
    }


def test_only_transition_reads_the_pattern_tables():
    # how a four-context statistic is read off the outcome patterns is written
    # once, in TransitionReport.of: no other module reads the pattern tables,
    # and no code but that classmethod's cls(...) builds a report
    tables = {"_MEMBERS", "_SIGNS", "_PRE_VALUES", "_ODD", "P_PLUS_SELECTION"}
    readers, builders = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for alias in _imported(tree)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if names & tables:
            readers.add(path.stem)
        for scope, call in _calls(tree):
            if _callee(call) == "TransitionReport" or (
                path.stem == "transition" and _callee(call) == "cls"
            ):
                builders.append(f"{path.stem}.{scope}")
    assert readers == {"transition"}
    assert builders == ["transition.TransitionReport.of"]


def test_resolve_model_branches_on_no_model_name():
    # each built-in is one entry of the models table, which resolve_model looks
    # the name up in; a comparison of the name with a built-in's name would be
    # a second registration of that model
    tree = ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8"))
    [function] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "resolve_model"
    ]
    named = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare) and any(
            isinstance(part, ast.Name) and part.id == "name" for part in ast.walk(node)
        ):
            named += [
                part.value
                for part in ast.walk(node)
                if isinstance(part, ast.Constant) and part.value in MODEL_NAMES
            ]
    assert named == []
