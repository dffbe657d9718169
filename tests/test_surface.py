"""The documented surface: README examples run, every export resolves with
its annotations, every name the benchmark traces exists, one module
decides which algebra an input belongs to, one helper forms the Born
weights, no module imports scipy, every default is both taken and
overridden somewhere, and every attribute a class stores is read."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import contextqm

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = ["contextqm"] + [
    f"contextqm.{info.name}" for info in pkgutil.iter_modules(contextqm.__path__)
]


def _readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run_in_order():
    # later blocks use names bound by earlier ones, as a reader would run them
    blocks = _readme_python_blocks()
    assert blocks
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _annotated(name, obj):
    """``obj`` and, for a class, each function defined in its body."""
    yield name, obj
    if inspect.isclass(obj):
        for key, member in vars(obj).items():
            member = member.fget if isinstance(member, property) else member
            member = getattr(member, "__func__", member)
            if inspect.isfunction(member):
                yield f"{name}.{key}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves_its_annotations(module_name):
    # annotations are strings (``from __future__ import annotations``), so a
    # name missing from the module surfaces only when they are evaluated
    module = importlib.import_module(module_name)
    unresolved = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        for label, target in _annotated(name, obj):
            try:
                typing.get_type_hints(target)
            except NameError as exc:
                unresolved.append(f"{label}: {exc}")
    assert unresolved == []


def _perfbench_spans():
    # loaded from its file: perfbench is not a package, and the tracer is
    # only read here, never installed
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_exists():
    spans = _perfbench_spans()
    missing = []
    for _, module_name, attribute in spans.SPANNED_FUNCTIONS:
        if not callable(getattr(importlib.import_module(module_name), attribute, None)):
            missing.append(f"{module_name}.{attribute}")
    for _, module_name, class_name, attribute in spans.SPANNED_METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        if not callable(getattr(cls, attribute, None)):
            missing.append(f"{module_name}.{class_name}.{attribute}")
    from contextqm.cli import main

    for command in spans.CLI_COMMANDS:
        if command not in main.commands or not callable(main.commands[command].callback):
            missing.append(f"cli {command}")
    assert missing == []


def _names_an_algebra(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "algebra") or (
        isinstance(node, ast.Attribute) and node.attr == "algebra"
    )


def _algebra_comparisons(path: Path) -> list[str]:
    """``file:line`` of each ==, !=, is or is not with an ``algebra`` operand."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)) and (
                _names_an_algebra(left) or _names_an_algebra(right)
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_algebra_module_compares_algebras():
    # every other module asks AlgebraDescriptor.require, so the decision
    # and its message live in one place
    found = [
        hit
        for path in sorted((ROOT / "src" / "contextqm").glob("*.py"))
        if path.name != "algebra.py"
        for hit in _algebra_comparisons(path)
    ]
    assert found == []


def _scipy_imports(path: Path) -> list[str]:
    """``file:line`` of each import of scipy or of one of its modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_scipy_is_neither_imported_nor_a_runtime_dependency():
    # scipy serves only the tests' oracles: the package runs on numpy and click
    found = [
        hit
        for path in sorted((ROOT / "src" / "contextqm").glob("*.py"))
        for hit in _scipy_imports(path)
    ]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w-]+", d)[0] for d in project["dependencies"]] == ["numpy", "click"]


def _squared_magnitudes(path: Path) -> list[str]:
    """``file:function`` of each ``abs(...) ** 2``, named by the innermost
    function that holds it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
            and isinstance(node.left, ast.Call)
            and "abs" in (getattr(node.left.func, n, None) for n in ("attr", "id"))
        ):
            continue
        holders = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
        name = max(holders, key=lambda f: f.lineno).name if holders else "<module>"
        found.append(f"{path.name}:{name}")
    return found


def test_only_born_weights_squares_a_magnitude():
    # lazy layers, ensembles and overlap components share one Born rule
    found = [
        hit
        for path in sorted((ROOT / "src" / "contextqm").glob("*.py"))
        for hit in _squared_magnitudes(path)
    ]
    assert found == ["states.py:born_weights"]


def _defaulted_parameters(path: Path) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` of each defaulted parameter of a
    ``def``, ``__init__`` aside.  The position is the parameter's index
    among the arguments a call writes, so a method's ``self`` is not
    counted; it is ``None`` for a keyword-only parameter."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {
        id(func)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for func in cls.body
        if isinstance(func, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
    }
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "__init__":
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        skip = 1 if id(func) in methods else 0
        found += [(func.name, arg.arg, k - skip) for k, arg in enumerate(positional) if k >= first]
        found += [
            (func.name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def _calls_by_name(sources: list[str]) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    by_keyword = any(kw.arg in (parameter, None) for kw in call.keywords)  # None: **kwargs
    by_position = position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )
    return by_keyword or by_position


def _defaults_where(passed_by) -> list[str]:
    """``file:function(parameter=...)`` of each defaulted parameter for which
    ``passed_by`` holds.  It gets one bool per call in the README, ``src``,
    tests and perfbench: whether that call passes the parameter."""
    sources = _readme_python_blocks() + [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    calls = _calls_by_name(sources)
    return [
        f"{path.name}:{function}({parameter}=...)"
        for path in sorted((ROOT / "src" / "contextqm").glob("*.py"))
        for function, parameter, position in _defaulted_parameters(path)
        if passed_by([_passes(call, parameter, position) for call in calls.get(function, ())])
    ]


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is an option no caller needs; drop it
    assert _defaults_where(lambda passed: not any(passed)) == []


def test_no_default_is_overridden_by_every_call():
    # a default that every call overrides is a value no caller takes: the
    # parameter is required
    assert _defaults_where(lambda passed: passed and all(passed)) == []


def _attributes(path: Path) -> tuple[set[str], set[str]]:
    """The names stored as ``self.<name> = ...`` and the names read as
    ``.<name>`` in one source file."""
    stored, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        if not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node.value, ast.Name) and node.value.id == "self":
            stored.add(node.attr)
    return stored, read


def test_every_stored_attribute_is_read():
    # a value that a class stores and no module of the package reads is
    # work done for nobody: drop it, or read it
    stored, read = {}, set()
    for path in sorted((ROOT / "src" / "contextqm").glob("*.py")):
        stored[path.name], names = _attributes(path)
        read |= names
    unread = [
        f"{module}:{name}" for module, names in stored.items() for name in sorted(names - read)
    ]
    assert unread == []
