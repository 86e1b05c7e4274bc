"""The benchmark's tracing wrappers name energyde attributes.

``perfbench/instrument.py`` wraps functions with ``tracer.wrap(module,
"name", span)``, and reads others, such as ``node.handle``, to patch them by
hand; a rename in ``src/`` would only show when the benchmark runs.  These
tests read the file with ``ast`` (they import nothing from ``perfbench/``)
and check that every wrapped or read attribute exists.
"""

import ast
import importlib
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"


def _imported_modules(tree: ast.Module) -> dict:
    """Local name -> module, for the energyde modules the file imports."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("energyde"):
            for alias in stmt.names:
                qualified = f"{stmt.module}.{alias.name}"
                try:
                    names[alias.asname or alias.name] = importlib.import_module(qualified)
                except ModuleNotFoundError:
                    pass            # a function or constant, not a module
    return names


def _resolve(node: ast.expr, modules: dict):
    """The object a ``module`` or ``module.Class`` expression names."""
    if isinstance(node, ast.Name):
        return modules[node.id]
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(_resolve(node.value, modules), node.attr)


def _wrap_calls(tree: ast.Module) -> list:
    return [call for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "wrap"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "tracer"]


def test_every_wrapped_attribute_exists():
    tree = ast.parse(INSTRUMENT.read_text(encoding="utf-8"))
    modules = _imported_modules(tree)
    calls = _wrap_calls(tree)
    assert len(calls) >= 10, "expected the benchmark's tracer.wrap calls"
    missing = []
    for call in calls:
        owner, name = call.args[0], call.args[1]
        assert isinstance(name, ast.Constant) and isinstance(name.value, str)
        if not hasattr(_resolve(owner, modules), name.value):
            missing.append(f"line {call.lineno}: {ast.unparse(owner)}.{name.value}")
    assert not missing, missing


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def test_every_read_attribute_exists():
    tree = ast.parse(INSTRUMENT.read_text(encoding="utf-8"))
    modules = _imported_modules(tree)
    # reads only: an assignment to a module attribute replaces it
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and isinstance(_root(node), ast.Name) and _root(node).id in modules]
    names = {ast.unparse(node) for node in reads}
    assert {"rdf.Graph.match", "node.handle", "node.recv_frame",
            "framing.encode_frame"} <= names, names
    missing = []
    for node in reads:
        try:
            _resolve(node, modules)
        except AttributeError:
            missing.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not missing, missing
