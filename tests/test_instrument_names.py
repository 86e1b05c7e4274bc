"""The benchmark's tracing wrappers name energyde attributes.

``perfbench/instrument.py`` wraps functions with ``tracer.wrap(module,
"name", span)``, and reads others, such as ``node.handle``, to patch them by
hand; a rename in ``src/`` would only show when the benchmark runs.  These
tests read the file with ``ast`` (they import nothing from ``perfbench/``)
and check that every wrapped or read attribute exists.  A wrapper only
times what is called through the attribute it replaced, so the last test
checks that the node and the federator still call each traced name.
"""

import ast
import importlib
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

from energyde import federation
from energyde.connector import client, node, provenance

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


# the names perfbench/instrument.py replaces on the node and the client side.
# Left out: rdf.Graph.match, which the node never calls (so the benchmark's
# rdf.match_calls reads 0), and federation.ThreadPoolExecutor, which is only
# stored.  The pipeline's names are checked in test_pipeline.py.
TRACED = [(node, "handle"), (node, "recv_frame"), (node, "send_frame"),
          (node, "parse_query"), (node, "evaluate"), (node, "solutions_to_json"),
          (node, "digest"), (node, "load_graph"), (provenance.ProvenanceLog, "append"),
          (federation, "plan_query"), (federation, "execute_federated"),
          (federation, "hash_join"), (client.NodeClient, "query"),
          (client.NodeClient, "catalog"), (client, "solutions_from_json")]


def test_every_traced_name_is_called(fixture_dir, tmp_path, monkeypatch):
    # a flagship-shaped federated query and one catalog request, over the
    # tso and wiki nodes on loopback TCP
    calls = Counter()
    for owner, name in TRACED:
        def counting(*args, _call=getattr(owner, name),
                     _name=f"{owner.__name__}.{name}", **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    work = tmp_path / "work"
    shutil.copytree(fixture_dir, work)
    servers = {name: node.NodeServer(node.NodeState.from_config(
        node.load_node_config(work / "nodes" / f"{name}.yaml"))).start()
        for name in ("tso", "wiki")}
    try:
        catalog = federation.load_catalog(work / "catalog.yaml")
        catalog.sources = [replace(s, endpoint=servers[s.id].endpoint)
                           for s in catalog.sources]
        answer = federation.federated_query(
            (work / "queries" / "federated.rq").read_text(), catalog)
        assert len(answer) == 1
        assert federation.build_clients(catalog)["tso"].catalog()["id"] == "tso"
    finally:
        for server in servers.values():
            server.stop()
    assert sorted(calls) == sorted(f"{owner.__name__}.{name}" for owner, name in TRACED)
