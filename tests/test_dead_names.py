"""Every name that ``src/energyde`` defines is used.

Each function, class and constant defined at module level in
``src/energyde``, and each function defined in a class body (found with
``ast``), must be named somewhere in ``src/`` or ``perfbench/`` outside
the lines of its own definition.  Any mention counts, code or prose:
``parse_ntriples`` is named only in comments and docstrings, as the
inverse that ``serialize_ntriples`` promises.  Tests do not count: a name
that only a test reads is dead code the test keeps alive.  Dunder names
such as ``__all__`` or ``__post_init__`` are the language's, not the
project's.

Each name an import in a ``src/energyde`` module binds must be read in that
module's code: an import that nothing reads is left over from code that
went.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "energyde"
READERS = [ROOT / "src", ROOT / "perfbench"]
WORD = re.compile(r"\w+")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_level(tree: ast.Module) -> list:
    """(name, definition) of each module-level function, class and
    constant."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
            found.append((stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [(node.id, stmt) for target in targets
                      for node in ast.walk(target) if isinstance(node, ast.Name)]
    return found


def _methods(tree: ast.Module) -> list:
    """(name, definition) of each function defined in a class body, at any
    depth."""
    return [(stmt.name, stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, FUNCTIONS)]


def _dead(defined) -> list:
    """Each name ``defined(tree)`` finds in ``src/energyde`` that nothing
    outside its own definition names."""
    texts = {path: path.read_text(encoding="utf-8")
             for root in READERS for path in sorted(root.rglob("*.py"))}
    words = {path: set(WORD.findall(text)) for path, text in texts.items()}
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = texts[path].splitlines()
        for name, node in defined(ast.parse(texts[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            if name not in WORD.findall(outside) and not any(
                    name in names for other, names in words.items() if other != path):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return dead


def test_every_module_level_name_is_used():
    dead = _dead(_module_level)
    assert not dead, dead


def test_every_method_is_used():
    dead = _dead(_methods)
    assert not dead, dead


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.relative_to(ROOT)}:{stmt.lineno}: {name}"
                           for name in (alias.asname or alias.name.split(".")[0]
                                        for alias in stmt.names)
                           if name not in read]
    assert not unused, unused
