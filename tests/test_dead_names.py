"""Every module-level name that ``src/energyde`` defines is used.

Each function, class and constant defined at module level in
``src/energyde`` (found with ``ast``) must be named somewhere in ``src/``
or ``perfbench/`` outside the lines of its own definition.  Any mention
counts, code or prose: ``parse_ntriples`` is named only in comments and
docstrings, as the inverse that ``serialize_ntriples`` promises.  Tests do
not count: a name that only a test reads is dead code the test keeps
alive.  Dunder names such as ``__all__`` are the language's, not the
project's.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "energyde"
READERS = [ROOT / "src", ROOT / "perfbench"]
WORD = re.compile(r"\w+")


def _defined(tree: ast.Module) -> list:
    """(name, first line, last line) of each module-level function, class
    and constant."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        found += [(name, stmt.lineno, stmt.end_lineno) for name in names
                  if not (name.startswith("__") and name.endswith("__"))]
    return found


def test_every_module_level_name_is_used():
    texts = {path: path.read_text(encoding="utf-8")
             for root in READERS for path in sorted(root.rglob("*.py"))}
    words = {path: set(WORD.findall(text)) for path, text in texts.items()}
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = texts[path].splitlines()
        for name, first, last in _defined(ast.parse(texts[path])):
            outside = "\n".join(lines[:first - 1] + lines[last:])
            if name not in WORD.findall(outside) and not any(
                    name in names for other, names in words.items() if other != path):
                dead.append(f"{path.relative_to(ROOT)}: {name}")
    assert not dead, dead
