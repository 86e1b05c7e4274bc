"""The dependency budget: the package and its benchmark import the standard
library and PyYAML only.

Each ``import`` and ``from ... import`` under ``src/energyde`` and
``perfbench`` (found with ``ast``, at any depth, so an import inside a
function counts too) must name, as its top-level module, one in
``sys.stdlib_module_names``, ``yaml``, ``energyde``, or one of perfbench's
own modules, which its scripts import by file name.  A relative import
stays inside its package.  pytest and hypothesis are for the tests only.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [ROOT / "src" / "energyde", ROOT / "perfbench"]
ALLOWED = (set(sys.stdlib_module_names) | {"yaml", "energyde"}
           | {path.stem for path in (ROOT / "perfbench").glob("*.py")})


def _imported(tree: ast.Module) -> list:
    """(line, top-level module) of each absolute import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_only_the_stdlib_and_pyyaml_are_imported():
    outside = [f"{path.relative_to(ROOT)}:{line}: {module}"
               for root in SOURCES for path in sorted(root.rglob("*.py"))
               for line, module in _imported(ast.parse(path.read_text(encoding="utf-8")))
               if module not in ALLOWED]
    assert not outside


def test_an_import_outside_the_budget_is_found():
    tree = ast.parse("import os.path\nfrom numpy import array\n"
                     "def f():\n    import requests\nfrom . import sparql\n")
    assert [m for _, m in _imported(tree) if m not in ALLOWED] == ["numpy", "requests"]
