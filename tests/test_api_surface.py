"""No dead API: every public module-level name in the package is used.

A public function or class defined at module level in src/bohmlab/*.py
(other than __init__.py) must be named somewhere outside its own
definition: in another module of the package, elsewhere in its own
module, or in a demo.  Re-exports in __init__.py do not count, since a
name that only __init__ lists is still run by no task, criterion or demo.
Methods are out of scope.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "bohmlab").glob("*.py")
                 if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _public_definitions(source):
    """(name, first line, last line) of each public top-level def or class."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _unreferenced():
    sources = {p: p.read_text() for p in MODULES + DEMOS}
    dead = []
    for module in MODULES:
        lines = sources[module].splitlines()
        for name, first, last in _public_definitions(sources[module]):
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            own_rest = "\n".join(lines[:first - 1] + lines[last:])
            others = (text for path, text in sources.items() if path != module)
            if not any(pattern.search(text) for text in (own_rest, *others)):
                dead.append(f"{module.stem}.{name}")
    return dead


def test_modules_found():
    assert MODULES and DEMOS  # an empty glob would pass vacuously


def test_every_public_name_is_used():
    assert _unreferenced() == []
