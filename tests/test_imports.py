"""No module imports a name it never reads.

Every module under ``src/raagcc``, ``tests`` and ``scripts`` is parsed
with ``ast``.  A name an import binds counts as read when some ``Name``
node of the module loads it.  The package's ``__init__.py`` re-exports
what it imports, and a ``__future__`` import is a directive, so both are
skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    return sorted(bound - read)


def test_the_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path, json\n"
              "from re import compile as build, escape\n"
              "from string import *\n"
              "def f() -> None:\n"
              "    import sys\n"
              "    return escape(json.dumps(None))\n")
    assert unused_imports(source) == ["build", "os", "sys"]


def test_no_module_imports_a_name_it_never_reads():
    modules = [path for folder in ("src/raagcc", "tests", "scripts")
               for path in sorted((ROOT / folder).glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 20
    found = {str(path.relative_to(ROOT)): names for path in modules
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
