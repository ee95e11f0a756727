"""Every module of the package reads each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contractor"


def unread_imports(source: str):
    """Names a module imports and no `ast.Name` of it reads; a
    `from __future__` import is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert unread_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport re\nre.compile('x')\n"
    assert unread_imports(source) == [(2, "os")]
