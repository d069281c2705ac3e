"""Every module of the package uses each name it imports.

``__init__`` is skipped (its imports are the package's re-exports), and so
are ``from __future__`` imports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lftlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused(tree: ast.Module) -> list[str]:
    """Each name an import binds and no expression reads, with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = _unused(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Iterable, Optional\n"
    tree = ast.parse(source + "x: Optional[int] = os.sep\n")
    assert _unused(tree) == ["Iterable (line 3)"]
