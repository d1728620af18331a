"""Source hygiene: no module of the package imports a name it never uses.

Importing the package and its command line leaves `khoval.r3` unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "khoval"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; a name in `__all__` counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .cube import Piece as P, apply_pieces, build_cube\n"
        "__all__ = ['build_cube']\n"
        "def f(x: P):\n"
        "    from .r3 import triangle_map\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: apply_pieces", "line 6: triangle_map"]


def test_importing_the_package_and_cli_leaves_r3_unloaded():
    # `khoval.r3` loads with the first triangle move, so a command without
    # one does not pay its import
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, khoval, khoval.cli; print('khoval.r3' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert run.stdout.strip() == "False"
