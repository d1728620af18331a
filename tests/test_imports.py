"""Source hygiene: no module of the package imports a name it never uses, and
every name in a module's `__all__` is bound in that module.

Importing the package and its command line leaves `khoval.r3`, `dataclasses`
and `inspect` unloaded.
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


def undefined_exports(source: str) -> list[str]:
    """Names in `__all__` that no top-level statement of the module binds."""
    bound: set[str] = set()
    exported: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound.add(name.id)
                        if name.id == "__all__":
                            exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_name_it_exports(path):
    assert undefined_exports(path.read_text()) == []


def test_guard_sees_an_export_left_behind():
    source = (
        "from .cube import build_cube\n"
        "PLUS, MINUS = 0, 1\n"
        "LIMIT: int = 16\n"
        "class Movie: ...\n"
        "def eval_movie(m): ...\n"
        "def _sweep(m):\n"
        "    validate_movie = m.validate\n"
        "__all__ = ['build_cube', 'PLUS', 'MINUS', 'LIMIT', 'Movie', 'eval_movie',\n"
        "           'validate_movie']\n"
    )
    assert undefined_exports(source) == ["validate_movie"]


def loaded_after(statement: str, module: str) -> bool:
    """Whether `module` is in `sys.modules` after `statement` runs in a fresh interpreter."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = f"import sys; {statement}; print({module!r} in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return run.stdout.strip() == "True"


def test_importing_the_package_and_cli_leaves_r3_unloaded():
    # `khoval.r3` loads with the first triangle move, so a command without
    # one does not pay its import
    assert not loaded_after("import khoval, khoval.cli", "khoval.r3")


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_importing_the_package_and_cli_loads_no_dataclasses(module):
    # the value types are named tuples: the `dataclasses` -> `inspect` chain
    # and the dataclass-generated methods were half of `import khoval.cli`
    if loaded_after("pass", module):
        pytest.skip(f"this interpreter loads {module} at start-up")
    assert not loaded_after("import khoval, khoval.cli", module)
