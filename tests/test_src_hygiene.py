"""No public module-level name in src/ exists only for the tests.

A public function, class or constant must be exported in
``lagsurf.__all__``, be the console-script entry point, or be used by
other src/ code: loaded as a name, read as an attribute, or imported.  A
reference inside the name's own definition (recursion) does not count.
"""

from __future__ import annotations

import ast
import pathlib
import re

import lagsurf

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lagsurf"


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _entry_point() -> str:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^lagsurf\s*=\s*"lagsurf\.\w+:(\w+)"', text,
                     re.MULTILINE).group(1)


def unused_public_names() -> list[str]:
    """module.name for every public definition nothing outside it uses."""
    definitions = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt)
            used.update(_referenced(stmt) - set(own))
            definitions += [(path.stem, name) for name in own
                            if not name.startswith("_")]
    allowed = used | set(lagsurf.__all__) | {_entry_point()}
    return [f"{module}.{name}" for module, name in definitions
            if name not in allowed]


def test_no_test_only_code_in_src():
    assert unused_public_names() == []
