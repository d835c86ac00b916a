"""No public name in src/ exists only for the tests, no dataclass field
in src/ is left unread, no defaulted parameter in src/ is left at its
default by every other caller, no src/ module imports a name it never
uses, every Python file of the project parses as Python 3.10, the
requires-python floor, and importing the CLI loads no module but lagsurf's.

A public function, class or constant must be the console-script entry
point, or be used by other src/ code or by demos/ or bench/: loaded as a
name, read as an attribute, or imported.  Being in ``lagsurf.__all__`` does
not count, and neither does the re-export in ``__init__``.  A public method
or property of a src/ class must be read as an attribute by src/ code;
being on an exported class does not count.  A reference inside the name's
own definition (recursion) does not count.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lagsurf"
# the code outside src/ whose use keeps a src/ name or parameter
USERS = (ROOT / "demos", ROOT / "bench")
CALLERS = (SRC,) + USERS


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
    """module.name for every public definition that nothing outside it in
    src/ (``__init__`` aside), demos/ or bench/ uses."""
    definitions = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt)
            if path.stem != "__init__":
                used.update(_referenced(stmt) - set(own))
            definitions += [(path.stem, name) for name in own
                            if not name.startswith("_")]
    for folder in USERS:
        for path in sorted(folder.glob("*.py")):
            used.update(_referenced(ast.parse(path.read_text(
                encoding="utf-8"))))
    allowed = used | {_entry_point()}
    return [f"{module}.{name}" for module, name in definitions
            if name not in allowed]


def test_no_test_only_code_in_src():
    assert unused_public_names() == []


def unused_imports() -> list[str]:
    """module.name for every name a src/ module imports and never loads.
    The re-exports of ``__init__`` and ``__future__`` imports are exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0]
                             for alias in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [alias.asname or alias.name
                             for alias in node.names]
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in imported
                   if name not in loaded]
    return unused


def test_no_unused_imports_in_src():
    assert unused_imports() == []


def _attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def unused_public_members() -> list[str]:
    """module.Class.name for every public method or property that no src/
    code outside its own definition reads as an attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if (isinstance(member, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                        and not member.name.startswith("_")
                        and reads[member.name]
                        == _attribute_reads(member)[member.name]):
                    unused.append(f"{module}.{cls.name}.{member.name}")
    return unused


def test_no_test_only_methods_in_src():
    assert unused_public_members() == []


# ---------------------------------------------------------------------------
# no dataclass field that nothing reads


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(node, "id", getattr(node, "attr", None)) == "dataclass":
            return True
    return False


def _type_name(annotation) -> str | None:
    if isinstance(annotation, ast.Constant):
        return annotation.value
    return getattr(annotation, "id", getattr(annotation, "attr", None))


def _field_reads(node, scope: dict, attrs: set, fields_of: list) -> None:
    """Collect the attribute names ``node`` reads (``x.name`` or
    ``getattr(x, "name")``) and, for each ``dataclasses.fields(x)`` call,
    the class of x: x itself, or the annotation of the parameter x."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        scope = scope | {a.arg: _type_name(a.annotation) for a in params}
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        attrs.add(node.attr)
    if isinstance(node, ast.Call) and node.args:
        called = getattr(node.func, "id", getattr(node.func, "attr", None))
        first = node.args[0]
        if (called == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            attrs.add(node.args[1].value)
        elif called == "fields" and isinstance(first, ast.Name):
            fields_of.append((scope.get(first.id) or first.id, node.lineno))
    for child in ast.iter_child_nodes(node):
        _field_reads(child, scope, attrs, fields_of)


def unread_dataclass_fields() -> list[str]:
    """module.Class.field for every field of a src/ dataclass that no code
    in src/, demos/ or bench/ reads, as an attribute or through
    ``dataclasses.fields``; and path:line for a ``fields`` call whose
    class is neither named nor the annotation of the parameter passed."""
    declared = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                declared[cls.name] = [
                    (f"{path.stem}.{cls.name}.{stmt.target.id}",
                     stmt.target.id)
                    for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)]
    attrs, unknown, through_fields = set(), [], set()
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            fields_of = []
            _field_reads(ast.parse(path.read_text(encoding="utf-8")), {},
                         attrs, fields_of)
            for cls, line in fields_of:
                if cls in declared:
                    through_fields.add(cls)
                else:
                    unknown.append(f"{path.relative_to(ROOT)}:{line}")
    return unknown + [label for cls, members in declared.items()
                      if cls not in through_fields
                      for label, name in members if name not in attrs]


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []


# ---------------------------------------------------------------------------
# no defaulted parameter that no caller sets


def _defaulted(func, method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter with a default."""
    positional = [a.arg for a in func.args.posonlyargs + func.args.args]
    if method:
        positional = positional[1:]  # self or cls, never passed explicitly
    out = [(name, i) for i, name in enumerate(positional)
           if i >= len(positional) - len(func.args.defaults)]
    out += [(a.arg, None) for a, d in zip(func.args.kwonlyargs,
                                          func.args.kw_defaults)
            if d is not None]
    return out


def _src_defaults():
    """(label, callable name, parameter, positional index, definition)
    over src/; the definition is (path, line) of the function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = {id(f): cls for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = classes.get(id(func))
            if cls is None:
                called = label = func.name
            elif func.name == "__init__":
                called = label = cls.name
            else:
                called, label = func.name, f"{cls.name}.{func.name}"
            for name, index in _defaulted(func, cls is not None):
                found.append((f"{label}.{name}", called, name, index,
                              (path, func.lineno)))
    return found


def _collect(node, path, owners, calls) -> None:
    """Record each call under ``node`` with the (path, line) of every
    function definition it sits inside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owners = owners | {(path, node.lineno)}
    if isinstance(node, ast.Call):
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        calls.setdefault(name, []).append((node, owners))
    for child in ast.iter_child_nodes(node):
        _collect(child, path, owners, calls)


def _calls() -> dict[str, list[tuple[ast.Call, frozenset]]]:
    """Every call in src/, demos/ and bench/, by the name it calls."""
    calls: dict[str, list[tuple[ast.Call, frozenset]]] = {}
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _collect(tree, path, frozenset(), calls)
    return calls


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def unset_parameters() -> list[str]:
    """Defaulted src/ parameters that no call in src/, demos/ or bench/
    sets, by keyword or by position.  ``__init__`` is called by its class
    name; a call passing ``*args`` or ``**kwargs`` sets every parameter.
    Calls match by name alone, so a same-named callee also counts.  A call
    inside the function's own body (recursion) does not count."""
    calls = _calls()
    return [label for label, called, name, index, where in _src_defaults()
            if not any(_sets(call, name, index)
                       for call, owners in calls.get(called, ())
                       if where not in owners)]


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unset_parameters() == []


# ---------------------------------------------------------------------------
# the requires-python floor

FLOOR = (3, 10)


def too_new_syntax() -> list[str]:
    """path: message for each .py file under src/, tests/, demos/, bench/
    or tools/ that does not parse at the FLOOR grammar."""
    bad = []
    for top in ("src", "tests", "demos", "bench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            try:
                ast.parse(path.read_text(encoding="utf-8"), str(path),
                          feature_version=FLOOR)
            except SyntaxError as exc:
                bad.append(f"{path.relative_to(ROOT)}: {exc.msg}")
    return bad


def test_every_file_parses_at_the_python_floor():
    # the grammar check sees syntax the floor lacks, such as except*
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)
    assert too_new_syntax() == []


# ---------------------------------------------------------------------------
# the import contract

# what the CLI takes from the standard library and numpy, loaded first
PRELOADED = "numpy, argparse, json, ast, dataclasses"
LAGSURF = ("lagsurf", "lagsurf.ambient", "lagsurf.atlas", "lagsurf.catalog",
           "lagsurf.cli", "lagsurf.geom", "lagsurf.numerics", "lagsurf.scans")


def test_importing_the_cli_loads_only_lagsurf_modules():
    # counted, not timed: each module the import adds is start-up work
    # that every command pays
    code = (f"import sys\nimport {PRELOADED}\nbefore = set(sys.modules)\n"
            "import lagsurf.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == sorted(("__future__",) + LAGSURF)
