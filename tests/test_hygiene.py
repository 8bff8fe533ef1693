"""Every imported name in the program, tests and scripts is used, every
dataclass field of the program is read somewhere, and every module-level
function and class of the program is referenced somewhere."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for d in ("src", "tests", "scripts")
    for p in (ROOT / d).rglob("*.py")
)
# everything that may read a field of the program
READERS = FILES + sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "perfbench").rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references.

    Names listed in the module's ``__all__`` and ``from __future__``
    imports are exempt.
    """
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        "line %d: %s" % (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_the_scan_covers_every_tree():
    assert {f.split("/")[0] for f in FILES} == {"src", "tests", "scripts"}


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_the_scan_sees_unused_and_exempt_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import gcd, lcm\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "print(lcm, os.sep)\n"
    )
    assert unused_imports(source) == ["line 3: j", "line 4: gcd"]


def _last_name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def record_fields(source: str) -> list[str]:
    """``Class.field`` for every field of a ``@dataclass`` or ``NamedTuple`` class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and (
            any(_last_name(d) == "dataclass" for d in node.decorator_list)
            or any(_last_name(b) == "NamedTuple" for b in node.bases)
        ):
            out += [
                "%s.%s" % (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return out


def attributes_read(source: str) -> set[str]:
    """Names read as attributes (``obj.name`` in load context)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_record_field_is_read():
    read = set().union(*(attributes_read((ROOT / path).read_text()) for path in READERS))
    fields = [
        f for path in FILES if path.startswith("src/") for f in record_fields((ROOT / path).read_text())
    ]
    assert fields
    assert [f for f in fields if f.split(".")[1] not in read] == []


def test_the_field_scan_sees_records_and_reads():
    source = (
        "from dataclasses import dataclass\n"
        "import typing\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class B(typing.NamedTuple):\n"
        "    z: int\n"
        "class C:\n"
        "    w: int\n"
        "a = A(1)\n"
        "a.y = a.x\n"
    )
    assert record_fields(source) == ["A.x", "A.y", "B.z"]
    assert attributes_read(source) == {"NamedTuple", "x"}


def definitions(source: str) -> list[str]:
    """The module-level functions and classes of a module."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def references(source: str) -> set[tuple[str, str | None]]:
    """``(name, enclosing)`` for every name loaded, bare or as an attribute.

    ``enclosing`` is the module-level function or class the reference sits
    in, or None at module level.  Import statements and strings do not count.
    """
    out = set()
    for top in ast.parse(source).body:
        enclosing = (
            top.name
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            else None
        )
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, enclosing))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((node.attr, enclosing))
    return out


def orphans(modules: dict[str, str], exempt=frozenset()) -> list[str]:
    """``path:name`` for every definition in ``modules`` (path -> source) that
    no module references outside the definition itself."""
    refs = {path: references(source) for path, source in modules.items()}
    return [
        "%s:%s" % (path, name)
        for path, source in modules.items()
        for name in definitions(source)
        if (path, name) not in exempt
        and not any(
            ref == name and (other != path or enclosing != name)
            for other, found in refs.items()
            for ref, enclosing in found
        )
    ]


def entry_points() -> set[tuple[str, str]]:
    """``(path, function)`` of every ``[project.scripts]`` entry point."""
    table = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    return {
        ("src/" + module.replace(".", "/") + ".py", func)
        for module, func in re.findall(r'^\S+\s*=\s*"([\w.]+):(\w+)"', table, re.M)
    }


def test_every_definition_is_referenced():
    modules = {path: (ROOT / path).read_text() for path in READERS}
    exempt = entry_points()
    assert exempt and all(path in modules for path, _ in exempt)
    found = [o for o in orphans(modules, exempt) if o.startswith("src/")]
    assert found == []


def test_the_definition_scan_sees_orphans_and_references():
    modules = {
        "a.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Main:\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n"
        ),
        "b.py": (
            "from a import recursive\n"
            "import a\n"
            "X = used()\n"
            "Y = a.by_attribute\n"
            "__all__ = ['recursive']\n"
        ),
    }
    assert orphans(modules) == ["a.py:recursive", "a.py:Main"]
    assert orphans(modules, {("a.py", "Main")}) == ["a.py:recursive"]
