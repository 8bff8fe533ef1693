"""Every imported name in the program, tests and scripts is used, every
dataclass field of the program is read somewhere, and every function, class
and method of the program is referenced by the program itself."""

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


def exported_names(source: str) -> set[str]:
    """The names listed in a module's ``__all__``."""
    return {
        name
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references.

    Names listed in the module's ``__all__`` and ``from __future__``
    imports are exempt.
    """
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    exported = exported_names(source)
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


def imported_modules(source: str) -> set[str]:
    """Every module name component that the module's import statements name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            if node.module is None:  # from . import name
                out.update(alias.name for alias in node.names)
    return out - {""}


def test_solver_imports_nothing_from_lpoly():
    """The solver reads the initial systems as plain dicts."""
    assert "lpoly" not in imported_modules((ROOT / "src/puiseux/solver.py").read_text())


def test_the_import_scan_sees_relative_imports():
    source = "import os.path\nfrom .lpoly import LPoly\nfrom . import values\n"
    assert imported_modules(source) == {"os", "path", "lpoly", "values"}


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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions_and_references(source: str):
    """The definitions of a module and the names it loads.

    The definitions are ``(qualified name, method)`` for every function,
    class and method, nested ones included: the qualified name is a tuple,
    and ``method`` tells whether the definition sits directly in a class
    body.  The references are ``(name, enclosing, attribute)`` for every
    name loaded, bare or as an attribute (``attribute`` True), where
    ``enclosing`` is the qualified name of the innermost definition the
    reference sits in, ``()`` at module level.  Import statements and strings
    do not count.
    """
    defs, refs = [], set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                defs.append((qual + (child.name,), isinstance(node, ast.ClassDef)))
                visit(child, qual + (child.name,))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                refs.add((child.id, qual, False))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                refs.add((child.attr, qual, True))
            visit(child, qual)

    visit(ast.parse(source), ())
    return defs, refs


def orphans(modules: dict[str, str], exempt=frozenset()) -> list[str]:
    """``path:qualified.name`` for every definition in ``modules`` (path ->
    source) that no module references outside the definition itself.

    A method is referenced only through attribute access (``obj.name``,
    ``Class.name``): a bare name, such as a local variable that shares the
    method's name, does not count.  Dunder names and the names in
    ``exempt`` are not reported.
    """
    scans = {path: definitions_and_references(source) for path, source in modules.items()}
    out = []
    for path, (defs, _) in scans.items():
        for qual, method in defs:
            name = qual[-1]
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(
                ref == name
                and (attribute or not method)
                and (other != path or enclosing[: len(qual)] != qual)
                for other, (_, refs) in scans.items()
                for ref, enclosing, attribute in refs
            ):
                out.append("%s:%s" % (path, ".".join(qual)))
    return out


def entry_points() -> set[tuple[str, str]]:
    """``(path, function)`` of every ``[project.scripts]`` entry point."""
    table = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    return {
        ("src/" + module.replace(".", "/") + ".py", func)
        for module, func in re.findall(r'^\S+\s*=\s*"([\w.]+):(\w+)"', table, re.M)
    }


def test_every_definition_is_referenced():
    """Every function, class and method of the program is used by the program:
    the package's ``__all__`` and the entry points are its only roots."""
    modules = {path: (ROOT / path).read_text() for path in FILES if path.startswith("src/")}
    entry = entry_points()
    assert entry and all(path in modules for path, _ in entry)
    exempt = exported_names(modules["src/puiseux/__init__.py"]) | {func for _, func in entry}
    assert "expand" in exempt
    assert orphans(modules, exempt) == []


def test_the_definition_scan_sees_orphans_and_references():
    modules = {
        "a.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Main:\n"
            "    def __init__(self):\n"
            "        self.helper()\n"
            "    def helper(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            "        def inner():\n"
            "            return 1\n"
            "        return inner()\n"
            "    def again(self):\n"
            "        return self.again()\n"
            "def by_attribute():\n"
            "    pass\n"
            "class Poly:\n"
            "    def zero(self):\n"
            "        pass\n"
            "    def one(self):\n"
            "        pass\n"
            "def shadow():\n"
            "    zero = Poly().one()\n"
            "    return zero\n"
        ),
        "b.py": (
            "from a import recursive\n"
            "import a\n"
            "X = used()\n"
            "Y = a.by_attribute\n"
            "__all__ = ['recursive']\n"
        ),
    }
    everything = [
        "a.py:recursive",
        "a.py:Main",
        "a.py:Main.unused",
        "a.py:Main.again",
        "a.py:Poly.zero",
        "a.py:shadow",
    ]
    assert orphans(modules) == everything
    assert orphans(modules, exported_names(modules["b.py"]) | {"Main", "shadow"}) == [
        "a.py:Main.unused",
        "a.py:Main.again",
        "a.py:Poly.zero",
    ]
