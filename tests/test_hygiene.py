"""Every imported name in the program, tests and scripts is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for d in ("src", "tests", "scripts")
    for p in (ROOT / d).rglob("*.py")
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
