#!/usr/bin/env python3
"""Count the code lines of Python files.

    python scripts/code_lines.py src/            # one line per file, then the total
    python scripts/code_lines.py a.py b.py

A code line is a line that holds part of a token other than a comment, and
that lies outside every module, class and function docstring.  Blank lines,
comment-only lines and docstring lines are not counted; every line of a
statement that spans several lines is, as is every line of a string literal
that is not a docstring.  A directory stands for the ``*.py`` files below it.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the module, class and function docstrings span."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of one module's source (see the module docstring)."""
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    lines = source.splitlines()
    return sum(1 for r in rows - docstring_lines(source) if lines[r - 1].strip())


def python_files(paths: list[str]) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="+", help="Python files or directories")
    args = ap.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        print("%6d %s" % (n, path))
    print("%6d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
