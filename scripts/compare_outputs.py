#!/usr/bin/env python3
"""Check that two source checkouts print the same bytes on the problem corpus.

    python scripts/compare_outputs.py PARENT CHANGE [--problem FILE ...]

For each checkout one fresh interpreter, with that checkout's ``src/`` as
its only ``PYTHONPATH``, runs ``puiseux run`` on every problem file at
``--max-terms`` 3, 6, 10 and 16, once with ``--json`` and once with
``--plain``, and then ``puiseux check`` on each JSON document that a run
printed.  The calls go through ``puiseux.cli.main`` in that one process
(``main`` builds each call's options afresh).  A run is recorded as its
arguments, exit code, stdout and stderr.  In all of these a problem's path
is replaced by ``<problems>/`` and its file name, and the path of the
temporary solution file by ``<solution>``, so the digest does not depend on
where the checkout or the problems live.

Both checkouts read the same inputs: the ``problems/*.txt`` of PARENT, or
the files given with ``--problem``.  The report prints one sha256 over all
runs per checkout and, when the digests differ, the first run that differs.
The exit code is 0 when they are equal and 1 when not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

MAX_TERMS = (3, 6, 10, 16)
FORMATS = ("--json", "--plain")

# Runs in the checkout's interpreter: reads the problem paths as JSON on
# stdin and prints the list of runs as JSON.
CHILD = r"""
import io, json, os, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout
import puiseux
from puiseux.cli import main

def hide(text, subs):
    for old, new in subs:
        text = text.replace(old, new)
    return text

def call(argv, subs):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [[hide(a, subs) for a in argv], code, hide(out.getvalue(), subs), hide(err.getvalue(), subs)]

problems, max_terms, formats = json.load(sys.stdin)
runs = []
with tempfile.TemporaryDirectory() as tmp:
    sol = os.path.join(tmp, "solution.json")
    for path in problems:
        subs = [(path, "<problems>/" + os.path.basename(path)), (sol, "<solution>")]
        for k in max_terms:
            for fmt in formats:
                run = call(["run", path, "--max-terms", str(k), fmt], subs)
                runs.append(run)
                if fmt == "--json" and run[2]:
                    with open(sol, "w", encoding="utf-8") as fh:
                        fh.write(run[2])
                    runs.append(call(["check", path, sol], subs))
json.dump({"package": puiseux.__file__, "runs": runs}, sys.stdout)
"""


def run_checkout(checkout: Path, problems: list[str]) -> list:
    """Every run of the corpus in one fresh interpreter on ``checkout``'s sources."""
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps([problems, MAX_TERMS, FORMATS]),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    out = json.loads(done.stdout)
    if not Path(out["package"]).resolve().is_relative_to(src):
        raise RuntimeError("%s imported puiseux from %s" % (checkout, out["package"]))
    return out["runs"]


def digest(runs: list) -> str:
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def first_difference(a: list, b: list) -> str | None:
    """The first run that differs, described; None when the runs are equal."""
    for ra, rb in zip(a, b):
        if ra != rb:
            parts = [name for name, x, y in zip(("arguments", "exit code", "stdout", "stderr"), ra, rb) if x != y]
            return "puiseux %s: %s differs" % (" ".join(map(str, ra[0])), ", ".join(parts))
    if len(a) != len(b):
        return "run counts differ: %d and %d" % (len(a), len(b))
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--problem", type=Path, action="append", help="problem file (repeatable)")
    args = ap.parse_args()

    files = args.problem or sorted((args.parent / "problems").glob("*.txt"))
    if not files:
        ap.error("no problem files")
    problems = [str(p.resolve()) for p in files]
    runs = {}
    for side in ("parent", "change"):
        checkout = getattr(args, side)
        runs[side] = run_checkout(checkout, problems)
        print("%-6s %s  sha256 %s  (%d runs)" % (side, checkout, digest(runs[side]), len(runs[side])))
    diff = first_difference(runs["parent"], runs["change"])
    print("identical" if diff is None else "first difference: %s" % diff)
    return 0 if diff is None else 1


if __name__ == "__main__":
    sys.exit(main())
