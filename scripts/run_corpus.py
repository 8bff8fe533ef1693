#!/usr/bin/env python3
"""Expand every problem file under problems/ and summarize the results.

    python scripts/run_corpus.py                 # one summary line per file
    python scripts/run_corpus.py --json          # dump the full documents
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from puiseux.cli import main as cli_main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="print full documents")
    args = ap.parse_args()

    worst = 0
    for path in sorted(PROBLEMS.glob("*.txt")):
        rc, out = capture(["run", str(path), "--json"])
        worst = max(worst, 0 if rc in (0, 2) else rc)
        if args.json:
            print(out, end="")
            continue
        doc = json.loads(out)
        n_sol = len(doc["solutions"])
        n_dead = len(doc["dead_branches"])
        kinds = ",".join(
            ("exact" if s["exact"] else "trunc") for s in doc["solutions"]
        )
        print(
            "%-24s exit=%d solutions=%d [%s] dead=%d"
            % (path.name, rc, n_sol, kinds, n_dead)
        )
    return worst


if __name__ == "__main__":
    sys.exit(main())
