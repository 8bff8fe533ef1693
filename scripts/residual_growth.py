#!/usr/bin/env python3
"""Print the residual-order growth table for a problem's truncated branches.

    python scripts/residual_growth.py problems/sqrt_factor.txt

For every emitted branch the k-term truncations are substituted back into
the generators and the weighted order of the worst residual is shown; a
strictly increasing column is the term-by-term convergence certificate.
A file that cannot be read or parsed, and a run over its budget, print one
line on stderr and exit 1, as ``puiseux run`` does.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from puiseux import (
    BranchBudgetExceeded,
    BudgetExceeded,
    ProblemError,
    expand,
    parse_problem,
    verify_residual,
)
from puiseux.problem import val_obj, val_str


def _fail(msg: str) -> int:
    print("residual_growth: %s" % msg, file=sys.stderr)
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", type=Path)
    ap.add_argument("--max-terms", type=int, default=None)
    args = ap.parse_args()

    try:
        spec = parse_problem(args.file.read_text(encoding="utf-8"))
    except OSError as e:
        return _fail("cannot read %s: %s" % (args.file, e.strerror))
    except UnicodeDecodeError:
        return _fail("cannot read %s: not UTF-8 text" % args.file)
    except ProblemError as e:
        return _fail("%s: %s" % (args.file, e))
    opts = spec.options
    if args.max_terms is not None:
        try:
            opts = replace(opts, max_terms=args.max_terms)
        except ValueError as e:
            ap.error("--max-terms: %s" % e)
    try:
        result = expand(spec.gens, spec.weights, opts)
    except (BranchBudgetExceeded, BudgetExceeded) as e:
        return _fail(str(e))
    if not result.solutions:
        print("no solutions (see `puiseux run` diagnostics)")
        return 2

    for idx, sol in enumerate(result.solutions, start=1):
        kind = "exact" if sol.exact else "truncated"
        print("branch %d (%s, ramification %d):" % (idx, kind, sol.ramification))
        depth = max((len(c) for c in sol.coords), default=0)
        for k in range(1, depth + 1):
            coords = tuple(c[:k] for c in sol.coords)
            order = verify_residual(spec.gens, coords, spec.weights)
            print("  %d term(s): residual order %s" % (k, val_str(val_obj(order))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
