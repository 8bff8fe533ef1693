"""Command-line interface.

    puiseux run <file> [--max-terms K] [--max-branches B]
                       [--no-positive-only] [--json|--plain]
    puiseux check <file> <solution-file>

Exit codes: 0 success with at least one solution, 2 no solutions
(diagnostics are still emitted), 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .expansion import BranchBudgetExceeded, MonotonicityError, expand, verify_residual
from .problem import (
    ProblemError,
    coords_from_obj,
    format_plain,
    parse_problem,
    run_document,
    val_obj,
    val_str,
)
from .solver import BudgetExceeded


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` leaves the parser unchanged and returns a fresh namespace,
    so one parser serves every ``main`` call and no flag carries over.
    """
    p = argparse.ArgumentParser(
        prog="puiseux",
        description="Compute Puiseux series solutions of polynomial systems, term by term.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="expand a problem file and print the solutions")
    run_p.add_argument("file", help="problem file")
    run_p.add_argument("--max-terms", type=int, default=None, metavar="K")
    run_p.add_argument("--max-branches", type=int, default=None, metavar="B")
    run_p.add_argument(
        "--no-positive-only",
        action="store_true",
        help="allow nonpositive first-term weights",
    )
    fmt = run_p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable output")
    fmt.add_argument("--plain", action="store_true", help="human-readable output (default)")

    check_p = sub.add_parser("check", help="re-verify a solution file against a problem")
    check_p.add_argument("file", help="problem file")
    check_p.add_argument("solution_file", help="JSON document produced by `puiseux run --json`")
    return p


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print("puiseux: cannot read %s: %s" % (path, e.strerror), file=sys.stderr)
        return None
    try:
        return parse_problem(text)
    except ProblemError as e:
        print("puiseux: %s: %s" % (path, e), file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    spec = _load_problem(args.file)
    if spec is None:
        return 1
    opts = spec.options
    if args.max_terms is not None:
        opts = replace(opts, max_terms=args.max_terms)
    if args.max_branches is not None:
        opts = replace(opts, max_branches=args.max_branches)
    if args.no_positive_only:
        opts = replace(opts, positive_only=False)
    try:
        result = expand(spec.gens, spec.weights, opts)
    except (BranchBudgetExceeded, BudgetExceeded, MonotonicityError) as e:
        print("puiseux: %s" % e, file=sys.stderr)
        return 1
    doc = run_document(spec, result, opts)
    if args.json:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(format_plain(doc))
    return 0 if result.solutions else 2


def _cmd_check(args) -> int:
    spec = _load_problem(args.file)
    if spec is None:
        return 1
    try:
        with open(args.solution_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        print(
            "puiseux: cannot read %s: %s" % (args.solution_file, e.strerror),
            file=sys.stderr,
        )
        return 1
    except json.JSONDecodeError as e:
        print("puiseux: %s: invalid JSON: %s" % (args.solution_file, e), file=sys.stderr)
        return 1
    sols = doc.get("solutions", [])
    if not isinstance(sols, list):
        print("puiseux: %s: malformed solution document" % args.solution_file, file=sys.stderr)
        return 1
    for idx, obj in enumerate(sols, start=1):
        try:
            coords = coords_from_obj(obj, spec.nx, spec.ny)
        except (KeyError, ValueError) as e:
            print("puiseux: solution %d is malformed: %s" % (idx, e), file=sys.stderr)
            return 1
        residual = verify_residual(spec.gens, coords, spec.weights)
        text = "infinity" if residual is None else val_str(val_obj(residual))
        sys.stdout.write("solution %d: residual order %s\n" % (idx, text))
    if not sols:
        sys.stdout.write("no solutions in file\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_check(args)


def console_main():  # pragma: no cover
    raise SystemExit(main())
