"""Problem files, polynomial rendering, and the structured output document.

A problem file is line based:

    # comments run to the end of the line
    vars x1 x2 y1          # names starting with x/y pick the block
    weight 1 0             # one row per line, rational entries
    weight 0 1
    gen y1^2 - x1*x2       # any number of gen lines
    opt max_terms 6        # optional: max_terms, max_branches, positive_only

Generator expressions use + - * ^ and parentheses, with explicit '*'.
Rational or negative x-exponents must be parenthesized, as in x1^(1/2) or
x1^(-2); y-exponents are nonnegative integers.

The structured output is a plain JSON document: rationals are "p/q"
strings, weighted values are arrays of rationals, and infinity is the
string "inf".  Emitting and re-reading a document is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .expansion import (
    DeadBranch,
    ExpandOptions,
    ExpandResult,
    SeriesSolution,
    StepData,
)
from .lpoly import LPoly
from .values import WeightMatrix


class ProblemError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col
        self.msg = msg


@dataclass(frozen=True)
class ProblemSpec:
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    weights: WeightMatrix
    gens: tuple[LPoly, ...]
    options: ExpandOptions

    @property
    def nx(self) -> int:
        return len(self.x_names)

    @property
    def ny(self) -> int:
        return len(self.y_names)


_TOKEN = re.compile(r"(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()])|(\S)")


def _tokenize(text: str, line: int):
    toks = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        num, name, op, bad = m.groups()
        col = pos + 1
        if bad is not None:
            raise ProblemError(line, col, "unexpected character %r" % bad)
        if num is not None:
            toks.append(("num", num, col))
        elif name is not None:
            toks.append(("name", name, col))
        else:
            toks.append((op, op, col))
        pos = m.end()
    return toks


class _ExprParser:
    """Recursive-descent parser building an LPoly from one expression."""

    def __init__(self, toks, line, nx, ny, var_index):
        self.toks = toks
        self.line = line
        self.pos = 0
        self.nx = nx
        self.ny = ny
        self.var_index = var_index  # name -> ("x"|"y", index)

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, -1)

    def _next(self):
        t = self._peek()
        self.pos += 1
        return t

    def _fail(self, col, msg):
        raise ProblemError(self.line, col if col > 0 else 1, msg)

    def parse(self) -> LPoly:
        p = self.expr()
        kind, text, col = self._peek()
        if kind is not None:
            self._fail(col, "unexpected %r" % text)
        return p

    def expr(self) -> LPoly:
        kind, _, _ = self._peek()
        negate = False
        if kind in ("-", "+"):
            negate = kind == "-"
            self._next()
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, _, _ = self._peek()
            if kind == "+":
                self._next()
                p = p + self.term()
            elif kind == "-":
                self._next()
                p = p - self.term()
            else:
                return p

    def term(self) -> LPoly:
        p = self.factor()
        while self._peek()[0] == "*":
            self._next()
            p = p * self.factor()
        return p

    def factor(self) -> LPoly:
        base, xvar = self.atom()
        if self._peek()[0] != "^":
            return base
        _, _, caret_col = self._next()
        exp, col = self.exponent()
        if exp.denominator == 1 and exp >= 0:
            return base ** int(exp)
        if xvar is None:
            self._fail(col, "rational or negative exponents need a bare x variable")
        return LPoly.x_var(self.nx, self.ny, xvar, power=exp)

    def exponent(self) -> tuple[Fraction, int]:
        kind, text, col = self._next()
        if kind == "num":
            return Fraction(text), col
        if kind == "(":
            sign = 1
            kind2, text2, col2 = self._next()
            if kind2 == "-":
                sign = -1
                kind2, text2, col2 = self._next()
            if kind2 != "num":
                self._fail(col2, "expected a number in the exponent")
            if self._next()[0] != ")":
                self._fail(col2, "unclosed exponent parenthesis")
            return sign * Fraction(text2), col
        self._fail(col, "expected an exponent")

    def atom(self) -> tuple[LPoly, int | None]:
        kind, text, col = self._next()
        if kind == "num":
            return LPoly.const(self.nx, self.ny, Fraction(text)), None
        if kind == "name":
            if text not in self.var_index:
                self._fail(col, "unknown variable %r" % text)
            block, idx = self.var_index[text]
            if block == "x":
                return LPoly.x_var(self.nx, self.ny, idx), idx
            return LPoly.y_var(self.nx, self.ny, idx), None
        if kind == "(":
            p = self.expr()
            k2, _, c2 = self._next()
            if k2 != ")":
                self._fail(c2 if c2 > 0 else col, "unclosed parenthesis")
            return p, None
        self._fail(col, "expected a number, variable or parenthesis")


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file; raises ProblemError with line and column."""
    x_names: list[str] = []
    y_names: list[str] = []
    weight_rows: list[tuple[Fraction, ...]] = []
    gen_lines: list[tuple[int, list]] = []
    opts = ExpandOptions()
    first_weight_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokenize(line, lineno)
        kind, word, col = toks[0]
        if kind != "name":
            raise ProblemError(lineno, col, "expected a keyword")
        rest = toks[1:]
        if word == "vars":
            if x_names or y_names:
                raise ProblemError(lineno, col, "duplicate vars line")
            for k, name, c in rest:
                if k != "name":
                    raise ProblemError(lineno, c, "expected a variable name")
                if name in x_names or name in y_names:
                    raise ProblemError(lineno, c, "duplicate variable %r" % name)
                if name.startswith("x"):
                    x_names.append(name)
                elif name.startswith("y"):
                    y_names.append(name)
                else:
                    raise ProblemError(lineno, c, "variable names must start with x or y")
        elif word == "weight":
            if not x_names:
                raise ProblemError(lineno, col, "weight before vars")
            row = []
            i = 0
            while i < len(rest):
                k, t, c = rest[i]
                if k == "-":
                    i += 1
                    if i == len(rest) or rest[i][0] != "num":
                        raise ProblemError(lineno, c, "expected a number after the sign")
                    row.append(-Fraction(rest[i][1]))
                elif k == "num":
                    row.append(Fraction(t))
                else:
                    raise ProblemError(lineno, c, "expected a rational entry")
                i += 1
            if len(row) != len(x_names):
                raise ProblemError(lineno, col, "weight row needs %d entries" % len(x_names))
            if not weight_rows:
                first_weight_line = lineno
            weight_rows.append(tuple(row))
        elif word == "gen":
            if not x_names or not y_names:
                raise ProblemError(lineno, col, "gen before vars")
            gen_lines.append((lineno, rest))
        elif word == "opt":
            if len(rest) != 2 or rest[0][0] != "name":
                raise ProblemError(lineno, col, "expected: opt <name> <value>")
            _, name, c1 = rest[0]
            k2, val, c2 = rest[1]
            if name in ("max_terms", "max_branches"):
                if k2 != "num" or "/" in val:
                    raise ProblemError(lineno, c2, "%s needs a positive integer" % name)
                n = int(val)
                if n < 1:
                    raise ProblemError(lineno, c2, "%s needs a positive integer" % name)
                opts = replace(opts, **{name: n})
            elif name == "positive_only":
                if val not in ("true", "false"):
                    raise ProblemError(lineno, c2, "positive_only is true or false")
                opts = replace(opts, positive_only=val == "true")
            else:
                raise ProblemError(lineno, c1, "unknown option %r" % name)
        else:
            raise ProblemError(lineno, col, "unknown keyword %r" % word)

    if not x_names or not y_names:
        raise ProblemError(1, 1, "need at least one x and one y variable")
    if not weight_rows:
        raise ProblemError(1, 1, "need at least one weight row")
    if not gen_lines:
        raise ProblemError(1, 1, "need at least one generator")
    try:
        W = WeightMatrix(weight_rows)
    except ValueError as e:
        raise ProblemError(first_weight_line, 1, str(e)) from None

    var_index = {name: ("x", i) for i, name in enumerate(x_names)}
    var_index.update({name: ("y", i) for i, name in enumerate(y_names)})
    nx, ny = len(x_names), len(y_names)
    gens = []
    for lineno, toks in gen_lines:
        if not toks:
            raise ProblemError(lineno, 1, "empty generator")
        poly = _ExprParser(toks, lineno, nx, ny, var_index).parse()
        if poly.is_zero:
            raise ProblemError(lineno, 1, "generator is identically zero")
        gens.append(poly)

    return ProblemSpec(
        x_names=tuple(x_names),
        y_names=tuple(y_names),
        weights=W,
        gens=tuple(gens),
        options=opts,
    )


def _exp_str(name: str, e: str) -> str:
    """``name`` raised to the nonzero exponent written ``e`` (a "p/q" string)."""
    if e == "1":
        return name
    if "/" in e or e.startswith("-"):
        return "%s^(%s)" % (name, e)
    return "%s^%s" % (name, e)


def _sum_str(terms) -> str:
    """Signed sum of ``(coefficient string, factor strings)`` pairs, in the given order."""
    out = ""
    for coeff, factors in terms:
        negative = coeff.startswith("-")
        mag = coeff[1:] if negative else coeff
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if out:
            out += (" - " if negative else " + ") + body
        else:
            out = ("-" if negative else "") + body
    return out or "0"


def render_poly(f: LPoly, x_names: Sequence[str], y_names: Sequence[str]) -> str:
    """Canonical, re-parseable text form of a polynomial."""
    return _sum_str(
        (
            rat_str(t.coeff),
            [_exp_str(x_names[i], rat_str(e)) for i, e in enumerate(t.xexp) if e != 0]
            + [_exp_str(y_names[i], str(b)) for i, b in enumerate(t.ydeg) if b != 0],
        )
        for t in f.terms
    )


def rat_str(q: int | Fraction) -> str:
    return str(q)


def val_obj(v: tuple | None):
    return "inf" if v is None else [rat_str(c) for c in v]


def _trace_obj(trace: tuple[StepData, ...]):
    return [
        {
            "eta": [val_obj(v) for v in t.eta],
            "gamma": [val_obj(r) for r in t.gamma],
            "c": [rat_str(c) for c in t.c],
            "dgamma": t.dgamma,
        }
        for t in trace
    ]


def solution_obj(sol: SeriesSolution, y_names: Sequence[str]) -> dict:
    return {
        "exact": sol.exact,
        "ramification": sol.ramification,
        "residual_order": val_obj(sol.residual_order),
        "coordinates": [
            {
                "name": y_names[i],
                "terms": [
                    {"coefficient": rat_str(c), "exponent": [rat_str(e) for e in exp]}
                    for c, exp in sol.coords[i]
                ],
            }
            for i in range(len(y_names))
        ],
        "trace": _trace_obj(sol.trace),
    }


def coords_from_obj(obj: dict, nx: int, ny: int):
    """Rebuild per-coordinate term lists from a solution object."""
    coords = []
    for entry in obj["coordinates"]:
        terms = []
        for t in entry["terms"]:
            exp = tuple(Fraction(e) for e in t["exponent"])
            if len(exp) != nx:
                raise ValueError("solution exponent arity does not match the problem")
            terms.append((Fraction(t["coefficient"]), exp))
        coords.append(tuple(terms))
    if len(coords) != ny:
        raise ValueError("solution coordinate count does not match the problem")
    return tuple(coords)


def _dead_obj(d: DeadBranch) -> dict:
    return {
        "step": d.step,
        "reason": d.reason,
        "candidates": d.candidates,
        "rejected_increase": d.rejected_increase,
        "underdetermined": d.underdetermined,
        "irrational_roots_detected": d.irrational_roots_detected,
        "nonzero_dimensional": d.nonzero_dimensional,
        "trace": _trace_obj(d.trace),
    }


def run_document(spec: ProblemSpec, result: ExpandResult, opts: ExpandOptions) -> dict:
    return {
        "problem": {
            "x_vars": list(spec.x_names),
            "y_vars": list(spec.y_names),
            "weights": [[rat_str(e) for e in row] for row in spec.weights.rows],
            "generators": [render_poly(g, spec.x_names, spec.y_names) for g in spec.gens],
        },
        "options": {
            "max_terms": opts.max_terms,
            "max_branches": opts.max_branches,
            "positive_only": opts.positive_only,
        },
        "status": "ok" if result.solutions else "no-solutions",
        "solutions": [solution_obj(s, spec.y_names) for s in result.solutions],
        "dead_branches": [_dead_obj(d) for d in result.dead_branches],
        "notes": {
            "irrational_roots_detected": result.irrational_roots_detected,
            "underdetermined_ties": result.underdetermined_seen,
        },
    }


def _series_str(entry: dict, x_names: Sequence[str]) -> str:
    return _sum_str(
        (
            t["coefficient"],
            [_exp_str(x_names[i], e) for i, e in enumerate(t["exponent"]) if e != "0"],
        )
        for t in entry["terms"]
    )


def val_str(v) -> str:
    """Plain text of a value object: ``inf`` or a parenthesized tuple."""
    return v if v == "inf" else "(" + ", ".join(v) + ")"


def format_plain(doc: dict) -> str:
    """Human-readable rendering of a run document (same content as the JSON)."""
    lines = []
    prob = doc["problem"]
    lines.append(
        "problem: %d x-variable(s), %d y-variable(s), %d generator(s)"
        % (len(prob["x_vars"]), len(prob["y_vars"]), len(prob["generators"]))
    )
    for g in prob["generators"]:
        lines.append("  gen %s" % g)
    o = doc["options"]
    lines.append(
        "options: max_terms=%d max_branches=%d positive_only=%s"
        % (o["max_terms"], o["max_branches"], str(o["positive_only"]).lower())
    )
    lines.append("status: %s" % doc["status"])
    for idx, sol in enumerate(doc["solutions"], start=1):
        kind = "exact" if sol["exact"] else "truncated"
        lines.append(
            "solution %d: %s, ramification %d, residual order %s"
            % (idx, kind, sol["ramification"], val_str(sol["residual_order"]))
        )
        for entry in sol["coordinates"]:
            lines.append("  %s = %s" % (entry["name"], _series_str(entry, prob["x_vars"])))
        for step, t in enumerate(sol["trace"]):
            lines.append(
                "  step %d: eta=[%s] c=[%s] dgamma=%d"
                % (
                    step,
                    ", ".join(val_str(v) for v in t["eta"]),
                    ", ".join(t["c"]),
                    t["dgamma"],
                )
            )
    if not doc["solutions"]:
        lines.append("solutions: none")
    for idx, d in enumerate(doc["dead_branches"], start=1):
        lines.append(
            "dead branch %d: step %d, %s (candidates=%d, rejected_increase=%d, "
            "underdetermined=%d, irrational=%s, nonzero_dimensional=%s)"
            % (
                idx,
                d["step"],
                d["reason"],
                d["candidates"],
                d["rejected_increase"],
                d["underdetermined"],
                str(d["irrational_roots_detected"]).lower(),
                str(d["nonzero_dimensional"]).lower(),
            )
        )
    notes = doc["notes"]
    lines.append(
        "notes: irrational_roots_detected=%s underdetermined_ties=%s"
        % (
            str(notes["irrational_roots_detected"]).lower(),
            str(notes["underdetermined_ties"]).lower(),
        )
    )
    return "\n".join(lines) + "\n"
