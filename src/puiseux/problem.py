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
x1^(-2); y-exponents are nonnegative integers.  Each line is tokenized in
one regular-expression pass, and a generator is evaluated straight into a
dict of terms (exponent key to coefficient, ``int`` until a ``p/q`` number
takes part): a single term is raised to a power by scaling its exponents,
and products are multiplied out by the substitution kernel's product
routine (``lpoly._product``).  The ``LPoly`` is built once per generator,
from that dict.  A number ``p/q`` with ``q = 0`` is rejected at its token.

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
from .lpoly import LPoly, _product
from .values import WeightMatrix, canonical


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
# token kind by the group that matched; an operator is its own kind
_KIND = (None, "num", "name", None)


def _tokenize(text: str, line: int):
    """``(kind, text, column)`` per token; kind is "num", "name" or the operator."""
    toks = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        tok = m.group(group)
        if group == 4:
            raise ProblemError(line, m.start() + 1, "unexpected character %r" % tok)
        if group == 1 and "/" in tok and int(tok.partition("/")[2]) == 0:
            raise ProblemError(line, m.start() + 1, "zero denominator in %r" % tok)
        toks.append((_KIND[group] or tok, tok, m.start() + 1))
    return toks


def _rational(text: str) -> int | Fraction:
    """The value of a number token, ``int`` unless it is a non-integral ``p/q``."""
    if "/" not in text:
        return int(text)
    p, q = text.split("/")
    return canonical(Fraction(int(p), int(q)))


class _ExprParser:
    """Recursive-descent evaluator of one generator expression.

    Every value is a term dict mapping an exponent key (the x-exponents, then
    the y-degrees) to its coefficient, an ``int`` until a ``p/q`` number
    takes part.  Zero coefficients may stay in the dict; the caller builds
    the ``LPoly`` once, which drops them.
    """

    def __init__(self, toks, line, atoms, one):
        self.toks = toks
        self.line = line
        self.pos = 0
        self.atoms = atoms  # name -> (exponent key, x index or None)
        self.one = one  # the exponent key of a constant

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, -1)

    def _next(self):
        t = self._peek()
        self.pos += 1
        return t

    def _fail(self, col, msg):
        raise ProblemError(self.line, col if col > 0 else 1, msg)

    def parse(self) -> dict:
        p = self.expr()
        kind, text, col = self._peek()
        if kind is not None:
            self._fail(col, "unexpected %r" % text)
        return p

    def expr(self) -> dict:
        kind = self._peek()[0]
        if kind == "-" or kind == "+":
            self.pos += 1
        p = self.term()
        if kind == "-":
            p = {k: -c for k, c in p.items()}
        while True:
            kind = self._peek()[0]
            if kind != "+" and kind != "-":
                return p
            self.pos += 1
            for k, c in self.term().items():
                if kind == "-":
                    c = -c
                p[k] = p[k] + c if k in p else c

    def term(self) -> dict:
        p = self.factor()
        while self._peek()[0] == "*":
            self.pos += 1
            p = _product(p.items(), self.factor().items())
        return p

    def factor(self) -> dict:
        base, xvar = self.atom()
        if self._peek()[0] != "^":
            return base
        self.pos += 1
        exp, col = self.exponent()
        if type(exp) is int and exp >= 0:
            if len(base) == 1:
                ((key, c),) = base.items()
                return {tuple(e * exp for e in key): c**exp}
            p = {self.one: 1}
            for _ in range(exp):
                p = _product(p.items(), base.items())
            return p
        if xvar is None:
            self._fail(col, "rational or negative exponents need a bare x variable")
        return {tuple(exp if j == xvar else 0 for j in range(len(self.one))): 1}

    def exponent(self) -> tuple[int | Fraction, int]:
        kind, text, col = self._next()
        if kind == "num":
            return _rational(text), col
        if kind == "(":
            kind2, text2, col2 = self._next()
            negative = kind2 == "-"
            if negative:
                kind2, text2, col2 = self._next()
            if kind2 != "num":
                self._fail(col2, "expected a number in the exponent")
            if self._next()[0] != ")":
                self._fail(col2, "unclosed exponent parenthesis")
            exp = _rational(text2)
            return (-exp if negative else exp), col
        self._fail(col, "expected an exponent")

    def atom(self) -> tuple[dict, int | None]:
        kind, text, col = self._next()
        if kind == "num":
            return {self.one: _rational(text)}, None
        if kind == "name":
            if text not in self.atoms:
                self._fail(col, "unknown variable %r" % text)
            key, xvar = self.atoms[text]
            return {key: 1}, xvar
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
    weight_rows: list[tuple[int | Fraction, ...]] = []
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
                    row.append(-_rational(rest[i][1]))
                elif k == "num":
                    row.append(_rational(t))
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

    nx, ny = len(x_names), len(y_names)
    n = nx + ny
    atoms = {
        name: (tuple(int(j == i) for j in range(n)), i if i < nx else None)
        for i, name in enumerate(x_names + y_names)
    }
    one = (0,) * n
    gens = []
    for lineno, toks in gen_lines:
        if not toks:
            raise ProblemError(lineno, 1, "empty generator")
        terms = _ExprParser(toks, lineno, atoms, one).parse()
        poly = LPoly.from_terms(nx, ny, ((c, k[:nx], k[nx:]) for k, c in terms.items()))
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
            str(t.coeff),
            [_exp_str(x_names[i], str(e)) for i, e in enumerate(t.xexp) if e != 0]
            + [_exp_str(y_names[i], str(b)) for i, b in enumerate(t.ydeg) if b != 0],
        )
        for t in f.terms
    )


def val_obj(v: tuple | None):
    return "inf" if v is None else [str(c) for c in v]


def _trace_obj(trace: tuple[StepData, ...]):
    return [
        {
            "eta": [val_obj(v) for v in t.eta],
            "gamma": [val_obj(r) for r in t.gamma],
            "c": [str(c) for c in t.c],
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
                    {"coefficient": str(c), "exponent": [str(e) for e in exp]}
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
            "weights": [[str(e) for e in row] for row in spec.weights.rows],
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
