"""Reference evaluator of generator expressions, built on plain ``Fraction`` arithmetic.

Every number and variable becomes an ``LPoly`` and they are combined with
the ``Fraction`` references of ``tutils`` (``naive_sum``, ``naive_scale``,
``naive_product`` and ``naive_power``), which share no code with the
program's product routine; tokens come from a scan that matches one token
at a time.  ``parse_generator`` is the oracle for the
expression parser of ``puiseux.problem``: on every input it must give the
same polynomial, or raise ``ProblemError`` at the same line and column with
the same message.
"""

from __future__ import annotations

import re
from fractions import Fraction

from puiseux import LPoly, ProblemError
from tutils import const, naive_power, naive_product, naive_scale, naive_sum, x_var, y_var

_TOKEN = re.compile(r"([0-9]+(?:/[0-9]+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()])|(\S)")


def tokenize(text: str, line: int):
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
            if "/" in num and not num.partition("/")[2].strip("0"):
                raise ProblemError(line, col, "zero denominator in %r" % num)
            toks.append(("num", num, col))
        elif name is not None:
            toks.append(("name", name, col))
        else:
            toks.append((op, op, col))
        pos = m.end()
    return toks


class ExprParser:
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
            p = naive_scale(p, -1)
        while True:
            kind, _, _ = self._peek()
            if kind == "+":
                self._next()
                p = naive_sum(p, self.term())
            elif kind == "-":
                self._next()
                p = naive_sum(p, naive_scale(self.term(), -1))
            else:
                return p

    def term(self) -> LPoly:
        p = self.factor()
        while self._peek()[0] == "*":
            self._next()
            p = naive_product(p, self.factor())
        return p

    def factor(self) -> LPoly:
        base, xvar = self.atom()
        if self._peek()[0] != "^":
            return base
        self._next()
        exp, col = self.exponent()
        if exp.denominator == 1 and exp >= 0:
            return naive_power(base, int(exp))
        if xvar is None:
            self._fail(col, "rational or negative exponents need a bare x variable")
        return x_var(self.nx, self.ny, xvar, power=exp)

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
            return const(self.nx, self.ny, Fraction(text)), None
        if kind == "name":
            if text not in self.var_index:
                self._fail(col, "unknown variable %r" % text)
            block, idx = self.var_index[text]
            if block == "x":
                return x_var(self.nx, self.ny, idx), idx
            return y_var(self.nx, self.ny, idx), None
        if kind == "(":
            p = self.expr()
            k2, _, c2 = self._next()
            if k2 != ")":
                self._fail(c2 if c2 > 0 else col, "unclosed parenthesis")
            return p, None
        self._fail(col, "expected a number, variable or parenthesis")


def parse_generator(text: str, line: int, x_names, y_names) -> LPoly:
    """The polynomial of one ``gen`` line over the given variables."""
    var_index = {name: ("x", i) for i, name in enumerate(x_names)}
    var_index.update({name: ("y", i) for i, name in enumerate(y_names)})
    keyword, *toks = tokenize(text, line)
    assert keyword[1] == "gen" and toks
    return ExprParser(toks, line, len(x_names), len(y_names), var_index).parse()
