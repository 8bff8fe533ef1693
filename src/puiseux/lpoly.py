"""Sparse Laurent-Puiseux polynomials: a canonical term store and the substitution kernel.

Terms are ``c * x^a * y^b`` with rational x-exponents (negative and
fractional allowed) and nonnegative integer y-degrees.  Every constructor,
substitution and ``ramify`` stores a coefficient or an x-exponent as ``int``
when it is integral and as ``Fraction`` only when not (``values.canonical``),
so recentered generators keep canonical exponents for any input.
Polynomials are kept in a canonical form, sorted by the plain tuple
``(xexp, ydeg)``, so equality and hashing are structural and independent of
any weight.

The only polynomial arithmetic is the y-substitution kernel and its product
routine.  Recentering (``shift_y``, ``y_i -> y_i + c_i x^gamma_i``), the
residual (``substitute_y``) and the problem parser's products use it.  The
substitution runs on integers: each operand is read as integer numerators
over the lcm of its coefficient denominators, with its x-exponents scaled by
their common denominator to ``int``s, and the inner loops multiply and add
``int``s only.  ``shift_y`` builds its binomial images that way, and
``substitute_y`` reads each series from its ``(c, exponent)`` term list, the
form ``expansion`` and the solution reader already hold, leaving repeated
exponents and zero coefficients for the kernel to sum.  The kernel has one
finisher: it divides the numerators of the sum by their gcd, so both
substitutions return the primitive integer multiple of the exact
polynomial, which differs from it by a positive constant.  Everything read
off a branch's generators (``expansion``) and off a residual is unchanged by
that constant: supports, weighted orders and initial systems up to scale.
``primitive`` brings any polynomial to the same form, with the integer
normal form of ``values.primitive_ints``.

The weighted value of a term under ``W`` and the y-weights ``eta`` is the
tuple ``W.xexp + sum(ydeg[i] * eta[i])``.  A coordinate with infinite
weight (``None``) makes every term containing it infinite, while zero
degrees contribute nothing regardless of the weight; ``weighted_order``
skips such terms before computing a value.

``render_poly`` is the one polynomial printer: the output documents and
``LPoly``'s repr (with the names ``x1..``, ``y1..``) use it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .values import WeightMatrix, canonical, primitive_ints


class Term(NamedTuple):
    coeff: int | Fraction
    xexp: tuple[int | Fraction, ...]
    ydeg: tuple[int, ...]


@dataclass(frozen=True, slots=True, repr=False)
class LPoly:
    """A finite sum of terms in canonical sorted form.

    Use ``from_terms`` to build instances; the constructor trusts its input
    to already be canonical.  ``LPoly(nx, ny)`` is the zero polynomial.
    """

    nx: int
    ny: int
    terms: tuple[Term, ...] = ()

    @classmethod
    def from_terms(cls, nx: int, ny: int, items: Iterable) -> "LPoly":
        """Canonicalize ``(coeff, xexp, ydeg)`` triples: merge, drop zeros, sort.

        Coefficients are ``int`` or ``Fraction`` and are stored canonical.
        """
        acc: dict = {}
        for coeff, xexp, ydeg in items:
            xe = tuple(canonical(e) for e in xexp)
            yd = tuple(int(b) for b in ydeg)
            if len(xe) != nx or len(yd) != ny:
                raise ValueError("term arity does not match the polynomial ring")
            if any(b < 0 for b in yd):
                raise ValueError("y-degrees must be nonnegative")
            key = (xe, yd)
            acc[key] = acc.get(key, 0) + coeff
        return cls(nx, ny, tuple(Term(canonical(c), *key) for key, c in sorted(acc.items()) if c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        xs = ["x%d" % i for i in range(1, self.nx + 1)]
        return "LPoly(%s)" % render_poly(self, xs, ["y%d" % i for i in range(1, self.ny + 1)])


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


def _xden(f: LPoly) -> int:
    """The least common denominator of every x-exponent of ``f``."""
    return lcm(*(e.denominator for t in f.terms for e in t.xexp if type(e) is not int))


def _key(xexp: tuple, xden: int) -> tuple[int, ...]:
    """The x-exponents times ``xden``, as ``int``s."""
    return tuple(
        e * xden if type(e) is int else e.numerator * (xden // e.denominator) for e in xexp
    )


def _product(p: Iterable, q: Sequence) -> dict:
    """Product of two ``(key, coefficient)`` sequences, merged, unsorted."""
    acc: dict = defaultdict(int)
    for pk, pn in p:
        for qk, qn in q:
            acc[tuple(map(add, pk, qk))] += pn * qn
    return acc


def _from_numerators(nx: int, ny: int, acc: dict, xden: int) -> LPoly:
    """The kernel's finisher: the primitive integer polynomial with the numerators ``acc``.

    The nonzero numerators are divided by their gcd, so the result is a
    positive multiple of the sum.  A key is a term's x-exponents times
    ``xden`` followed by its y-degrees, all ``int``s.  Keys are sorted as
    integers, which is the canonical order, and turned back into canonical
    exponents once each.
    """
    g = gcd(*acc.values())
    terms = []
    for key in sorted(acc):
        n = acc[key]
        if n:
            xe = key[:nx]
            if xden != 1:
                xe = tuple(e // xden if e % xden == 0 else Fraction(e, xden) for e in xe)
            terms.append(Term(n // g, xe, key[nx:]))
    return LPoly(nx, ny, tuple(terms))


def primitive(f: LPoly) -> LPoly:
    """The primitive integer multiple of ``f`` by a positive rational.

    Its coefficients are brought to ``values.primitive_ints``.  The zero
    polynomial stays zero.
    """
    nums = primitive_ints([t.coeff for t in f.terms])
    return LPoly(f.nx, f.ny, tuple(Term(n, t.xexp, t.ydeg) for n, t in zip(nums, f.terms)))


def weighted_order(f: LPoly, W: WeightMatrix, eta: Sequence[tuple | None]) -> tuple | None:
    """Minimum weighted value over the support; None for the zero polynomial.

    One pass over the terms.  A term's value is ``W.xexp`` plus
    ``ydeg[i] * eta[i]`` for each ``y_i`` it contains; ``eta`` is split into
    its infinite and finite coordinates once, and a term with a nonzero
    degree in an infinite one is skipped before its value is computed.
    """
    rows = W.rows
    infinite = [i for i, e in enumerate(eta) if e is None]
    finite = [(i, e) for i, e in enumerate(eta) if e is not None]
    best = None
    for t in f.terms:
        yd = t.ydeg
        if any(map(yd.__getitem__, infinite)):
            continue
        v = [sum(map(mul, r, t.xexp)) for r in rows]
        for i, e in finite:
            if yd[i]:
                v = [p + yd[i] * q for p, q in zip(v, e)]
        if best is None or v < best:
            best = v
    return None if best is None else tuple(best)


def ramify(f: LPoly, k: int) -> LPoly:
    """Substitute every x variable by its k-th power: x-exponents scale by k."""
    if k < 1:
        raise ValueError("ramification index must be a positive integer")
    if k == 1:
        return f
    return LPoly(
        f.nx,
        f.ny,
        tuple(Term(t.coeff, tuple(canonical(e * k) for e in t.xexp), t.ydeg) for t in f.terms),
    )


def _substitute(f: LPoly, bases: Sequence[tuple[int, list]], xden: int) -> dict:
    """Substitute ``y_i`` by the image ``bases[i]`` and expand exactly into one sum.

    An image is a pair ``(den_i, items_i)``: ``items_i`` holds ``(key,
    numerator)`` pairs over the denominator ``den_i``, keyed as in
    ``_from_numerators``, and may repeat a key or hold a zero numerator.
    ``xden`` covers the x-exponents of ``f`` and of every image.  Returns
    the sum as integer numerators over ``big``, keyed the same way.
    ``big`` is the lcm of the coefficient denominators of ``f`` times
    ``den_i ** maxdeg_i`` for every image, where ``maxdeg_i`` is the largest
    degree of ``y_i`` in ``f``; every term of ``f`` is scaled onto ``big`` by
    an exact integer.  Each power ``b`` of image ``i`` is
    built once, from power ``b - 1``, and each distinct y-monomial of ``f``
    is expanded once.
    """
    nx, ny = f.nx, f.ny
    maxdeg = map(max, zip(*(t.ydeg for t in f.terms)))
    big = lcm(*(t.coeff.denominator for t in f.terms)) * prod(
        d**m for (d, _), m in zip(bases, maxdeg)
    )
    one = [((0,) * (nx + ny), 1)]
    powers: dict = {}  # (i, b) -> numerators of image i to the b over den_i ** b

    def power(i: int, b: int) -> list:
        if (i, b) not in powers:
            prev = power(i, b - 1) if b > 1 else one
            powers[(i, b)] = list(_product(prev, bases[i][1]).items())
        return powers[(i, b)]

    expanded: dict = {}  # y-degrees -> (denominator, numerators) of the image monomial
    acc: dict = defaultdict(int)
    ypad = (0,) * ny
    for t in f.terms:
        if t.ydeg not in expanded:
            den, m = 1, one
            for i, b in enumerate(t.ydeg):
                if b:
                    den *= bases[i][0] ** b
                    m = power(i, b) if m is one else list(_product(m, power(i, b)).items())
            expanded[t.ydeg] = (den, m)
        den, m = expanded[t.ydeg]
        c = t.coeff
        s = c.numerator * (big // (c.denominator * den))
        xk = (t.xexp if xden == 1 else _key(t.xexp, xden)) + ypad
        for k, n in m:
            acc[tuple(map(add, xk, k))] += s * n
    return acc


def shift_y(f: LPoly, shifts: Sequence[tuple | None]) -> LPoly:
    """The primitive integer multiple of ``f`` with ``y_i -> y_i + c_i * x^xexp_i``.

    ``shifts[i]`` is the pair ``(c_i, xexp_i)``, or None to leave ``y_i`` as
    it is.  The exact substitution's numerators are divided by their gcd, so
    the result is the exact polynomial times a positive constant (see the
    module docstring); the zero polynomial stays zero.
    """
    nx, ny = f.nx, f.ny
    if len(shifts) != ny:
        raise ValueError("need one shift per y coordinate")
    xden = lcm(_xden(f), *(e.denominator for s in shifts if s is not None for e in s[1]))
    zero = (0,) * (nx + ny)
    bases = []
    for i, s in enumerate(shifts):
        y = zero[: nx + i] + (1,) + zero[nx + i + 1 :]
        if s is None or not s[0]:
            bases.append((1, [(y, 1)]))
        else:
            c = s[0]
            x = _key(s[1], xden) + zero[nx:]
            bases.append((c.denominator, [(y, c.denominator), (x, c.numerator)]))
    return _from_numerators(nx, ny, _substitute(f, bases, xden), xden)


def set_y_zero(f: LPoly, indices) -> LPoly:
    """Substitute ``y_i = 0`` for every i in ``indices``."""
    idx = set(indices)
    keep = tuple(t for t in f.terms if all(t.ydeg[i] == 0 for i in idx))
    return LPoly(f.nx, f.ny, keep)


def substitute_y(f: LPoly, coords: Sequence[Sequence[tuple]]) -> LPoly:
    """Substitute ``y_i`` by the series ``coords[i]``, a sequence of ``(c, exponent)`` terms.

    The terms are read straight into integer numerators; a repeated
    exponent, a zero coefficient or an empty series is summed by the kernel.
    Returns the primitive integer multiple of the residual polynomial in the
    x variables: the exact residual times a positive constant, with the same
    support and weighted orders.
    """
    nx, ny = f.nx, f.ny
    if len(coords) != ny:
        raise ValueError("need one series per y coordinate")
    if any(len(e) != nx for coord in coords for _, e in coord):
        raise ValueError("series exponent arity does not match the polynomial ring")
    xden = lcm(_xden(f), *(q.denominator for coord in coords for _, e in coord for q in e))
    ypad = (0,) * ny
    bases = []
    for coord in coords:
        d = lcm(*(c.denominator for c, _ in coord))
        items = [(_key(e, xden) + ypad, c.numerator * (d // c.denominator)) for c, e in coord]
        bases.append((d, items))
    return _from_numerators(nx, ny, _substitute(f, bases, xden), xden)
