"""Sparse Laurent-Puiseux polynomials: a canonical term store and the substitution kernel.

Terms are ``c * x^a * y^b`` with rational x-exponents (negative and
fractional allowed) and nonnegative integer y-degrees.  Coefficients are
``Fraction``s.  Every constructor, substitution and ``ramify`` stores an
x-exponent as ``int`` when it is integral and as ``Fraction`` only when not,
so recentered generators keep canonical exponents for any input.
Polynomials are kept in a canonical form, sorted by the plain tuple
``(xexp, ydeg)``, so equality and hashing are structural and independent of
any weight.

The only polynomial arithmetic is the y-substitution kernel and its product
routine.  Recentering (``shift_y``, ``y_i -> y_i + c_i x^gamma_i``), the
residual (``substitute_y``) and the problem parser's products use it.  The
substitution runs on integers: each operand is read as integer numerators
over the lcm of its coefficient denominators, with its x-exponents scaled by
their common denominator to ``int``s; the inner loops multiply and add
``int``s only, and the result is turned back into ``Fraction``s at the
boundary, one ``Fraction(numerator, denominator)`` and one canonical
exponent tuple per nonzero output term.

The weighted value of a term is the tuple ``value(xexp) + sum(eta[i] *
ydeg[i])``.  A coordinate with infinite weight (``None``) makes every term
containing it infinite, while zero degrees contribute nothing regardless of
the weight; the skip is explicit in ``term_value``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .values import WeightMatrix, canonical


class Term(NamedTuple):
    coeff: Fraction
    xexp: tuple[int | Fraction, ...]
    ydeg: tuple[int, ...]


class LPoly:
    """A finite sum of terms in canonical sorted form.

    Use ``from_terms`` to build instances; the constructor trusts its input
    to already be canonical.
    """

    __slots__ = ("nx", "ny", "terms")

    def __init__(self, nx: int, ny: int, terms: tuple[Term, ...] = ()):
        self.nx = nx
        self.ny = ny
        self.terms = terms

    @classmethod
    def from_terms(cls, nx: int, ny: int, items: Iterable) -> "LPoly":
        """Canonicalize ``(coeff, xexp, ydeg)`` triples: merge, drop zeros, sort."""
        acc: dict = {}
        for coeff, xexp, ydeg in items:
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            xe = tuple(canonical(e) for e in xexp)
            yd = tuple(int(b) for b in ydeg)
            if len(xe) != nx or len(yd) != ny:
                raise ValueError("term arity does not match the polynomial ring")
            if any(b < 0 for b in yd):
                raise ValueError("y-degrees must be nonnegative")
            key = (xe, yd)
            acc[key] = acc[key] + c if key in acc else c
        return cls._from_dict(nx, ny, acc)

    @classmethod
    def _from_dict(cls, nx: int, ny: int, acc: dict) -> "LPoly":
        terms = tuple(Term(c, k[0], k[1]) for k, c in sorted(acc.items()) if c != 0)
        return cls(nx, ny, terms)

    @classmethod
    def zero(cls, nx: int, ny: int) -> "LPoly":
        return cls(nx, ny, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return (self.nx, self.ny, self.terms) == (other.nx, other.ny, other.terms)

    def __hash__(self):
        return hash((self.nx, self.ny, self.terms))

    def is_x_only(self) -> bool:
        return all(all(b == 0 for b in t.ydeg) for t in self.terms)

    def y_free_part(self) -> "LPoly":
        """The sum of terms containing no y variable."""
        return LPoly(self.nx, self.ny, tuple(t for t in self.terms if all(b == 0 for b in t.ydeg)))

    def __repr__(self):
        if not self.terms:
            return "LPoly(0)"
        parts = []
        for t in self.terms:
            bits = [str(t.coeff)]
            bits += ["x%d^%s" % (i, e) for i, e in enumerate(t.xexp) if e != 0]
            bits += ["y%d^%s" % (i, b) for i, b in enumerate(t.ydeg) if b != 0]
            parts.append("*".join(bits))
        return "LPoly(%s)" % " + ".join(parts)


def _xden(polys: Iterable[LPoly]) -> int:
    """The least common denominator of every x-exponent of ``polys``."""
    dens = (e.denominator for f in polys for t in f.terms for e in t.xexp if type(e) is not int)
    return lcm(*dens)


def _key(xexp: tuple, xden: int) -> tuple[int, ...]:
    """The x-exponents times ``xden``, as ``int``s."""
    return tuple(
        e * xden if type(e) is int else e.numerator * (xden // e.denominator) for e in xexp
    )


def _numerators(f: LPoly, xden: int) -> tuple[int, list]:
    """``f`` as integer numerators over one denominator.

    Returns ``(d, items)``: ``d`` is the lcm of the coefficient denominators
    and ``items`` has one ``(key, coeff * d)`` pair per term, where ``key`` is
    the term's x-exponents times ``xden`` followed by its y-degrees.
    """
    d = lcm(*(t.coeff.denominator for t in f.terms))
    items = [
        (_key(t.xexp, xden) + t.ydeg, t.coeff.numerator * (d // t.coeff.denominator))
        for t in f.terms
    ]
    return d, items


def _product(p: Iterable, q: Sequence) -> dict:
    """Product of two ``(key, coefficient)`` sequences, merged, unsorted."""
    acc: dict = defaultdict(int)
    for pk, pn in p:
        for qk, qn in q:
            acc[tuple(map(add, pk, qk))] += pn * qn
    return acc


def _from_numerators(nx: int, ny: int, acc: dict, den: int, xden: int) -> LPoly:
    """The polynomial with numerators ``acc`` over ``den``, keys as in ``_numerators``.

    This is where ``Fraction``s are made: one per nonzero term.  The keys are
    sorted as integers, which is the canonical order, and turned back into
    canonical exponents once each.
    """
    terms = []
    for key in sorted(acc):
        n = acc[key]
        if n:
            xe = key[:nx]
            if xden != 1:
                xe = tuple(e // xden if e % xden == 0 else Fraction(e, xden) for e in xe)
            terms.append(Term(Fraction(n, den), xe, key[nx:]))
    return LPoly(nx, ny, tuple(terms))


def active_set(eta: Sequence[tuple | None]) -> tuple[int, ...]:
    """Indices whose weight is finite; the rest are retired coordinates."""
    return tuple(i for i, e in enumerate(eta) if e is not None)


def term_value(W: WeightMatrix, eta: Sequence[tuple | None], term: Term) -> tuple | None:
    """Weighted value of one term; None if it touches a retired coordinate.

    Zero degrees are skipped outright, so an infinite weight paired with a
    zero degree contributes nothing.
    """
    v = W.value_of(term.xexp)
    for b, e in zip(term.ydeg, eta):
        if b:
            if e is None:
                return None
            v = tuple(p + b * q for p, q in zip(v, e))
    return v


def weighted_order(f: LPoly, W: WeightMatrix, eta: Sequence[tuple | None]) -> tuple | None:
    """Minimum weighted value over the support; None for the zero polynomial."""
    values = (term_value(W, eta, t) for t in f.terms)
    return min((v for v in values if v is not None), default=None)


def ramify(f: LPoly, k: int) -> LPoly:
    """Substitute every x variable by its k-th power: x-exponents scale by k."""
    if k < 1:
        raise ValueError("ramification index must be a positive integer")
    return LPoly(
        f.nx,
        f.ny,
        tuple(Term(t.coeff, tuple(canonical(e * k) for e in t.xexp), t.ydeg) for t in f.terms),
    )


def _substitute(f: LPoly, images: Sequence[LPoly]) -> LPoly:
    """Substitute ``y_i -> images[i]`` and expand exactly into one sum.

    The sum is kept as integer numerators over ``big``, the lcm of the
    coefficient denominators of ``f`` times ``den_i ** maxdeg_i`` for every
    image, where ``den_i`` is the common denominator of ``images[i]`` and
    ``maxdeg_i`` the largest degree of ``y_i`` in ``f``; every term of ``f``
    is scaled onto ``big`` by an exact integer.  Each power ``images[i] ** b``
    is built once, from ``images[i] ** (b - 1)``, and each distinct
    y-monomial of ``f`` is expanded once.
    """
    nx, ny = f.nx, f.ny
    xden = _xden((f, *images))
    bases = [_numerators(g, xden) for g in images]
    maxdeg = [max((t.ydeg[i] for t in f.terms), default=0) for i in range(ny)]
    big = lcm(*(t.coeff.denominator for t in f.terms)) * prod(
        d**m for (d, _), m in zip(bases, maxdeg)
    )
    one = [((0,) * (nx + ny), 1)]
    powers: dict = {}  # (i, b) -> numerators of images[i] ** b over den_i ** b

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
        xk = _key(t.xexp, xden) + ypad
        for k, n in m:
            acc[tuple(map(add, xk, k))] += s * n
    return _from_numerators(nx, ny, acc, big, xden)


def shift_y(f: LPoly, shifts: Sequence[tuple | None]) -> LPoly:
    """Substitute ``y_i -> y_i + c_i * x^xexp_i`` and expand exactly.

    ``shifts[i]`` is the pair ``(c_i, xexp_i)``, or None to leave ``y_i`` as
    it is.
    """
    nx, ny = f.nx, f.ny
    if len(shifts) != ny:
        raise ValueError("need one shift per y coordinate")
    zx, zy = (0,) * nx, (0,) * ny
    images = []
    for i, s in enumerate(shifts):
        y = (1, zx, zy[:i] + (1,) + zy[i + 1 :])
        images.append(LPoly.from_terms(nx, ny, [y] if s is None else [y, (s[0], s[1], zy)]))
    return _substitute(f, images)


def set_y_zero(f: LPoly, indices) -> LPoly:
    """Substitute ``y_i = 0`` for every i in ``indices``."""
    idx = set(indices)
    keep = tuple(t for t in f.terms if all(t.ydeg[i] == 0 for i in idx))
    return LPoly(f.nx, f.ny, keep)


def at_x_one(f: LPoly) -> LPoly:
    """Set every x variable to 1, collecting like y-monomials."""
    acc: dict = {}
    zero_x = (0,) * f.nx
    for t in f.terms:
        key = (zero_x, t.ydeg)
        acc[key] = acc.get(key, Fraction(0)) + t.coeff
    return LPoly._from_dict(f.nx, f.ny, acc)


def substitute_y(f: LPoly, series: Sequence[LPoly]) -> LPoly:
    """Substitute ``y_i -> series[i]`` for x-only polynomials ``series``.

    Returns the exact residual polynomial in the x variables.
    """
    if len(series) != f.ny:
        raise ValueError("need one substitute per y coordinate")
    for s in series:
        if s.nx != f.nx or s.ny != f.ny:
            raise ValueError("substitute lives in a different ring")
        if not s.is_x_only():
            raise ValueError("substituted series must not contain y variables")
    return _substitute(f, series)
