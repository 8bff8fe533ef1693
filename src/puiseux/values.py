"""Exact weighted values for comparing exponents.

A generic weight is represented by a rational matrix ``W`` with full column
rank.  The value of an exponent vector ``a`` in Q^n is the column vector
``W.a``, a plain tuple of exact rationals, and values are compared as
tuples, that is lexicographically.  Full column rank makes the value map
injective, so distinct exponents never tie: the induced order on exponents
is total, Q-linear and tie-free, which is everything the expansion
algorithm needs from a generic weight.

Infinity is ``None``.  It is the order of the zero polynomial and the
weight of a retired coordinate, and code that takes minima or adds values
tests for it explicitly; ``sort_key`` places it after every finite value.

Exponents and weight entries are created in canonical form, an ``int`` when
integral and a ``Fraction`` only when not (see ``canonical``), so integral
input never pays for ``Fraction`` arithmetic on exponents.

The linear algebra over Q is one routine, ``add_row``, which inserts a row
into a reduced row echelon form.  It checks the rank of a weight matrix, and
candidate enumeration solves its tie systems with it one row at a time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def canonical(x) -> int | Fraction:
    """An exact rational in canonical form: ``int`` when integral, else ``Fraction``."""
    if type(x) is int:
        return x
    q = x if type(x) is Fraction else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def sort_key(v: tuple | None) -> tuple:
    """Sort key for a value or an exponent row; ``None`` (infinity) sorts last."""
    return (1,) if v is None else (0,) + v


def add_row(form: tuple, row: Sequence, n: int) -> tuple | None:
    """Insert one row into a reduced row echelon form over Q.

    ``form`` is a tuple of ``(pivot, row)`` pairs, each row with a 1 at its
    own pivot and a 0 at every other pivot; the first ``n`` entries of a row
    are coefficients, the rest a right-hand side.  Returns the form with
    ``row`` reduced against it and added, the same form when ``row`` is
    implied, or None when it contradicts the form (its coefficients reduce to
    zero and its right-hand side does not).  The form is a point, the unique
    solution in its right-hand sides, once it has ``n`` pivots.
    """
    for p, r in form:
        f = row[p]
        if f:
            row = [a - f * b for a, b in zip(row, r)]
    pivot = next((j for j in range(n) if row[j]), None)
    if pivot is None:
        return None if any(row) else form
    inv = row[pivot]
    if inv != 1:
        row = [canonical(Fraction(a) / inv) for a in row]
    reduced = tuple(
        (p, tuple(a - r[pivot] * b for a, b in zip(r, row)) if r[pivot] else r) for p, r in form
    )
    return reduced + ((pivot, tuple(row)),)


class WeightMatrix:
    """Rational weight matrix with full column rank.

    The rows give the coordinates of the value ``W.a`` of an exponent vector
    ``a``.  Construction fails if the matrix does not have full column rank,
    since a rank-deficient matrix would let distinct exponents share a value.
    Entries are stored in canonical form (see ``canonical``).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(canonical(x) for x in r) for r in rows)
        if not rs or not rs[0]:
            raise ValueError("weight matrix must be nonempty")
        n = len(rs[0])
        if any(len(r) != n for r in rs):
            raise ValueError("weight matrix rows must have equal length")
        if len(rs) < n:
            raise ValueError("weight matrix needs at least as many rows as columns")
        form = ()
        for r in rs:
            form = add_row(form, r, n)
        if len(form) != n:
            raise ValueError("weight matrix must have full column rank")
        self.rows = rs

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def d(self) -> int:
        return len(self.rows)

    def value_of(self, exp: Sequence) -> tuple:
        """The weighted value ``W.exp`` of an exponent vector."""
        if len(exp) != self.n:
            raise ValueError("exponent vector has wrong length")
        return tuple(sum(w * x for w, x in zip(row, exp)) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "WeightMatrix(%r)" % (self.rows,)
