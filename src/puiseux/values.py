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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def canonical(x) -> int | Fraction:
    """An exact rational in canonical form: ``int`` when integral, else ``Fraction``."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def sort_key(v: tuple | None) -> tuple:
    """Sort key for a value or an exponent row; ``None`` (infinity) sorts last."""
    return (1,) if v is None else (0,) + v


def _rats(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in entries)




def rref(rows: Sequence[Sequence]) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over Q, with the list of pivot columns."""
    m = [list(_rats(r)) for r in rows]
    if not m:
        return (), ()
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def solve_linear(a_rows, b_rows):
    """Solve ``A X = B`` over Q for the n x k matrix ``X``.

    ``A`` must have at least one row.  Returns ``("unique", X)``,
    ``("many", None)`` when the solution set is positive dimensional, or
    ``("none", None)`` when the system is inconsistent.
    """
    n = len(a_rows[0])
    k = len(b_rows[0])
    aug = [list(a) + list(b) for a, b in zip(a_rows, b_rows)]
    reduced, pivots = rref(aug)
    a_pivots = [p for p in pivots if p < n]
    if len(a_pivots) < len(pivots):
        return "none", None
    if len(a_pivots) < n:
        return "many", None
    x = [[Fraction(0)] * k for _ in range(n)]
    for row, col in zip(reduced, pivots):
        x[col] = list(row[n:])
    return "unique", tuple(tuple(r) for r in x)


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
        _, pivots = rref(rs)
        if len(pivots) != n:
            raise ValueError("weight matrix must have full column rank")
        self.rows = rs

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def d(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "WeightMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

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
