"""Exact weighted values for comparing exponents.

A generic weight is represented by a rational matrix ``W`` with full column
rank.  The value of an exponent vector ``a`` in Q^n is the column vector
``W.a``, and values are compared lexicographically.  Full column rank makes
the value map injective, so distinct exponents never tie: the induced order
on exponents is total, Q-linear and tie-free, which is everything the
expansion algorithm needs from a generic weight.

``INF`` is the distinguished infinite value.  It is greater than every
finite value, absorbs addition, and stays infinite under scaling by a
nonzero rational.  It serves as the order of the zero polynomial and as the
weight of retired coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence


def _rats(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in entries)


@total_ordering
class Val:
    """A vector of rationals under lexicographic order, or infinity.

    Scaling INF by zero is rejected here: where weighted degrees are summed,
    zero degrees are skipped instead, so the product never arises.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable | None):
        self.coords = None if coords is None else _rats(coords)

    @classmethod
    def zero(cls, dim: int) -> "Val":
        return cls((Fraction(0),) * dim)

    @property
    def is_inf(self) -> bool:
        return self.coords is None

    def __eq__(self, other):
        if not isinstance(other, Val):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(("Val", self.coords))

    def __lt__(self, other):
        if not isinstance(other, Val):
            return NotImplemented
        if self.coords is None:
            return False
        if other.coords is None:
            return True
        if len(self.coords) != len(other.coords):
            raise ValueError("cannot compare values of different dimensions")
        return self.coords < other.coords

    def __add__(self, other: "Val") -> "Val":
        if not isinstance(other, Val):
            return NotImplemented
        if self.coords is None or other.coords is None:
            return INF
        if len(self.coords) != len(other.coords):
            raise ValueError("cannot add values of different dimensions")
        return Val(a + b for a, b in zip(self.coords, other.coords))

    def scale(self, k) -> "Val":
        """Multiply by a rational scalar; INF stays INF for nonzero k."""
        if self.coords is None:
            if k == 0:
                raise ValueError("INF cannot be scaled by zero; skip zero degrees instead")
            return INF
        return Val(c * k for c in self.coords)

    def is_positive(self) -> bool:
        """Strictly greater than zero; INF counts as positive."""
        if self.coords is None:
            return True
        return self > Val.zero(len(self.coords))

    def sort_key(self):
        return (1,) if self.coords is None else (0,) + self.coords

    def __repr__(self):
        if self.coords is None:
            return "Val(inf)"
        return "Val(%s)" % ", ".join(str(c) for c in self.coords)


INF = Val(None)


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
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(_rats(r) for r in rows)
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
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def value_of(self, exp: Sequence) -> Val:
        """The weighted value ``W.exp`` of an exponent vector."""
        e = _rats(exp)
        if len(e) != self.n:
            raise ValueError("exponent vector has wrong length")
        return Val(sum(w * x for w, x in zip(row, e)) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "WeightMatrix(%r)" % (self.rows,)
