"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from puiseux import INF, LPoly, Val


def lp(nx, ny, *terms):
    """Build an LPoly from (coeff, xexp, ydeg) triples."""
    return LPoly.from_terms(nx, ny, terms)


def xm(nx, ny, coeff, *exp):
    """Single x-monomial."""
    return LPoly.monomial(nx, ny, coeff, tuple(Fraction(e) for e in exp))


def coupled_pair(sign: int):
    """Three generators in two y coordinates plus one forced-zero coordinate."""
    g1 = lp(
        2,
        3,
        (1, (Fraction(1), Fraction(0)), (0, 0, 0)),
        (1, (Fraction(0), Fraction(0)), (1, 0, 0)),
        (-1, (Fraction(0), Fraction(0)), (0, 1, 0)),
        (1, (Fraction(0), Fraction(0)), (1, 1, 0)),
        (1, (Fraction(0), Fraction(0)), (0, 0, 1)),
    )
    g2 = lp(
        2,
        3,
        (1, (Fraction(0), Fraction(1)), (0, 0, 0)),
        (-1, (Fraction(0), Fraction(0)), (1, 0, 0)),
        (sign, (Fraction(0), Fraction(0)), (0, 1, 0)),
        (2, (Fraction(0), Fraction(0)), (1, 1, 0)),
    )
    g3 = LPoly.y_var(2, 3, 2)
    return [g1, g2, g3]


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero_rats = small_rats.filter(lambda q: q != 0)


def xexps(nx):
    return st.tuples(*([small_rats] * nx))


def ydegs(ny, max_deg=3):
    return st.tuples(*([st.integers(0, max_deg)] * ny))


def lpolys(nx, ny, max_terms=5):
    return st.lists(
        st.tuples(nonzero_rats, xexps(nx), ydegs(ny)), min_size=0, max_size=max_terms
    ).map(lambda ts: LPoly.from_terms(nx, ny, ts))


def vals(dim):
    return st.tuples(*([small_rats] * dim)).map(Val)


def etas(ny, dim):
    entry = st.one_of(st.just(INF), vals(dim))
    return st.tuples(*([entry] * ny))
