"""Reference lex Groebner bases over Q on ``Fraction`` dicts.

Polynomials are dicts mapping degree tuples (lex order, the first variable
most significant) to nonzero ``Fraction`` coefficients.  This is textbook
Buchberger with monic elements: S-polynomials of monic leading terms, full
reduction by the first reducer found, and a final interreduction.  The
solver's fraction-free basis is checked against it: it selects the same
pairs and spends the same budget, and made monic it gives the same basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from puiseux.solver import BudgetExceeded


def _lm(p: dict) -> tuple:
    return max(p)


def monic(p: dict) -> dict:
    lc = p[_lm(p)]
    if lc == 1:
        return p
    return {k: c / lc for k, c in p.items()}


def _divides(m1: tuple, m2: tuple) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mul_term(p: dict, coeff: Fraction, mono: tuple) -> dict:
    return {tuple(a + b for a, b in zip(k, mono)): c * coeff for k, c in p.items()}


def _sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        nc = out.get(k, Fraction(0)) - c
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


def _reduce(p: dict, basis: Sequence[dict]) -> dict:
    """Full remainder of p on division by the basis, first-found reducer."""
    rem: dict = {}
    work = dict(p)
    while work:
        m = _lm(work)
        c = work[m]
        for g in basis:
            gm = _lm(g)
            if _divides(gm, m):
                quot = tuple(a - b for a, b in zip(m, gm))
                work = _sub(work, _mul_term(g, c / g[gm], quot))
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def _spoly(f: dict, g: dict) -> dict:
    fm, gm = _lm(f), _lm(g)
    l = tuple(max(a, b) for a, b in zip(fm, gm))
    left = _mul_term(f, Fraction(1) / f[fm], tuple(a - b for a, b in zip(l, fm)))
    right = _mul_term(g, Fraction(1) / g[gm], tuple(a - b for a, b in zip(l, gm)))
    return _sub(left, right)


def buchberger(polys: Sequence[dict], budget: list) -> list[dict]:
    """Reduced lex Groebner basis of the given dict polynomials.

    ``budget[0]`` is the number of S-pairs that may still be reduced; it is
    decremented per pair, and ``BudgetExceeded`` is raised once it goes
    negative.  Pairs with coprime leading monomials are skipped for free.
    """
    G = [monic(dict(p)) for p in polys if p]
    pending = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    while pending:
        key = min(
            pending,
            key=lambda ij: (
                tuple(max(a, b) for a, b in zip(_lm(G[ij[0]]), _lm(G[ij[1]]))),
                ij,
            ),
        )
        pending.discard(key)
        i, j = key
        fm, gm = _lm(G[i]), _lm(G[j])
        l = tuple(max(a, b) for a, b in zip(fm, gm))
        if l == tuple(a + b for a, b in zip(fm, gm)):
            continue  # coprime leading monomials never yield new elements
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("Groebner pair budget exceeded")
        r = _reduce(_spoly(G[i], G[j]), G)
        if r:
            G.append(monic(r))
            pending.update((k, len(G) - 1) for k in range(len(G) - 1))
    # interreduce to the canonical reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            others = G[:i] + G[i + 1 :]
            r = _reduce(G[i], [g for g in others if g]) if others else G[i]
            r = monic(r) if r else r
            if r != G[i]:
                G[i] = r
                changed = True
        G = [g for g in G if g]
    G.sort(key=_lm)
    return G
