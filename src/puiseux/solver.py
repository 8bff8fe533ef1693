"""Exact solving of the initial coefficient systems on the torus.

The systems are small polynomial systems over Q in the active y variables.
They are triangularized with a reduced lex Groebner basis, the rational
roots of the univariate eliminant at each level are found by
isolate-round-verify, and roots are back-substituted: the real roots are
isolated exactly by Sturm bisection, each is rounded to the nearest multiple
of 1/a_n (a_n the integer leading coefficient; every rational root is one),
and that candidate is verified exactly.  The univariate work runs on integer
polynomials: pseudo-remainders for the Sturm chain, integer evaluation, and
exact division for the squarefree part and for deflating a root.  Only rational points are produced;
levels whose eliminant keeps a factor without rational roots set a flag, as
do levels with no univariate eliminant at all (positive-dimensional solution
sets).

Variables are ordered by ascending index, the lowest index being the most
significant for the lex order.  Internally polynomials are dicts mapping
degree tuples to coefficients; the public boundary speaks LPoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .lpoly import LPoly


# Default cap on the Groebner S-pairs processed per basis computation.
SOLVER_BUDGET = 20000


class BudgetExceeded(RuntimeError):
    """The Groebner pair-processing cap was hit."""


@dataclass(frozen=True)
class TorusSolutionSet:
    solutions: tuple[tuple[Fraction, ...], ...]
    nonzero_dimensional: bool
    irrational_roots_detected: bool


def _to_dict(f: LPoly, variables: Sequence[int]) -> dict:
    pos = {v: j for j, v in enumerate(variables)}
    out: dict = {}
    for t in f.terms:
        if any(e != 0 for e in t.xexp):
            raise ValueError("solver expects x-free polynomials")
        for i, b in enumerate(t.ydeg):
            if b and i not in pos:
                raise ValueError("polynomial involves a variable outside the solve set")
        key = tuple(t.ydeg[v] for v in variables)
        out[key] = out.get(key, Fraction(0)) + t.coeff
    return {k: c for k, c in out.items() if c != 0}


def _from_dict(p: dict, variables: Sequence[int], nx: int, ny: int) -> LPoly:
    items = []
    for key, c in p.items():
        yd = [0] * ny
        for v, b in zip(variables, key):
            yd[v] = b
        items.append((c, (0,) * nx, tuple(yd)))
    return LPoly.from_terms(nx, ny, items)


def _lm(p: dict) -> tuple:
    return max(p)


def _monic(p: dict) -> dict:
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


def _buchberger(polys: Sequence[dict], budget: list) -> list[dict]:
    """Reduced lex Groebner basis of the given dict polynomials."""
    G = [_monic(dict(p)) for p in polys if p]
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
            G.append(_monic(r))
            pending.update((k, len(G) - 1) for k in range(len(G) - 1))
    # interreduce to the canonical reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            others = G[:i] + G[i + 1 :]
            r = _reduce(G[i], [g for g in others if g]) if others else G[i]
            r = _monic(r) if r else r
            if r != G[i]:
                G[i] = r
                changed = True
        G = [g for g in G if g]
    G.sort(key=_lm)
    return G


def reduced_groebner(
    system: Sequence[LPoly], variables: Sequence[int], max_pairs: int = SOLVER_BUDGET
) -> list[LPoly]:
    """Reduced lex Groebner basis of an x-free system in the given variables."""
    variables = tuple(sorted(set(variables)))
    if not system:
        return []
    nx, ny = system[0].nx, system[0].ny
    dicts = [_to_dict(f, variables) for f in system]
    G = _buchberger([p for p in dicts if p], [max_pairs])
    return [_from_dict(g, variables, nx, ny) for g in G]


def _primitive(poly: Sequence[int | Fraction]) -> list[int]:
    """The primitive integer multiple of poly by a positive rational."""
    den = lcm(*[c.denominator for c in poly])
    ints = [c.numerator * (den // c.denominator) for c in poly]
    g = gcd(*ints)
    return [a // g for a in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a on division by b.

    Integer polynomials, ascending coefficients, b[-1] != 0.  Each step
    scales the dividend by a positive integer before cancelling its leading
    term, so the remainder keeps its sign.
    """
    lead = b[-1]
    while len(a) >= len(b):
        g = gcd(a[-1], lead)
        m, q = lead // g, a[-1] // g
        if m < 0:
            m, q = -m, -q
        shift = len(a) - len(b)
        a = [m * c for c in a]
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials (ascending) when b divides a in Z[x]."""
    a = list(a)
    lead = b[-1]
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        q = a[shift + len(b) - 1] // lead
        quo[shift] = q
        for k, c in enumerate(b):
            a[shift + k] -= q * c
    return quo


def _scaled_value(poly: list[int], num: int, den: int) -> int:
    """den**deg(poly) * poly(num/den), which has the sign of poly(num/den)."""
    acc, scale = 0, 1
    for c in reversed(poly):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _sturm_chain(poly: list[int]) -> list[list[int]]:
    """Sturm sequence of a primitive integer poly, entries scaled to
    primitive integer polynomials.

    The entries are built by integer pseudo-remainders.  The scale factors
    are positive, so signs are kept, and signs are all that is read.  The
    last entry is gcd(poly, poly') up to a constant.
    """
    chain = [poly, _primitive([k * c for k, c in enumerate(poly)][1:])]
    while True:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append(_primitive([-c for c in rem]))


def _sturm_at(chain: list[list[int]], x: Fraction) -> tuple[int, bool]:
    """Sign changes of the chain at x (zeros dropped); is x a root of chain[0]?"""
    values = [_scaled_value(p, x.numerator, x.denominator) for p in chain]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:])), values[0] == 0


def _root_candidates(poly: list[int]) -> list[Fraction]:
    """One rational point per distinct real root of a primitive integer
    polynomial of positive degree, equal to the root whenever it is rational.

    The real roots of the squarefree part are isolated by Sturm bisection
    from a Cauchy bound.  A rational root p/q has q | a_n, so once an
    isolating interval is narrower than 1/(2|a_n|) its midpoint times a_n
    rounds to a_n times the root.  A linear squarefree part isolates its
    root exactly, and so does a bisection point that is a root.
    """
    chain = _sturm_chain(poly)
    if len(chain[-1]) > 1:  # repeated roots: work on the squarefree part
        poly = _exact_quotient(poly, chain[-1])
        chain = _sturm_chain(poly)
    if len(poly) == 2:
        return [Fraction(-poly[0], poly[1])]
    an = abs(poly[-1])
    bound = Fraction(1 - max(abs(c) for c in poly[:-1]) // -an)  # Cauchy: |root| < bound
    width = Fraction(1, 2 * an)
    out = []
    # (lo, hi, sign changes at lo and at hi, hi is a root): the interval
    # (lo, hi] holds as many distinct roots as the sign changes drop by
    stack = [(-bound, bound, _sturm_at(chain, -bound)[0], _sturm_at(chain, bound)[0], False)]
    while stack:
        lo, hi, vlo, vhi, hi_root = stack.pop()
        count = vlo - vhi - hi_root
        if count == 0:
            continue
        if count == 1 and hi - lo < width:
            out.append(Fraction(round(an * (lo + hi) / 2), an))
            continue
        mid = (lo + hi) / 2
        vmid, mid_root = _sturm_at(chain, mid)
        if mid_root:
            out.append(mid)
        stack.append((mid, hi, vmid, vhi, hi_root))
        stack.append((lo, mid, vlo, vmid, mid_root))
    return out


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], int]:
    """Rational roots of a nonzero univariate polynomial (ascending coeffs).

    Returns the sorted roots and the degree left after all rational root
    factors are divided out; a positive leftover means roots outside Q.
    Candidates come from exact real-root isolation and are verified exactly.
    """
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("the zero polynomial has every root")
    roots = set()
    low = 0
    while cs[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
        cs = cs[low:]
    if len(cs) == 1:
        return tuple(sorted(roots)), 0
    work = _primitive(cs)
    for r in _root_candidates(work):
        p, q = r.numerator, r.denominator
        while len(work) > 1 and _scaled_value(work, p, q) == 0:
            roots.add(r)
            work = _exact_quotient(work, [-p, q])
    return tuple(sorted(roots)), len(work) - 1


def _substitute_last(p: dict, r: Fraction) -> dict:
    out: dict = {}
    for key, c in p.items():
        nc = c * r ** key[-1]
        nk = key[:-1]
        out[nk] = out.get(nk, Fraction(0)) + nc
    return {k: c for k, c in out.items() if c != 0}


def torus_solutions(
    system: Sequence[LPoly], variables: Sequence[int], max_pairs: int = SOLVER_BUDGET
) -> TorusSolutionSet:
    """All rational solutions of the system with every coordinate nonzero.

    An empty system over zero variables has exactly the empty solution; an
    empty system over a nonempty variable set is flagged positive
    dimensional, as is any triangular level without a univariate eliminant.
    """
    variables = tuple(sorted(set(variables)))
    k = len(variables)
    budget = [max_pairs]
    flags = {"dim": False, "irr": False}
    dicts = [d for d in (_to_dict(f, variables) for f in system) if d]

    def walk(polys: list[dict], m: int) -> list[tuple]:
        if m == 0:
            return [] if polys else [()]
        if not polys:
            flags["dim"] = True
            return []
        G = _buchberger(polys, budget)
        if not G:
            flags["dim"] = True
            return []
        if any(_lm(g) == (0,) * m for g in G):
            return []  # the ideal is the whole ring
        uni = next(
            (g for g in G if all(all(e == 0 for e in key[:-1]) for key in g)), None
        )
        if uni is None:
            flags["dim"] = True
            return []
        deg = max(key[-1] for key in uni)
        coeffs = [Fraction(0)] * (deg + 1)
        for key, c in uni.items():
            coeffs[key[-1]] = c
        roots, leftover = rational_roots(coeffs)
        if leftover > 0:
            flags["irr"] = True
        out = []
        for r in roots:
            sub = [q for q in (_substitute_last(g, r) for g in G) if q]
            for partial in walk(sub, m - 1):
                out.append(partial + (r,))
        return out

    raw = walk(dicts, k)
    torus = sorted(c for c in raw if all(v != 0 for v in c))

    def _value(p: dict, c: tuple) -> Fraction:
        total = Fraction(0)
        for key, coeff in p.items():
            v = coeff
            for b, x in zip(key, c):
                v *= x**b
            total += v
        return total

    for c in torus:
        for p in dicts:
            if _value(p, c) != 0:
                raise AssertionError("solver produced a non-root; this is a bug")

    return TorusSolutionSet(
        solutions=tuple(torus),
        nonzero_dimensional=flags["dim"],
        irrational_roots_detected=flags["irr"],
    )
