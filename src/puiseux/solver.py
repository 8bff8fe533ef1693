"""Exact solving of the initial coefficient systems on the torus.

The systems are small polynomial systems over Q in the active y variables.
A system of total degree at most one, which is what every step of a smooth
branch gives, is solved by one echelon pass, ``values.add_row``: no
solution when it is inconsistent, a positive-dimensional flag when its rank
is below the number of variables, and otherwise its one point.  Any other
system is triangularized with a reduced lex Groebner basis (Buchberger's
algorithm, then one interreduction pass), the rational roots of the
univariate eliminant at each level are found by isolate-round-verify, and
roots are back-substituted, except at the last variable, where the reduced
basis is the eliminant alone.  The real roots
are isolated exactly by Sturm bisection, each is rounded to the nearest
multiple of 1/a_n (a_n the integer leading coefficient; every rational root
is one), and that candidate is verified exactly; a linear eliminant is
solved in closed form.  The univariate work runs on integer polynomials:
pseudo-remainders for the Sturm chain, integer evaluation, and exact
division for the squarefree part and for deflating a root.  Only rational
points are produced; levels whose eliminant keeps a factor without rational
roots set a flag, as do levels with no univariate eliminant at all
(positive-dimensional solution sets).  Points with a zero coordinate are
dropped, and every point left is checked against the system.

A polynomial in ``k`` variables is a dict mapping degree ``k``-tuples to
coefficients; the first variable is the most significant for the lex
order.  Internally the coefficients are integers, and Buchberger's
algorithm runs fraction-free: each basis element is kept primitive with a
positive leading coefficient, S-polynomials and reduction steps scale by the
cofactors of leading coefficients, and a root ``p/q`` is substituted by
scaling with ``q`` to the degree of its variable.  Every element is then a
positive multiple of the monic element of the textbook algorithm, so the
pairs chosen and the budget spent are the same.  ``Fraction``s appear only
at the boundary: a system arrives as dicts with rational coefficients, which
``values.primitive_ints`` turns into integers, as it does the univariate
eliminants, and the roots are rationals.  Substituting a root into a dict
and checking a solution against the system are one routine,
``_substitute_last``, applied one variable at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Sequence

from .values import add_row, primitive_ints


# Default cap on the Groebner S-pairs processed per basis computation.
SOLVER_BUDGET = 20000


class BudgetExceeded(RuntimeError):
    """The Groebner pair-processing cap was hit."""


@dataclass(frozen=True)
class TorusSolutionSet:
    solutions: tuple[tuple[Fraction, ...], ...]
    nonzero_dimensional: bool
    irrational_roots_detected: bool


def _normal(p: dict) -> dict:
    """The primitive multiple of a nonzero integer dict with a positive leading coefficient.

    It stands for the line of rational multiples of ``p``: two dicts are
    proportional exactly when their normal forms are equal.
    """
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return p if g == 1 else {k: c // g for k, c in p.items()}


def _sub_multiple(work: dict, g: dict, c: int, shift: tuple) -> None:
    """``work -= c * y^shift * g`` in place; a key whose coefficient cancels is dropped."""
    for k, v in g.items():
        k = tuple(map(add, k, shift))
        nv = work.get(k, 0) - c * v
        if nv:
            work[k] = nv
        else:
            del work[k]


def _reduce(p: dict, basis: Sequence[dict]) -> dict:
    """A positive multiple of the full remainder of p on division by the
    basis, first-found reducer.

    Every basis element has a positive leading coefficient.  A reduction
    step scales what is left of ``p``, and the remainder collected so far,
    by the positive cofactor of the reducer's leading coefficient, then
    cancels the leading term, so the coefficients stay integers.
    """
    leads = [(max(g), g) for g in basis]
    rem: dict = {}
    work = dict(p)
    while work:
        m = max(work)
        c = work[m]
        for gm, g in leads:
            if all(a <= b for a, b in zip(gm, m)):
                lc = g[gm]
                d = gcd(lc, c)
                if lc != d:
                    scale = lc // d
                    work = {k: v * scale for k, v in work.items()}
                    rem = {k: v * scale for k, v in rem.items()}
                _sub_multiple(work, g, c // d, tuple(a - b for a, b in zip(m, gm)))
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def _spoly(f: dict, g: dict) -> dict:
    """A positive multiple of the S-polynomial of the monic multiples of f and g."""
    fm, gm = max(f), max(g)
    l = tuple(map(max, fm, gm))
    a, b = f[fm], g[gm]
    d = gcd(a, b)
    fs, gs = b // d, a // d
    fq = tuple(x - y for x, y in zip(l, fm))
    gq = tuple(x - y for x, y in zip(l, gm))
    out = {tuple(map(add, k, fq)): c * fs for k, c in f.items()}
    _sub_multiple(out, g, gs, gq)
    return out


def _buchberger(polys: Sequence[dict], budget: list) -> list[dict]:
    """Reduced lex Groebner basis of nonzero integer dicts, as normal forms.

    Fraction-free: every element is kept in its ``_normal`` form, and the
    S-polynomials and remainders are positive multiples of those of the
    monic elements, so the elements, their leading monomials, the pairs
    chosen and the budget spent are those of the monic computation.

    The Groebner basis is then interreduced in one pass: each element is
    reduced by the other nonzero ones.  It goes to zero when another leading
    monomial divides its own, and the rest is still a basis; otherwise it
    keeps its leading monomial.  Leading monomials never move, so a second
    pass would change nothing, and the basis is never empty.
    """
    G = [_normal(p) for p in polys]
    pending = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    while pending:
        key = min(pending, key=lambda ij: (tuple(map(max, max(G[ij[0]]), max(G[ij[1]]))), ij))
        pending.discard(key)
        i, j = key
        fm, gm = max(G[i]), max(G[j])
        if tuple(map(max, fm, gm)) == tuple(map(add, fm, gm)):
            continue  # coprime leading monomials never yield new elements
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("Groebner pair budget exceeded")
        r = _reduce(_spoly(G[i], G[j]), G)
        if r:
            G.append(_normal(r))
            pending.update((k, len(G) - 1) for k in range(len(G) - 1))
    # one interreduction pass gives the reduced basis: leading monomials
    # never move, so no later result makes an earlier one reducible again
    for i in range(len(G)):
        r = _reduce(G[i], [g for g in G[:i] + G[i + 1 :] if g])
        G[i] = _normal(r) if r else r
    return sorted((g for g in G if g), key=max)


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
    chain = [poly, primitive_ints([k * c for k, c in enumerate(poly)][1:])]
    while True:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append(primitive_ints([-c for c in rem]))


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
    rounds to a_n times the root.  A linear polynomial, or a linear
    squarefree part, is solved in closed form before any Sturm chain is
    built, and a bisection point that is a root is taken exactly.
    """
    if len(poly) == 2:
        return [Fraction(-poly[0], poly[1])]
    chain = _sturm_chain(poly)
    if len(chain[-1]) > 1:  # repeated roots: the squarefree part has none
        return _root_candidates(_exact_quotient(poly, chain[-1]))
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


def rational_roots(coeffs: Sequence[int | Fraction]) -> tuple[tuple[Fraction, ...], int]:
    """Rational roots of a nonzero univariate polynomial (ascending coeffs).

    Returns the sorted roots and the degree left after all rational root
    factors are divided out; a positive leftover means roots outside Q.
    Candidates come from exact real-root isolation and are verified exactly.
    """
    cs = list(coeffs)
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
    work = primitive_ints(cs)
    for r in _root_candidates(work):
        p, q = r.numerator, r.denominator
        while len(work) > 1 and _scaled_value(work, p, q) == 0:
            roots.add(r)
            work = _exact_quotient(work, [-p, q])
    return tuple(sorted(roots)), len(work) - 1


def _substitute_last(p: dict, num: int, den: int) -> dict:
    """``den**deg * p`` with its last variable set to ``num/den``, ``deg`` its
    degree in that variable: an integer dict, zero exactly when the
    substitution is."""
    deg = max((key[-1] for key in p), default=0)
    nums = [1]
    dens = [1]
    for _ in range(deg):
        nums.append(nums[-1] * num)
        dens.append(dens[-1] * den)
    out: dict = {}
    for key, c in p.items():
        e = key[-1]
        nk = key[:-1]
        out[nk] = out.get(nk, 0) + c * nums[e] * dens[deg - e]
    return {k: c for k, c in out.items() if c}


def _vanishes(p: dict, c: tuple[Fraction, ...]) -> bool:
    """Whether an integer dict vanishes at a rational point: its variables
    are substituted by ``_substitute_last``, the last one first."""
    for x in reversed(c):
        p = _substitute_last(p, x.numerator, x.denominator)
    return not p


def _linear_points(polys: Sequence[dict], k: int) -> tuple[list[tuple], bool]:
    """The solutions of a system of total degree at most one in ``k`` variables.

    One echelon pass (``values.add_row``): each polynomial is the row of its
    coefficients with the negated constant as right-hand side.  Returns the
    point, when the system has exactly one, and whether it is rank deficient
    and consistent, which is positive dimensional.  An inconsistent system
    has no solutions and no flag.
    """
    form: tuple | None = ()
    for p in polys:
        row = [0] * (k + 1)
        for key, c in p.items():
            if 1 in key:
                row[key.index(1)] = c
            else:
                row[k] = -c
        form = add_row(form, row, k)
        if form is None:
            return [], False
    if len(form) < k:
        return [], True
    return [tuple(Fraction(r[k]) for _, r in sorted(form))], False  # every column a pivot


def _groebner_points(
    polys: Sequence[dict], k: int, max_pairs: int = SOLVER_BUDGET
) -> tuple[list[tuple], bool, bool]:
    """The rational solutions of integer dicts in ``k >= 1`` variables by the triangular walk.

    A reduced lex basis is computed at each level, the roots of its
    univariate eliminant in the last variable are substituted, and the walk
    goes on one level down.  At the last variable the reduced basis is the
    eliminant alone, so its roots are the solutions.  Returns the points,
    whether a level was positive dimensional and whether an eliminant kept
    roots outside Q.  The walk is entered only for a system with a term of
    degree at least two, so ``k >= 1``, and it recurses only from two
    variables or more: zero variables go through ``_linear_points``.
    """
    budget = [max_pairs]
    flags = {"dim": False, "irr": False}

    def walk(polys: Sequence[dict], m: int) -> list[tuple]:
        if not polys:
            flags["dim"] = True
            return []
        G = _buchberger(polys, budget)
        if any(max(g) == (0,) * m for g in G):
            return []  # the ideal is the whole ring
        uni = next(
            (g for g in G if all(all(e == 0 for e in key[:-1]) for key in g)), None
        )
        if uni is None:
            flags["dim"] = True
            return []
        deg = max(key[-1] for key in uni)
        coeffs = [0] * (deg + 1)
        for key, c in uni.items():
            coeffs[key[-1]] = c
        roots, leftover = rational_roots(coeffs)
        if leftover > 0:
            flags["irr"] = True
        if m == 1:
            return [(r,) for r in roots]
        out = []
        for r in roots:
            sub = [q for q in (_substitute_last(g, r.numerator, r.denominator) for g in G) if q]
            for partial in walk(sub, m - 1):
                out.append(partial + (r,))
        return out

    return walk(polys, k), flags["dim"], flags["irr"]


def torus_solutions(
    system: Sequence[dict], k: int, max_pairs: int = SOLVER_BUDGET
) -> TorusSolutionSet:
    """All rational solutions of the system in ``k`` variables with every coordinate nonzero.

    Each polynomial of the system is a nonzero dict from degree ``k``-tuples
    to rational coefficients (``int`` or ``Fraction``).  A system of total
    degree at most one is solved by one echelon pass (``_linear_points``)
    and spends no Groebner pairs; any other goes through the Groebner walk
    (``_groebner_points``).  Both give the same solutions and flags.  An
    empty system in zero variables has exactly the empty solution; an empty
    system in a positive number of variables is flagged positive
    dimensional, as is any triangular level without a univariate eliminant.
    """
    dicts = [dict(zip(p, primitive_ints(p.values()))) for p in system]
    if all(sum(key) <= 1 for p in dicts for key in p):
        raw, dim = _linear_points(dicts, k)
        irr = False
    else:
        raw, dim, irr = _groebner_points(dicts, k, max_pairs)
    torus = sorted(c for c in raw if all(c))

    for c in torus:
        if not all(_vanishes(p, c) for p in dicts):
            raise AssertionError("solver produced a non-root; this is a bug")

    return TorusSolutionSet(
        solutions=tuple(torus),
        nonzero_dimensional=dim,
        irrational_roots_detected=irr,
    )
