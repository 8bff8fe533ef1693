"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import hypothesis.strategies as st

from puiseux import LPoly, StepData, WeightMatrix, ramify, shift_y, weighted_order
from puiseux.lpoly import Term
from puiseux.values import canonical


def from_terms(nx, ny, items):
    """Canonicalize ``(coeff, xexp, ydeg)`` triples into an LPoly: merge, drop zeros, sort.

    Coefficients and exponents may be given as any exact rationals; they
    are stored canonical.
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
    return LPoly(nx, ny, tuple(Term(canonical(c), *key) for key, c in sorted(acc.items()) if c))


def lp(nx, ny, *terms):
    """Build an LPoly from (coeff, xexp, ydeg) triples."""
    return from_terms(nx, ny, terms)


def const(nx, ny, c):
    return lp(nx, ny, (c, (0,) * nx, (0,) * ny))


def x_var(nx, ny, i, power=1):
    """``x_i^power``."""
    return lp(nx, ny, (1, tuple(power if j == i else 0 for j in range(nx)), (0,) * ny))


def y_var(nx, ny, i, power=1):
    """``y_i^power``."""
    return lp(nx, ny, (1, (0,) * nx, tuple(power if j == i else 0 for j in range(ny))))


def xm(nx, ny, coeff, *exp):
    """Single x-monomial."""
    return lp(nx, ny, (coeff, tuple(Fraction(e) for e in exp), (0,) * ny))


def value_of(W, exp):
    """The weighted value ``W.exp`` of an exponent vector."""
    if len(exp) != W.n:
        raise ValueError("exponent vector has wrong length")
    return tuple(sum(w * x for w, x in zip(row, exp)) for row in W.rows)


def term_value(W, eta, term):
    """Weighted value of one term; None if it touches a retired coordinate.

    Zero degrees are skipped outright, so an infinite weight paired with a
    zero degree contributes nothing.
    """
    v = value_of(W, term.xexp)
    for b, e in zip(term.ydeg, eta):
        if b:
            if e is None:
                return None
            v = tuple(p + b * q for p, q in zip(v, e))
    return v


def identity(n):
    """The n-by-n identity weight matrix."""
    return WeightMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def scan_etas(scan):
    """The weights of a candidate scan's candidates, in order."""
    return tuple(c.eta for c in scan.candidates)


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
    g3 = y_var(2, 3, 2)
    return [g1, g2, g3]


def defining_data(monomials, W):
    """Step data of a tuple of x-monomials; zero entries become retired rows."""
    etas, gammas, cs = [], [], []
    for m in monomials:
        if m.is_zero:
            etas.append(None)
            gammas.append(None)
            cs.append(Fraction(0))
            continue
        if len(m.terms) != 1 or any(b != 0 for b in m.terms[0].ydeg):
            raise ValueError("defining data needs x-monomial (or zero) entries")
        t = m.terms[0]
        etas.append(value_of(W, t.xexp))
        gammas.append(t.xexp)
        cs.append(t.coeff)
    return StepData(tuple(etas), tuple(gammas), tuple(cs))


def monomials_of(data, nx):
    """The monomial tuple a StepData defines: ``c_i x^gamma_i``, zero if retired."""
    ny = len(data.eta)
    out = []
    for i in range(ny):
        if data.gamma[i] is None:
            out.append(LPoly(nx, ny))
        else:
            out.append(lp(nx, ny, (data.c[i], data.gamma[i], (0,) * ny)))
    return tuple(out)


def initial_form(f, W, eta):
    """The sum of minimum-value terms; zero when the order is infinite."""
    best = weighted_order(f, W, eta)
    if best is None:
        return LPoly(f.nx, f.ny)
    return LPoly(f.nx, f.ny, tuple(t for t in f.terms if term_value(W, eta, t) == best))


def initial_system(gens, W, eta):
    """Reference for ``EtaCandidate.system``: the nonzero initial forms at x = 1.

    One dict per generator whose initial form is not zero, in generator
    order, from the degrees in the finite coordinates of ``eta`` to the sum
    of the coefficients of the terms with those degrees, zero sums dropped.
    """
    lam = [i for i, e in enumerate(eta) if e is not None]
    out = []
    for g in gens:
        h = initial_form(g, W, eta)
        if h.is_zero:
            continue
        d: dict = {}
        for t in h.terms:
            key = tuple(t.ydeg[i] for i in lam)
            d[key] = d.get(key, 0) + t.coeff
        out.append({k: c for k, c in d.items() if c})
    return tuple(out)


def y_free_part(f):
    """The sum of the terms of ``f`` that contain no y variable."""
    return LPoly(f.nx, f.ny, tuple(t for t in f.terms if not any(t.ydeg)))


def residual_order_reference(branch, W):
    """Reference for ``expansion.residual_order``: the least weighted order of
    the y-free parts of the branch's generators, scaled back by ``cum_ram``."""
    orders = [weighted_order(y_free_part(g), W, (None,) * g.ny) for g in branch.gens]
    best = min((o for o in orders if o is not None), default=None)
    return None if best is None else tuple(canonical(Fraction(q, branch.cum_ram)) for q in best)


def is_prevariety_point(gens, W, eta):
    """Generator-level membership test: no initial form may be a monomial.

    An initial form that vanishes means the generator is absorbed by the
    retired coordinates and imposes nothing; a single-term initial form is a
    monomial witness and rejects the weight.
    """
    for g in gens:
        h = initial_form(g, W, tuple(eta))
        if h.is_zero:
            continue
        if len(h.terms) < 2:
            return False
    return True


def lower_terms(restricted, W, lam, floor, closed):
    """Reference for one ``lam``: the restricted terms that can reach a minimum, in term order.

    Each entry is ``(term, W.xexp, lam-degrees)``.  A term ``t`` is dropped
    when another term ``s`` has lam-degrees componentwise at most those of
    ``t`` and a floor-adjusted value ``W.xexp + sum(ydeg[i] * floor[i])``
    below that of ``t``: strictly below over the closed region ``eta_i >=
    floor_i``, at most equal over the open region ``eta_i > floor_i``.
    Without a floor only terms of equal lam-degrees are compared.  This is
    the staircase that ``tropical`` computed for each ``lam`` on its own.
    """
    entries = []  # (term, W.xexp, lam-degrees, floor-adjusted value)
    for t in restricted:
        xval = value_of(W, t.xexp)
        degs = tuple(t.ydeg[i] for i in lam)
        adj = xval
        if floor is not None:
            adj = tuple(
                v + sum(b * e[k] for b, e in zip(degs, floor) if b) for k, v in enumerate(xval)
            )
        entries.append((t, xval, degs, adj))

    def dominates(s, t) -> bool:
        _, _, s_degs, s_adj = s
        _, _, t_degs, t_adj = t
        if floor is None:
            return s_degs == t_degs and s_adj < t_adj
        if not all(p <= q for p, q in zip(s_degs, t_degs)):
            return False
        return s_adj < t_adj if closed else s_adj <= t_adj

    return [e[:3] for e in entries if not any(dominates(s, e) for s in entries if s is not e)]


# Plain ``Fraction`` references for the arithmetic of the program: the
# substitution kernel (``shift_y``, ``substitute_y``) and the parser's
# products are checked against these.


def naive_sum(*polys):
    """The sum of polynomials of one ring."""
    return lp(polys[0].nx, polys[0].ny, *(t for f in polys for t in f.terms))


def naive_scale(f, c):
    """``c * f`` for a rational ``c``."""
    return lp(f.nx, f.ny, *((c * t.coeff, t.xexp, t.ydeg) for t in f.terms))


def naive_product(f, g):
    """``f * g`` by a plain ``Fraction`` dict expansion."""
    acc = {}
    for s in f.terms:
        for t in g.terms:
            xe = tuple(a + b for a, b in zip(s.xexp, t.xexp))
            yd = tuple(a + b for a, b in zip(s.ydeg, t.ydeg))
            acc[(xe, yd)] = acc.get((xe, yd), Fraction(0)) + s.coeff * t.coeff
    return from_terms(f.nx, f.ny, [(c, xe, yd) for (xe, yd), c in acc.items()])


def naive_power(f, k):
    out = const(f.nx, f.ny, 1)
    for _ in range(k):
        out = naive_product(out, f)
    return out


def primitive(f):
    """``f`` times the positive rational that makes its coefficients coprime integers."""
    if f.is_zero:
        return f
    den = lcm(*(Fraction(t.coeff).denominator for t in f.terms))
    content = gcd(*(int(t.coeff * den) for t in f.terms))
    return naive_scale(f, Fraction(den, content))


def naive_substitute(f, images):
    """``f`` with ``y_i -> images[i]``, one term and one power at a time."""
    parts = []
    for t in f.terms:
        m = lp(f.nx, f.ny, (t.coeff, t.xexp, (0,) * f.ny))
        for g, b in zip(images, t.ydeg):
            m = naive_product(m, naive_power(g, b))
        parts.append(m)
    return naive_sum(LPoly(f.nx, f.ny), *parts)


def recenter_in_three_passes(branch, data):
    """The generators of ``expansion.recenter``, made in three passes: ramify,
    drop the terms that carry a newly retired y, and shift the active ys,
    dropping a generator that retiring zeroes before any shift."""
    k = data.dgamma
    newly = [i for i, e in enumerate(data.eta) if e is None and i not in branch.retired]
    gens = []
    for g in branch.gens:
        h = ramify(g, k)
        h = LPoly(h.nx, h.ny, tuple(t for t in h.terms if not any(t.ydeg[i] for i in newly)))
        if h.is_zero:
            continue
        shifts = [
            (0, (0,) * h.nx) if row is None else (c, tuple(e * k for e in row))
            for c, row in zip(data.c, data.gamma)
        ]
        gens.append(shift_y(h, shifts))
    return tuple(gens)


def series_terms(s):
    """The x-only polynomial ``s`` as the term list ``substitute_y`` reads."""
    return [(t.coeff, t.xexp) for t in s.terms]


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero_rats = small_rats.filter(lambda q: q != 0)


def xexps(nx):
    return st.tuples(*([small_rats] * nx))


def ydegs(ny, max_deg=3):
    return st.tuples(*([st.integers(0, max_deg)] * ny))


def lpolys(nx, ny, max_terms=5):
    return st.lists(
        st.tuples(nonzero_rats, xexps(nx), ydegs(ny)), min_size=0, max_size=max_terms
    ).map(lambda ts: from_terms(nx, ny, ts))


def vals(dim):
    return st.tuples(*([small_rats] * dim))


def etas(ny, dim):
    entry = st.one_of(st.none(), vals(dim))
    return st.tuples(*([entry] * ny))


def vadd(a, b):
    """Sum of two values; None (infinity) absorbs."""
    return None if a is None or b is None else tuple(p + q for p, q in zip(a, b))


def vscale(v, k):
    """A value times a positive integer; None (infinity) stays None."""
    return None if v is None else tuple(q * k for q in v)


def assert_trace_monotone(trace):
    """Every finite weight strictly exceeds the previous step's scaled weight."""
    floor = None
    for t in trace:
        for i, e in enumerate(t.eta):
            if e is not None and floor is not None:
                assert e > floor[i], "weight failed to increase along a branch"
        floor = tuple(vscale(e, t.dgamma) for e in t.eta)
