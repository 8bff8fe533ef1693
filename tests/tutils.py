"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from puiseux import LPoly, StepData, WeightMatrix, term_value, weighted_order


def lp(nx, ny, *terms):
    """Build an LPoly from (coeff, xexp, ydeg) triples."""
    return LPoly.from_terms(nx, ny, terms)


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
        etas.append(W.value_of(t.xexp))
        gammas.append(t.xexp)
        cs.append(t.coeff)
    return StepData(tuple(etas), tuple(gammas), tuple(cs))


def monomials_of(data, nx):
    """The monomial tuple a StepData defines: ``c_i x^gamma_i``, zero if retired."""
    ny = len(data.eta)
    out = []
    for i in range(ny):
        if data.gamma[i] is None:
            out.append(LPoly.zero(nx, ny))
        else:
            out.append(lp(nx, ny, (data.c[i], data.gamma[i], (0,) * ny)))
    return tuple(out)


def initial_form(f, W, eta):
    """The sum of minimum-value terms; zero when the order is infinite."""
    best = weighted_order(f, W, eta)
    if best is None:
        return LPoly.zero(f.nx, f.ny)
    return LPoly(f.nx, f.ny, tuple(t for t in f.terms if term_value(W, eta, t) == best))


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
        xval = W.value_of(t.xexp)
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
    return LPoly.from_terms(f.nx, f.ny, [(c, xe, yd) for (xe, yd), c in acc.items()])


def naive_power(f, k):
    out = const(f.nx, f.ny, 1)
    for _ in range(k):
        out = naive_product(out, f)
    return out


def naive_substitute(f, images):
    """``f`` with ``y_i -> images[i]``, one term and one power at a time."""
    parts = []
    for t in f.terms:
        m = lp(f.nx, f.ny, (t.coeff, t.xexp, (0,) * f.ny))
        for g, b in zip(images, t.ydeg):
            m = naive_product(m, naive_power(g, b))
        parts.append(m)
    return naive_sum(LPoly.zero(f.nx, f.ny), *parts)


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
