"""Sparse Laurent-Puiseux polynomials: a canonical term store and the substitution kernel.

Terms are ``c * x^a * y^b`` with rational x-exponents (negative and
fractional allowed) and nonnegative integer y-degrees.  The problem parser,
both substitutions and ``ramify`` store a coefficient or an x-exponent as
``int`` when it is integral and as ``Fraction`` only when not
(``values.canonical``), so recentered generators keep canonical exponents
for any input.
Polynomials are kept in a canonical form, sorted by the plain tuple
``(xexp, ydeg)``, so equality and hashing are structural and independent of
any weight.

The only polynomial arithmetic is the y-substitution kernel and its product
routine; recentering (``shift_y``, ``y_i -> y_i + c_i x^gamma_i`` on the
active coordinates and ``y_i -> 0`` on the retired ones) and the residual
(``substitute_y``) use it.  (The problem parser multiplies its own
term dicts, whose exponents may still be fractions with unknown bounds.)
The substitution runs on integers.  Each operand is read as integer
numerators over the lcm of its coefficient denominators, and each exponent
vector, its x-exponents scaled by their common denominator to ``int``s and
then its y-degrees, is packed into one ``int`` in mixed radix, with field
widths read off the operands (see ``_substitute``).  Multiplying two terms
is then one ``int`` addition and one ``int`` multiplication, and summing
one ``int``-keyed dict update.  ``shift_y`` passes its binomial images (the
zero image on a retired coordinate), and ``substitute_y`` each series as its
``(c, exponent)`` term list, the form ``expansion`` and the solution reader
already hold, leaving repeated exponents and zero coefficients for the
kernel to sum.  The kernel has one
finisher: it sorts the packed keys, which is the canonical order, unpacks
each once, and divides the numerators of the sum by their gcd, so both
substitutions return the primitive integer multiple of the exact
polynomial, which differs from it by a positive constant.  Everything read
off a branch's generators (``expansion``) and off a residual is unchanged by
that constant: supports, weighted orders and initial systems up to scale.
``primitive`` brings any polynomial to the same form, with the integer
normal form of ``values.primitive_ints``.

The weighted value of a term under ``W`` and the y-weights ``eta`` is the
tuple ``W.xexp + sum(ydeg[i] * eta[i])``.  A coordinate with infinite
weight (``None``) makes every term containing it infinite, while zero
degrees contribute nothing regardless of the weight.  ``term_values`` is
the one routine that values terms: it makes ``W.xexp`` for a whole term
sequence a column at a time.  Terms of equal y-degrees differ in value by
``W.xexp`` alone, so ``lowest_terms`` keeps the lowest term of each
y-degree vector; ``weighted_order`` (which drops the terms of infinite
value before any is valued), the staircases of ``tropical`` and
``expansion.forced_step`` read those, and ``expansion``'s forced chains
key their value groups by the values themselves.

``render_poly`` is the one polynomial printer: the output documents and
``LPoly``'s repr (with the names ``x1..``, ``y1..``) use it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm, prod
from operator import add, attrgetter, floordiv, itemgetter, mod, mul
from typing import Iterable, NamedTuple, Sequence

from .values import WeightMatrix, canonical, primitive_ints


class Term(NamedTuple):
    coeff: int | Fraction
    xexp: tuple[int | Fraction, ...]
    ydeg: tuple[int, ...]


@dataclass(frozen=True, slots=True, repr=False)
class LPoly:
    """A finite sum of terms in canonical sorted form.

    The constructor trusts its input to already be canonical: every maker
    of terms (the problem parser, the substitution kernel, ``ramify``,
    ``primitive``) builds them so.  ``LPoly(nx, ny)`` is the zero polynomial.
    """

    nx: int
    ny: int
    terms: tuple[Term, ...] = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        xs = ["x%d" % i for i in range(1, self.nx + 1)]
        return "LPoly(%s)" % render_poly(self, xs, ["y%d" % i for i in range(1, self.ny + 1)])


def _exp_str(name: str, e: str) -> str:
    """``name`` raised to the nonzero exponent written ``e`` (a "p/q" string)."""
    if e == "1":
        return name
    if "/" in e or e.startswith("-"):
        return "%s^(%s)" % (name, e)
    return "%s^%s" % (name, e)


def _sum_str(terms) -> str:
    """Signed sum of ``(coefficient string, factor strings)`` pairs, in the given order."""
    out = ""
    for coeff, factors in terms:
        negative = coeff.startswith("-")
        mag = coeff[1:] if negative else coeff
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if out:
            out += (" - " if negative else " + ") + body
        else:
            out = ("-" if negative else "") + body
    return out or "0"


def render_poly(f: LPoly, x_names: Sequence[str], y_names: Sequence[str]) -> str:
    """Canonical, re-parseable text form of a polynomial."""
    return _sum_str(
        (
            str(t.coeff),
            [_exp_str(x_names[i], str(e)) for i, e in enumerate(t.xexp) if e != 0]
            + [_exp_str(y_names[i], str(b)) for i, b in enumerate(t.ydeg) if b != 0],
        )
        for t in f.terms
    )


def _key(xexp: tuple, xden: int) -> tuple[int, ...]:
    """The rationals ``xexp`` times ``xden``, which clears their denominators, as ``int``s."""
    return tuple(
        e * xden if type(e) is int else e.numerator * (xden // e.denominator) for e in xexp
    )


def _product(p: Iterable, q: Sequence) -> dict:
    """Product of two ``(key, numerator)`` sequences, merged, unsorted; keys add."""
    acc: dict = defaultdict(int)
    for pk, pn in p:
        for qk, qn in q:
            acc[pk + qk] += pn * qn
    return acc


def _from_numerators(nx: int, ny: int, xden: int, acc: dict, lead: int, fields: list) -> LPoly:
    """The kernel's finisher: the primitive integer polynomial with the numerators ``acc``.

    The nonzero numerators are divided by their gcd, so the result is a
    positive multiple of the sum.  A key is a term's packed exponent less
    the lows (see ``_substitute``): ``lead`` is the place of its first
    field, and ``fields`` holds the ``(place, radix, low)`` of each later
    one, whose digit lies in ``[0, radix)``.  Keys are sorted as integers,
    which is the canonical order, and unpacked one field at a time over all
    keys at once: the first field is the key floor-divided by its place, a
    later one that quotient modulo its radix, plus its low.  These per-term
    steps run as builtin maps rather than a Python loop per term; a field of
    radix 1 is its low throughout, and an x-exponent over ``xden`` is made
    once per distinct value.
    """
    keys = sorted(compress(acc, acc.values()))
    if not keys:
        return LPoly(nx, ny)
    nums = map(floordiv, map(acc.__getitem__, keys), repeat(gcd(*acc.values())))
    cols = [map(floordiv, keys, repeat(lead))]
    for p, r, lo in fields:
        if r == 1:
            cols.append(repeat(lo, len(keys)))
            continue
        col = map(mod, map(floordiv, keys, repeat(p)) if p > 1 else keys, repeat(r))
        cols.append(map(add, col, repeat(lo)) if lo else col)
    if xden != 1:
        cols[:nx] = [list(c) for c in cols[:nx]]
        exps = {e: canonical(Fraction(e, xden)) for e in set(chain(*cols[:nx]))}
        cols[:nx] = [map(exps.__getitem__, c) for c in cols[:nx]]
    # tuple.__new__ makes each Term without the Python-level NamedTuple constructor
    terms = map(tuple.__new__, repeat(Term), zip(nums, zip(*cols[:nx]), zip(*cols[nx:])))
    return LPoly(nx, ny, tuple(terms))


def primitive(f: LPoly) -> LPoly:
    """The primitive integer multiple of ``f`` by a positive rational.

    Its coefficients are brought to ``values.primitive_ints``.  The zero
    polynomial stays zero.
    """
    nums = primitive_ints([t.coeff for t in f.terms])
    return LPoly(f.nx, f.ny, tuple(Term(n, t.xexp, t.ydeg) for n, t in zip(nums, f.terms)))


def term_values(terms: Sequence[Term], W: WeightMatrix) -> list[tuple]:
    """The value ``W.xexp`` of each term, in order, as one tuple per term.

    The values are made a column at a time: the x-exponents are read as
    columns, and each row of ``W`` sums its nonzero multiples of them with
    builtin maps rather than a Python loop per term.
    """
    if not terms:
        return []
    cols = list(zip(*map(itemgetter(1), terms)))
    vcols = []
    for r in W.rows:
        acc = None
        for w, col in zip(r, cols):
            if w:
                part = col if w == 1 else map(mul, col, repeat(w))
                acc = part if acc is None else map(add, acc, part)
        vcols.append(repeat(0, len(terms)) if acc is None else acc)
    return list(zip(*vcols))


def lowest_terms(terms: Sequence[Term], W: WeightMatrix) -> dict:
    """The lowest of the given terms of each y-degree vector by ``W``.

    Maps each y-degree vector that occurs among ``terms`` to ``(W.xexp,
    index, term)`` of its term of least value, ``index`` its place in
    ``terms``.  Terms of equal y-degrees have distinct x-exponents, and
    ``W`` is injective, so the lowest one is unique.  The values come from
    ``term_values``; ``weighted_order``, ``tropical.staircases`` and
    ``expansion.forced_step`` read them off this map.
    """
    lowest: dict = {}
    for j, (t, xval) in enumerate(zip(terms, term_values(terms, W))):
        prev = lowest.get(t.ydeg)
        if prev is None or xval < prev[0]:
            lowest[t.ydeg] = (xval, j, t)
    return lowest


def weighted_order(f: LPoly, W: WeightMatrix, eta: Sequence[tuple | None]) -> tuple | None:
    """Minimum weighted value over the support; None for the zero polynomial.

    The terms with a nonzero degree in a coordinate of infinite weight are
    skipped before any term is valued, as whole y-degree vectors: a
    polynomial without such terms, as a residual is, is not copied.  The
    minimum is then taken over the lowest of the other terms of each
    y-degree vector (``lowest_terms``), each adding ``ydeg[i] * eta[i]`` to
    its ``W.xexp``.
    """
    terms = f.terms
    off = [i for i, e in enumerate(eta) if e is None]
    if off:
        ydegs = list(map(itemgetter(2), terms))
        degs = set(ydegs)
        keep = {yd for yd in degs if not any(yd[i] for i in off)}
        if len(keep) < len(degs):
            terms = list(compress(terms, map(keep.__contains__, ydegs)))
    values = []
    for yd, (v, _, _) in lowest_terms(terms, W).items():
        for b, e in zip(yd, eta):
            if b:
                v = tuple([p + b * q for p, q in zip(v, e)])
        values.append(v)
    return min(values, default=None)


def ramify(f: LPoly, k: int) -> LPoly:
    """Substitute every x variable by its k-th power: x-exponents scale by k."""
    if k < 1:
        raise ValueError("ramification index must be a positive integer")
    if k == 1:
        return f
    return LPoly(
        f.nx,
        f.ny,
        tuple(Term(t.coeff, tuple(canonical(e * k) for e in t.xexp), t.ydeg) for t in f.terms),
    )


def _substitute(f: LPoly, images: Sequence[tuple[int, int, list]]) -> LPoly:
    """The primitive integer multiple of ``f`` with ``y_i`` replaced by ``images[i]``.

    An image is a triple ``(den_i, ynum_i, items_i)``, the polynomial
    ``(ynum_i * y_i + sum(n * x^e for e, n in items_i)) / den_i`` with
    integer numerators; ``items_i`` may repeat an exponent or hold a zero
    numerator.  The sum is expanded exactly on integers and finished by
    ``_from_numerators``.

    Every exponent is keyed by one ``int``.  The x-exponents of ``f`` and of
    the images are scaled to integers by their common denominator ``xden``,
    read off one transposed pass over ``f``'s exponents that also gives
    their extremes.  A key is ``sum(e_j * place_j)`` over the scaled
    x-exponents and then the y-degrees, in mixed radix with the first field
    unbounded, so adding keys adds exponents.  Each later x-field has a
    window ``[low, low + radix)``: the extremes of ``f``'s exponents, widened
    by each image's extremes and 0 times ``maxdeg_i``, the largest degree of
    ``y_i`` in ``f``.  The field of ``y_i`` is ``[0, maxdeg_i]``, or takes
    no room (radix 1) when the image holds no ``y_i``, as in the residual
    and on a retired coordinate.  The keys of every power, product and term
    of the sum lie in windows this wide, so packing is injective on each
    dict of the kernel; a term of ``f`` is keyed less the lows, so each
    later field of a key of the sum is a digit in ``[0, radix)`` and the
    keys sort as the exponent tuples do.

    Every term of ``f`` is put over ``big``, the lcm of the coefficient
    denominators of ``f`` times ``den_i ** maxdeg_i`` for every image, by
    an exact integer.  Each power ``b`` of image ``i`` is built once, from
    power ``b - 1``, and each distinct y-monomial of ``f`` is expanded once.
    An exponent of an image is read as an ``int`` even when it is given as
    an integral ``Fraction``.
    """
    nx, ny = f.nx, f.ny
    if not f.terms:
        return f
    maxdeg = list(map(max, zip(*map(itemgetter(2), f.terms))))
    cols = list(zip(*map(itemgetter(1), f.terms)))
    exps = chain(*cols, *(e for _, _, items in images for e, _ in items))
    xden = lcm(*map(attrgetter("denominator"), exps))
    if xden != 1:
        cols = [_key(c, xden) for c in cols]
        images = [(d, yn, [(_key(e, xden), n) for e, n in items]) for d, yn, items in images]
    lows, radices = [], []
    for j in range(1, nx):
        lo, hi = min(cols[j]), max(cols[j])
        for (_, _, items), m in zip(images, maxdeg):
            if m and items:
                ej = [e[j] for e, _ in items]
                lo += m * min(0, *ej)
                hi += m * max(0, *ej)
        lows.append(int(lo))
        radices.append(int(hi - lo + 1))
    lows += [0] * ny
    radices += [m + 1 if yn else 1 for (_, yn, _), m in zip(images, maxdeg)]
    places = list(accumulate(reversed(radices), mul, initial=1))
    places.reverse()
    fkeys = [-sum(map(mul, lows, places[1:]))] * len(f.terms)
    for c, p in zip(cols, places):
        fkeys = list(map(add, fkeys, map(mul, c, repeat(p))))
    packed = []
    for p, (_, yn, items) in zip(places[nx:], images):
        ks = [(int(sum(map(mul, e, places))), n) for e, n in items]
        packed.append([(p, yn), *ks] if yn else ks)

    big = lcm(*(t.coeff.denominator for t in f.terms)) * prod(
        d**m for (d, _, _), m in zip(images, maxdeg)
    )
    one = [(0, 1)]
    powers: dict = {}  # (i, b) -> numerators of image i to the b over den_i ** b

    def power(i: int, b: int) -> list:
        if (i, b) not in powers:
            prev = power(i, b - 1) if b > 1 else one
            powers[(i, b)] = list(_product(prev, packed[i]).items())
        return powers[(i, b)]

    expanded: dict = {}  # y-degrees -> (denominator, numerators) of the image monomial
    acc: dict = defaultdict(int)
    for t, fk in zip(f.terms, fkeys):
        if t.ydeg not in expanded:
            den, m = 1, one
            for i, b in enumerate(t.ydeg):
                if b:
                    den *= images[i][0] ** b
                    m = power(i, b) if m is one else list(_product(m, power(i, b)).items())
            expanded[t.ydeg] = (den, m)
        den, m = expanded[t.ydeg]
        c = t.coeff
        s = c.numerator * (big // (c.denominator * den))
        for k, n in m:
            acc[fk + k] += s * n
    return _from_numerators(nx, ny, xden, acc, places[0], list(zip(places[1:], radices, lows)))


def shift_y(f: LPoly, shifts: Sequence[tuple | None]) -> LPoly:
    """The primitive integer multiple of ``f`` with ``y_i -> y_i + c_i * x^xexp_i``.

    ``shifts[i]`` is the pair ``(c_i, xexp_i)``, or None for ``y_i -> 0``,
    a coordinate of infinite weight: every term that carries ``y_i`` drops
    out, as in the residual of an empty series.  A zero ``c_i`` leaves
    ``y_i`` as it is.  The exact substitution's numerators are divided by
    their gcd, so the result is the exact polynomial times a positive
    constant (see the module docstring); the zero polynomial stays zero,
    and so does a polynomial whose every term carries a zeroed ``y_i``.
    """
    if len(shifts) != f.ny:
        raise ValueError("need one shift per y coordinate")
    images = [
        (1, 0, []) if s is None
        else (1, 1, []) if not s[0]
        else (s[0].denominator, s[0].denominator, [(s[1], s[0].numerator)])
        for s in shifts
    ]
    return _substitute(f, images)


def substitute_y(f: LPoly, coords: Sequence[Sequence[tuple]]) -> LPoly:
    """Substitute ``y_i`` by the series ``coords[i]``, a sequence of ``(c, exponent)`` terms.

    The terms are read straight into integer numerators; a repeated
    exponent, a zero coefficient or an empty series is summed by the kernel.
    Returns the primitive integer multiple of the residual polynomial in the
    x variables: the exact residual times a positive constant, with the same
    support and weighted orders.
    """
    nx = f.nx
    if len(coords) != f.ny:
        raise ValueError("need one series per y coordinate")
    if any(len(e) != nx for coord in coords for _, e in coord):
        raise ValueError("series exponent arity does not match the polynomial ring")
    images = []
    for coord in coords:
        d = lcm(*(c.denominator for c, _ in coord))
        images.append((d, 0, [(e, c.numerator * (d // c.denominator)) for c, e in coord]))
    return _substitute(f, images)
