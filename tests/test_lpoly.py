from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, seed

from puiseux import (
    LPoly,
    WeightMatrix,
    parse_problem,
    ramify,
    render_poly,
    shift_y,
    substitute_y,
    weighted_order,
)
from puiseux.problem import _product
from puiseux.values import sort_key
from tutils import (
    etas,
    from_terms,
    identity,
    initial_form,
    lp,
    lpolys,
    naive_power,
    naive_product,
    naive_scale,
    naive_substitute,
    naive_sum,
    primitive,
    series_terms,
    small_rats,
    term_value,
    vadd,
    vscale,
    x_var,
    xexps,
    xm,
    y_var,
    ydegs,
)

W1 = identity(1)
W2 = identity(2)


class TestArithmetic:
    """The canonical term store: ``from_terms`` merges, cancels and drops zeros."""

    def test_add_zero(self):
        f = lp(1, 1, (3, (F(1, 2),), (1,)))
        assert lp(1, 1, (3, (F(1, 2),), (1,)), (0, (F(1),), (0,))) == f

    def test_cancellation_gives_zero(self):
        assert lp(1, 1, (1, (F(1),), (0,)), (-1, (1,), (0,))).is_zero

    def test_canonical_form_merges_duplicates(self):
        f = lp(1, 1, (1, (F(1),), (0,)), (2, (F(1),), (0,)))
        assert len(f.terms) == 1
        assert f.terms[0].coeff == 3

    def test_coefficients_are_canonical(self):
        # integral coefficients are ints, given as a Fraction or reached by merging
        half, third = F(1, 2), F(1, 3)
        f = lp(
            1, 1, (F(3), (0,), (1,)), (half, (1,), (0,)), (half, (1,), (0,)), (third, (2,), (0,))
        )
        assert [(type(t.coeff), t.coeff) for t in f.terms] == [(int, 3), (int, 1), (F, third)]
        parsed = parse_gen("3*y1 - (1/2)*x1 - (3/2)*x1")
        assert [type(t.coeff) for t in parsed.terms] == [int, int]

    def test_repr_is_the_rendered_polynomial(self):
        f = lp(2, 2, (F(-1, 2), (F(3, 2), 0), (0, 2)), (1, (0, -1), (1, 0)))
        assert repr(f) == "LPoly(x2^(-1)*y1 - 1/2*x1^(3/2)*y2^2)"
        assert repr(LPoly(1, 1)) == "LPoly(0)"

    def test_negative_ydeg_rejected(self):
        with pytest.raises(ValueError):
            lp(1, 1, (1, (F(0),), (-1,)))


class TestWeightedOrder:
    def test_tie_between_x_and_y(self):
        f = lp(2, 1, (1, (F(1), F(0)), (0,)), (1, (F(0), F(0)), (1,)))
        assert weighted_order(f, W2, ((1, 0),)) == (1, 0)

    def test_retired_variable_gives_inf(self):
        f = y_var(1, 1, 0)
        assert weighted_order(f, W1, (None,)) is None

    def test_zero_polynomial_gives_inf(self):
        assert weighted_order(LPoly(1, 1), W1, ((1,),)) is None

    def test_inf_weight_with_zero_degree_contributes_nothing(self):
        # x1 alone keeps a finite order even when the y weight is infinite
        f = x_var(1, 1, 0)
        assert weighted_order(f, W1, (None,)) == (1,)


class TestInitialForm:
    """The reference ``tutils.initial_form``, which the prevariety tests rely on."""

    def binomial(self, beta, *phi):
        """``y^beta - sum(x^a for a in phi)``."""
        return lp(1, 1, (1, (0,), (beta,)), *((-1, (a,), (0,)) for a in phi))

    def test_y_power_dominates(self):
        f = self.binomial(2, 1)
        # 2 * eta < 1: the pure power is alone at the bottom
        got = initial_form(f, W1, ((F(1, 4),),))
        assert got == y_var(1, 1, 0, power=2)

    def test_tie_keeps_both_sides(self):
        f = self.binomial(1, 1, 2)
        got = initial_form(f, W1, ((1,),))
        assert got == self.binomial(1, 1)

    def test_series_side_dominates(self):
        f = self.binomial(1, 1, 2)
        got = initial_form(f, W1, ((5,),))
        assert got == xm(1, 1, -1, 1)

    def test_mixed_system_initial(self):
        # x1 + y1 - y2 + y1*y2 + y3 with the third coordinate retired
        f = lp(
            2,
            3,
            (1, (F(1), F(0)), (0, 0, 0)),
            (1, (F(0), F(0)), (1, 0, 0)),
            (-1, (F(0), F(0)), (0, 1, 0)),
            (1, (F(0), F(0)), (1, 1, 0)),
            (1, (F(0), F(0)), (0, 0, 1)),
        )
        eta = ((1, 0), (1, 0), None)
        got = initial_form(f, W2, eta)
        want = lp(
            2,
            3,
            (1, (F(1), F(0)), (0, 0, 0)),
            (1, (F(0), F(0)), (1, 0, 0)),
            (-1, (F(0), F(0)), (0, 1, 0)),
        )
        assert got == want

    def test_zero_when_order_infinite(self):
        f = y_var(1, 1, 0)
        assert initial_form(f, W1, (None,)).is_zero


class TestSubstitutions:
    def test_ramify_half_exponent(self):
        f = x_var(1, 1, 0, power=F(1, 2))
        assert ramify(f, 2) == x_var(1, 1, 0)

    def test_ramify_leaves_y_alone(self):
        f = lp(2, 1, (1, (F(1), F(1)), (0,)), (1, (F(0), F(0)), (1,)))
        want = lp(2, 1, (1, (F(3), F(3)), (0,)), (1, (F(0), F(0)), (1,)))
        assert ramify(f, 3) == want

    def test_ramify_by_one_is_the_polynomial_itself(self):
        f = lp(1, 1, (F(1, 2), (F(1, 3),), (1,)))
        assert ramify(f, 1) is f

    def test_ramify_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ramify(x_var(1, 1, 0), 0)

    def test_shift_binomial(self):
        f = y_var(1, 1, 0, power=2)
        # (y + x)^2 = y^2 + 2*x*y + x^2
        want = lp(1, 1, (1, (0,), (2,)), (2, (1,), (1,)), (1, (2,), (0,)))
        assert shift_y(f, [(1, (1,))]) == want

    def test_shift_exact_cancellation(self):
        f = lp(1, 1, (1, (0,), (1,)), (-1, (1,), (0,)))  # y - x
        assert shift_y(f, [(1, (1,))]) == y_var(1, 1, 0)

    def test_shift_two_coordinates(self):
        f = lp(1, 2, (1, (F(0),), (1, 1)))
        got = shift_y(f, [(1, (1,)), (-1, (1,))])
        # (y1 + x)(y2 - x) = y1*y2 - x*y1 + x*y2 - x^2
        want = lp(
            1, 2, (1, (0,), (1, 1)), (-1, (1,), (1, 0)), (1, (1,), (0, 1)), (-1, (2,), (0, 0))
        )
        assert got == want

    def test_shift_zero_is_identity(self):
        f = lp(1, 2, (2, (F(1),), (1, 2)), (-3, (F(0),), (0, 1)))
        assert shift_y(f, [(0, (1,)), (0, (0,))]) == f
        assert shift_y(f, [(0, (1,)), (F(0), (F(-1, 2),))]) == f

    def test_set_y_zero(self):
        """A None shift retires its coordinate: the terms that carry it drop
        out, the others are shifted, and a polynomial of retired terms only
        becomes zero."""
        f = lp(1, 2, (1, (F(0),), (1, 0)), (1, (F(0),), (0, 1)), (1, (F(1),), (0, 0)))
        assert shift_y(f, [(0, (0,)), None]) == lp(1, 2, (1, (F(0),), (1, 0)), (1, (F(1),), (0, 0)))
        # y1 + x -> (y1 + x) + x, made primitive
        assert shift_y(f, [(1, (1,)), None]) == lp(1, 2, (1, (0,), (1, 0)), (2, (1,), (0, 0)))
        assert shift_y(lp(1, 2, (3, (F(1, 2),), (1, 2))), [None, (1, (1,))]).is_zero

    def test_substitute_exact_root(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(1),), (0,)))  # y^2 - x
        s = x_var(1, 1, 0, power=F(1, 2))
        assert substitute_y(f, [series_terms(s)]).is_zero

    def test_substitute_zero_series(self):
        f = lp(1, 1, (1, (0,), (1,)), (-1, (1,), (0,)))  # y - x
        got = substitute_y(f, [[]])
        assert got == xm(1, 1, -1, 1)

    def test_substitute_truncation_residual(self):
        # y^2 - x^2 - x^3 at x + x^2/2 leaves exactly x^4/4
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
        s = lp(1, 1, (1, (1,), (0,)), (F(1, 2), (2,), (0,)))
        got = substitute_y(f, [series_terms(s)])
        assert got == primitive(naive_substitute(f, [s])) == xm(1, 1, 1, 4)
        assert weighted_order(got, W1, (None,)) == (4,)


def assert_canonical_exponents(f):
    """Every integral x-exponent is an ``int``, every other one a ``Fraction``."""
    for t in f.terms:
        for e in t.xexp:
            assert type(e) is (int if F(e).denominator == 1 else F)


def parse_gen(expr, nx=1, ny=1):
    """The generator ``expr`` over ``x1..x{nx}``, ``y1..y{ny}``, as the problem parser reads it."""
    names = ["x%d" % (i + 1) for i in range(nx)] + ["y%d" % (i + 1) for i in range(ny)]
    rows = "".join(
        "weight %s\n" % " ".join(str(int(i == j)) for j in range(nx)) for i in range(nx)
    )
    return parse_problem("vars %s\n%sgen %s\n" % (" ".join(names), rows, expr)).gens[0]


class TestCanonicalExponents:
    """Products and powers (the parser's), shifts and substitutions keep ``int`` exponents."""

    half = F(1, 2)

    def test_product(self):
        got = parse_gen("y1 - x1^(1/2)*x1^(1/2)")
        assert got == lp(1, 1, (1, (0,), (1,)), (-1, (1,), (0,)))
        assert [type(t.xexp[0]) for t in got.terms] == [int, int]

    def test_power(self):
        got = parse_gen("(x1^(1/3) + y1)^3")
        assert [t.xexp[0] for t in got.terms] == [0, F(1, 3), F(2, 3), 1]
        assert_canonical_exponents(got)

    def test_shift_y(self):
        got = shift_y(y_var(1, 1, 0, power=2), [(1, (self.half,))])
        assert [t.xexp[0] for t in got.terms] == [0, self.half, 1]
        assert [t.coeff for t in got.terms] == [1, 2, 1]
        assert_canonical_exponents(got)

    def test_substitute_y(self):
        root = x_var(1, 1, 0, power=self.half)
        got = substitute_y(y_var(1, 1, 0, power=2), [series_terms(root)])
        assert got == x_var(1, 1, 0)
        assert type(got.terms[0].xexp[0]) is int


# Coefficients with pairwise coprime denominators, so the kernel's common
# denominators are products, not one shared small number.
coprime_rats = st.builds(
    F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 11])
)


def mixed_lpolys(nx, ny, max_terms=4, max_deg=2):
    terms = st.tuples(coprime_rats, xexps(nx), ydegs(ny, max_deg))
    return st.lists(terms, max_size=max_terms).map(lambda ts: from_terms(nx, ny, ts))


X_ONLY = mixed_lpolys(2, 2, max_terms=3, max_deg=0)
# series term lists over few exponents, so that exponents repeat, with zero coefficients
UNMERGED = st.lists(
    st.tuples(
        st.one_of(st.just(0), coprime_rats), st.sampled_from([(0, 0), (1, F(1, 2)), (F(-1, 3), 2)])
    ),
    max_size=5,
)


def shifts(nx, ny):
    """One shift per y coordinate: None for ``y_i -> 0``, or ``(c, xexp)`` for
    ``y_i -> y_i + c*x^xexp``, where a zero ``c`` leaves ``y_i`` alone."""
    coeffs = st.one_of(st.just(0), coprime_rats)
    return st.tuples(*[st.one_of(st.none(), st.tuples(coeffs, xexps(nx)))] * ny)


def term_dict(f):
    """``f`` as the parser's term dict, exponent tuple to coefficient, for ``_product``."""
    return {t.xexp + t.ydeg: t.coeff for t in f.terms}


class TestKernelAgainstNaiveExpansion:
    """The parser's products and powers, and the kernel's substitutions,
    against a plain ``Fraction`` expansion."""

    @seed(20261018)
    @given(f=mixed_lpolys(2, 3), g=mixed_lpolys(2, 3))
    def test_product(self, f, g):
        acc = _product(term_dict(f), term_dict(g))
        got = from_terms(2, 3, ((c, k[:2], k[2:]) for k, c in acc.items()))
        assert got == naive_product(f, g)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(
        f=mixed_lpolys(2, 2, max_terms=3).filter(lambda f: not f.is_zero), k=st.integers(0, 3)
    )
    def test_power(self, f, k):
        text = render_poly(f, ("x1", "x2"), ("y1", "y2"))
        got = parse_gen("(%s)^%d" % (text, k), 2, 2)
        assert got == naive_power(f, k)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(f=mixed_lpolys(2, 3, max_deg=3), shift=shifts(2, 3))
    def test_shift_y(self, f, shift):
        """``shift_y`` is the primitive integer multiple of the exact shift, by a positive constant."""
        images = [
            LPoly(2, 3) if s is None else lp(2, 3, (1, (0, 0), ydeg), (s[0], s[1], (0, 0, 0)))
            for s, ydeg in zip(shift, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        ]
        got = shift_y(f, shift)
        naive = naive_substitute(f, images)
        assert got == primitive(naive)
        assert all(type(t.coeff) is int for t in got.terms)
        ratios = {F(n.coeff, t.coeff) for n, t in zip(naive.terms, got.terms)}
        assert len(ratios) == (0 if naive.is_zero else 1)
        assert all(r > 0 for r in ratios)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(f=mixed_lpolys(2, 2, max_deg=3), series=st.tuples(*[X_ONLY] * 2))
    def test_substitute_y(self, f, series):
        got = substitute_y(f, [series_terms(s) for s in series])
        assert got == primitive(naive_substitute(f, series))
        assert all(type(t.coeff) is int for t in got.terms)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(
        h=mixed_lpolys(2, 2, max_terms=3),
        k=mixed_lpolys(2, 2, max_terms=3),
        series=st.tuples(*[X_ONLY] * 2),
    )
    def test_substitute_cancels_to_zero(self, h, k, series):
        # f lies in the ideal of the point y = series, so the sum cancels exactly
        y1, y2 = y_var(2, 2, 0), y_var(2, 2, 1)
        f = naive_sum(
            naive_product(naive_sum(y1, naive_scale(series[0], -1)), h),
            naive_product(naive_sum(y2, naive_scale(series[1], -1)), k),
        )
        assert naive_substitute(f, series).is_zero
        assert substitute_y(f, [series_terms(s) for s in series]).is_zero

    @seed(20261019)
    @given(f=mixed_lpolys(2, 2, max_deg=3), raw=st.tuples(*[UNMERGED] * 2))
    @example(f=y_var(2, 2, 0), raw=([(1, (1, 0)), (-1, (1, 0)), (0, (0, 0))], []))
    def test_substitute_sums_unmerged_term_lists(self, f, raw):
        """Repeated exponents, zero coefficients and empty series give the merged residual."""
        merged = [series_terms(from_terms(2, 2, [(c, e, (0, 0)) for c, e in s])) for s in raw]
        assert substitute_y(f, raw) == substitute_y(f, merged)


# Exponents for the packed keys: small rationals, negative and fractional, and
# integers far apart, so that a later x-field can span -50 to 10**6.
wide_rats = st.one_of(small_rats, st.sampled_from([-50, -7, 0, 3, 10**6, F(10**6 - 1, 2)]))


@st.composite
def packed_cases(draw, series=False):
    """A ring with 1-3 x and 1-3 y, a polynomial in it, and one image per y:
    a shift ``(c, xexp)``, ``c`` possibly zero, or None, or a series term
    list that may repeat an exponent, hold a zero coefficient, cancel
    entirely or be empty."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    wide = st.tuples(*[wide_rats] * nx)
    terms = st.tuples(coprime_rats, wide, ydegs(ny, 2))
    f = from_terms(nx, ny, draw(st.lists(terms, max_size=4)))
    if not series:
        coeffs = st.one_of(st.just(0), coprime_rats)
        return f, draw(st.tuples(*[st.one_of(st.none(), st.tuples(coeffs, wide))] * ny))
    coords = []
    for _ in range(ny):
        pool = draw(st.lists(wide, min_size=1, max_size=3))
        term = st.tuples(st.one_of(st.just(0), coprime_rats), st.sampled_from(pool))
        coord = draw(st.lists(term, max_size=4))
        if draw(st.booleans()):
            coord += [(-c, e) for c, e in coord]  # every term cancels
        coords.append(coord)
    return f, coords


def assert_canonical_order(f):
    assert list(f.terms) == sorted(f.terms, key=lambda t: (t.xexp, t.ydeg))


class TestPackedKeys:
    """The kernel keys each exponent by one ``int``: across ring sizes, exponent
    signs, denominators and spans, both substitutions match the naive ones,
    and the packed keys sort into the canonical term order."""

    @seed(20261020)
    @given(case=packed_cases())
    @example(case=(LPoly(1, 1), (None,)))
    @example(case=(LPoly(3, 3), (None, None, None)))
    @example(case=(LPoly(2, 2), ((F(1, 2), (1, -50)), None)))
    @example(
        case=(
            lp(2, 2, (1, (0, -50), (2, 1)), (3, (1, 10**6), (1, 0)), (-2, (F(1, 3), 2), (0, 0))),
            ((F(5, 7), (F(-1, 2), 10**6)), None),
        )
    )
    @example(case=(lp(1, 2, (2, (-7,), (1, 1)), (1, (0,), (0, 2))), ((0, (3,)), None)))
    @example(
        case=(
            lp(2, 1, (1, (0, -50), (2,)), (3, (1, 10**6), (1,)), (-2, (F(1, 3), 2), (0,))),
            ((F(5, 7), (F(-1, 2), 10**6)),),
        )
    )
    def test_shift_y(self, case):
        f, shift = case
        nx, ny = f.nx, f.ny
        images = [
            LPoly(nx, ny) if s is None else naive_sum(y_var(nx, ny, i), xm(nx, ny, s[0], *s[1]))
            for i, s in enumerate(shift)
        ]
        got = shift_y(f, shift)
        assert got == primitive(naive_substitute(f, images))
        assert_canonical_order(got)
        assert_canonical_exponents(got)

    @seed(20261020)
    @given(case=packed_cases(series=True))
    @example(case=(LPoly(2, 3), [[], [(1, (0, 0))], [(0, (1, 2))]]))
    @example(case=(y_var(1, 2, 1, 3), [[(1, (-50,)), (-1, (-50,))], [(2, (10**6,))] * 2]))
    def test_substitute_y(self, case):
        f, coords = case
        nx, ny = f.nx, f.ny
        series = [
            naive_sum(LPoly(nx, ny), *(xm(nx, ny, c, *e) for c, e in coord)) for coord in coords
        ]
        got = substitute_y(f, coords)
        assert got == primitive(naive_substitute(f, series))
        assert_canonical_order(got)
        assert_canonical_exponents(got)

    @seed(20261020)
    @given(case=packed_cases())
    def test_sorted_keys_are_the_canonical_order(self, case):
        """With every shift zero the kernel only packs, sorts and unpacks the terms."""
        f, _ = case
        got = shift_y(f, [(0, (0,) * f.nx)] * f.ny)
        assert got == primitive(f)
        assert_canonical_order(got)


ETAS2 = etas(2, 2)


@given(f=lpolys(2, 2), g=lpolys(2, 2), eta=ETAS2)
def test_order_of_sum_at_least_min(f, g, eta):
    of, og = weighted_order(f, W2, eta), weighted_order(g, W2, eta)
    lower = min(of, og, key=sort_key)
    assert sort_key(weighted_order(naive_sum(f, g), W2, eta)) >= sort_key(lower)


@given(f=lpolys(2, 2, max_terms=4), g=lpolys(2, 2, max_terms=4), eta=ETAS2)
def test_order_and_initial_of_product_multiply(f, g, eta):
    of, og = weighted_order(f, W2, eta), weighted_order(g, W2, eta)
    fg = naive_product(f, g)
    assert weighted_order(fg, W2, eta) == vadd(of, og)
    assert initial_form(fg, W2, eta) == naive_product(
        initial_form(f, W2, eta), initial_form(g, W2, eta)
    )


@given(f=lpolys(2, 2), eta=etas(2, 3))
def test_weighted_order_is_the_least_term_value(f, eta):
    W = WeightMatrix([[2, 3], [1, 1], [0, 5]])
    values = [v for v in (term_value(W, eta, t) for t in f.terms) if v is not None]
    assert weighted_order(f, W, eta) == min(values, default=None)


@given(f=lpolys(2, 2), eta=ETAS2)
def test_initial_form_is_idempotent(f, eta):
    h = initial_form(f, W2, eta)
    assert initial_form(h, W2, eta) == h


@given(f=lpolys(2, 2), eta=ETAS2)
def test_initial_form_is_homogeneous(f, eta):
    h = initial_form(f, W2, eta)
    o = weighted_order(f, W2, eta)
    for t in h.terms:
        assert term_value(W2, eta, t) == o


@given(
    f=lpolys(1, 1),
    eta=st.tuples(st.one_of(st.none(), st.tuples(small_rats))),
    k=st.integers(1, 4),
)
def test_ramification_scales_the_order(f, eta, k):
    scaled_eta = tuple(vscale(e, k) for e in eta)
    before = weighted_order(f, W1, eta)
    after = weighted_order(ramify(f, k), W1, scaled_eta)
    assert after == vscale(before, k)
