from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed

from puiseux import (
    LPoly,
    at_x_one,
    parse_problem,
    ramify,
    render_poly,
    set_y_zero,
    shift_y,
    substitute_y,
    term_value,
    weighted_order,
)
from puiseux.lpoly import _product
from puiseux.values import sort_key
from tutils import (
    etas,
    identity,
    initial_form,
    lp,
    lpolys,
    naive_power,
    naive_product,
    naive_scale,
    naive_substitute,
    naive_sum,
    small_rats,
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
        assert weighted_order(LPoly.zero(1, 1), W1, ((1,),)) is None

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
        assert shift_y(f, [None, None]) == f
        assert shift_y(f, [(0, (1,)), None]) == f

    def test_set_y_zero(self):
        f = lp(1, 2, (1, (F(0),), (1, 0)), (1, (F(0),), (0, 1)), (1, (F(1),), (0, 0)))
        got = set_y_zero(f, [1])
        assert got == lp(1, 2, (1, (F(0),), (1, 0)), (1, (F(1),), (0, 0)))

    def test_at_x_one_simple(self):
        f = lp(2, 2, (1, (F(1), F(0)), (0, 0)), (1, (F(0), F(0)), (1, 0)), (-1, (F(0), F(0)), (0, 1)))
        got = at_x_one(f)
        want = lp(2, 2, (1, (F(0), F(0)), (0, 0)), (1, (F(0), F(0)), (1, 0)), (-1, (F(0), F(0)), (0, 1)))
        assert got == want

    def test_at_x_one_collects(self):
        f = lp(2, 1, (3, (F(2), F(0)), (1,)), (2, (F(0), F(1)), (1,)))
        assert at_x_one(f) == lp(2, 1, (5, (F(0), F(0)), (1,)))

    def test_at_x_one_cancels_to_zero(self):
        f = lp(2, 1, (1, (1, 0), (0,)), (-1, (0, 1), (0,)))
        assert at_x_one(f).is_zero

    def test_substitute_exact_root(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(1),), (0,)))  # y^2 - x
        s = x_var(1, 1, 0, power=F(1, 2))
        assert substitute_y(f, [s]).is_zero

    def test_substitute_zero_series(self):
        f = lp(1, 1, (1, (0,), (1,)), (-1, (1,), (0,)))  # y - x
        got = substitute_y(f, [LPoly.zero(1, 1)])
        assert got == xm(1, 1, -1, 1)

    def test_substitute_truncation_residual(self):
        # y^2 - x^2 - x^3 at x + x^2/2 leaves exactly x^4/4
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
        s = lp(1, 1, (1, (1,), (0,)), (F(1, 2), (2,), (0,)))
        got = substitute_y(f, [s])
        assert got == xm(1, 1, F(1, 4), 4)
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
        assert_canonical_exponents(got)

    def test_substitute_y(self):
        root = x_var(1, 1, 0, power=self.half)
        got = substitute_y(y_var(1, 1, 0, power=2), [root])
        assert got == x_var(1, 1, 0)
        assert type(got.terms[0].xexp[0]) is int


# Coefficients with pairwise coprime denominators, so the kernel's common
# denominators are products, not one shared small number.
coprime_rats = st.builds(
    F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 11])
)


def mixed_lpolys(nx, ny, max_terms=4, max_deg=2):
    terms = st.tuples(coprime_rats, xexps(nx), ydegs(ny, max_deg))
    return st.lists(terms, max_size=max_terms).map(lambda ts: LPoly.from_terms(nx, ny, ts))


X_ONLY = mixed_lpolys(2, 2, max_terms=3, max_deg=0)


def shifts(nx, ny):
    """One shift per y coordinate: None, or ``(c, xexp)`` for ``y_i -> y_i + c*x^xexp``."""
    return st.tuples(*[st.one_of(st.none(), st.tuples(coprime_rats, xexps(nx)))] * ny)


def kernel_items(f):
    """``f`` as ``(exponent key, coefficient)`` pairs, the parser's input to ``_product``."""
    return [(t.xexp + t.ydeg, t.coeff) for t in f.terms]


class TestKernelAgainstNaiveExpansion:
    """The kernel's product, the parser's powers and the substitutions against a
    plain ``Fraction`` expansion."""

    @seed(20261018)
    @given(f=mixed_lpolys(2, 3), g=mixed_lpolys(2, 3))
    def test_product(self, f, g):
        acc = _product(kernel_items(f), kernel_items(g))
        got = LPoly.from_terms(2, 3, ((c, k[:2], k[2:]) for k, c in acc.items()))
        assert got == naive_product(f, g)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(f=mixed_lpolys(2, 2, max_terms=3).filter(bool), k=st.integers(0, 3))
    def test_power(self, f, k):
        text = render_poly(f, ("x1", "x2"), ("y1", "y2"))
        got = parse_gen("(%s)^%d" % (text, k), 2, 2)
        assert got == naive_power(f, k)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(f=mixed_lpolys(2, 3, max_deg=3), shift=shifts(2, 3))
    def test_shift_y(self, f, shift):
        images = [
            lp(2, 3, (1, (0, 0), ydeg), *([] if s is None else [(s[0], s[1], (0, 0, 0))]))
            for s, ydeg in zip(shift, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        ]
        got = shift_y(f, shift)
        assert got == naive_substitute(f, images)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(f=mixed_lpolys(2, 2, max_deg=3), series=st.tuples(*[X_ONLY] * 2))
    def test_substitute_y(self, f, series):
        got = substitute_y(f, series)
        assert got == naive_substitute(f, series)
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
        assert substitute_y(f, series).is_zero


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
