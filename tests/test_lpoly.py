from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed

from puiseux import (
    LPoly,
    WeightMatrix,
    at_x_one,
    initial_form,
    ramify,
    set_y_zero,
    shift_y,
    substitute_y,
    term_value,
    weighted_order,
)
from puiseux.values import sort_key
from tutils import (
    etas,
    lp,
    lpolys,
    naive_power,
    naive_product,
    naive_substitute,
    small_rats,
    vadd,
    vscale,
    xexps,
    ydegs,
)

W1 = WeightMatrix.identity(1)
W2 = WeightMatrix.identity(2)


class TestArithmetic:
    def test_add_zero(self):
        f = lp(1, 1, (3, (F(1, 2),), (1,)))
        assert f + LPoly.zero(1, 1) == f

    def test_difference_of_squares(self):
        x = LPoly.x_var(1, 1, 0)
        y = LPoly.y_var(1, 1, 0)
        assert (x + y) * (x - y) == x * x - y * y

    def test_binomial_square(self):
        y = LPoly.y_var(1, 1, 0)
        one = LPoly.const(1, 1, 1)
        assert (y + one) ** 2 == y * y + 2 * y + one

    def test_cancellation_gives_zero(self):
        x = LPoly.x_var(1, 1, 0)
        assert (x - x).is_zero

    def test_scalars(self):
        y = LPoly.y_var(1, 1, 0)
        assert 2 * y == y + y
        assert y * F(1, 2) + y * F(1, 2) == y
        assert (0 * y).is_zero

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
        f = LPoly.y_var(1, 1, 0)
        assert weighted_order(f, W1, (None,)) is None

    def test_zero_polynomial_gives_inf(self):
        assert weighted_order(LPoly.zero(1, 1), W1, ((1,),)) is None

    def test_inf_weight_with_zero_degree_contributes_nothing(self):
        # x1 alone keeps a finite order even when the y weight is infinite
        f = LPoly.x_var(1, 1, 0)
        assert weighted_order(f, W1, (None,)) == (1,)


class TestInitialForm:
    def binomial(self, beta, phi):
        return LPoly.y_var(1, 1, 0, power=beta) - phi

    def test_y_power_dominates(self):
        phi = LPoly.x_var(1, 1, 0)  # order 1
        f = self.binomial(2, phi)
        # 2 * eta < 1: the pure power is alone at the bottom
        got = initial_form(f, W1, ((F(1, 4),),))
        assert got == LPoly.y_var(1, 1, 0, power=2)

    def test_tie_keeps_both_sides(self):
        phi = LPoly.x_var(1, 1, 0) + LPoly.x_var(1, 1, 0, power=2)
        f = self.binomial(1, phi)
        got = initial_form(f, W1, ((1,),))
        assert got == LPoly.y_var(1, 1, 0) - LPoly.x_var(1, 1, 0)

    def test_series_side_dominates(self):
        phi = LPoly.x_var(1, 1, 0) + LPoly.x_var(1, 1, 0, power=2)
        f = self.binomial(1, phi)
        got = initial_form(f, W1, ((5,),))
        assert got == -LPoly.x_var(1, 1, 0)

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
        f = LPoly.y_var(1, 1, 0)
        assert initial_form(f, W1, (None,)).is_zero


class TestSubstitutions:
    def test_ramify_half_exponent(self):
        f = LPoly.x_var(1, 1, 0, power=F(1, 2))
        assert ramify(f, 2) == LPoly.x_var(1, 1, 0)

    def test_ramify_leaves_y_alone(self):
        f = lp(2, 1, (1, (F(1), F(1)), (0,)), (1, (F(0), F(0)), (1,)))
        want = lp(2, 1, (1, (F(3), F(3)), (0,)), (1, (F(0), F(0)), (1,)))
        assert ramify(f, 3) == want

    def test_ramify_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ramify(LPoly.x_var(1, 1, 0), 0)

    def test_shift_binomial(self):
        f = LPoly.y_var(1, 1, 0, power=2)
        x = LPoly.x_var(1, 1, 0)
        y = LPoly.y_var(1, 1, 0)
        assert shift_y(f, [x]) == y * y + 2 * x * y + x * x

    def test_shift_exact_cancellation(self):
        f = LPoly.y_var(1, 1, 0) - LPoly.x_var(1, 1, 0)
        assert shift_y(f, [LPoly.x_var(1, 1, 0)]) == LPoly.y_var(1, 1, 0)

    def test_shift_two_coordinates(self):
        f = lp(1, 2, (1, (F(0),), (1, 1)))
        x = LPoly.x_var(1, 2, 0)
        got = shift_y(f, [x, -x])
        y1 = LPoly.y_var(1, 2, 0)
        y2 = LPoly.y_var(1, 2, 1)
        assert got == y1 * y2 - x * y1 + x * y2 - x * x

    def test_shift_zero_is_identity(self):
        f = lp(1, 2, (2, (F(1),), (1, 2)), (-3, (F(0),), (0, 1)))
        z = LPoly.zero(1, 2)
        assert shift_y(f, [z, z]) == f

    def test_shift_rejects_nonmonomial(self):
        f = LPoly.y_var(1, 1, 0)
        bad = LPoly.x_var(1, 1, 0) + LPoly.const(1, 1, 1)
        with pytest.raises(ValueError):
            shift_y(f, [bad])

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
        f = LPoly.x_var(2, 1, 0) - LPoly.x_var(2, 1, 1)
        assert at_x_one(f).is_zero

    def test_substitute_exact_root(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(1),), (0,)))  # y^2 - x
        s = LPoly.x_var(1, 1, 0, power=F(1, 2))
        assert substitute_y(f, [s]).is_zero

    def test_substitute_zero_series(self):
        f = LPoly.y_var(1, 1, 0) - LPoly.x_var(1, 1, 0)
        got = substitute_y(f, [LPoly.zero(1, 1)])
        assert got == -LPoly.x_var(1, 1, 0)

    def test_substitute_truncation_residual(self):
        # y^2 - x^2 - x^3 at x + x^2/2 leaves exactly x^4/4
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
        s = LPoly.x_var(1, 1, 0) + LPoly.x_var(1, 1, 0, power=2).scale(F(1, 2))
        got = substitute_y(f, [s])
        assert got == LPoly.x_var(1, 1, 0, power=4).scale(F(1, 4))
        assert weighted_order(got, W1, (None,)) == (4,)


def assert_canonical_exponents(f):
    """Every integral x-exponent is an ``int``, every other one a ``Fraction``."""
    for t in f.terms:
        for e in t.xexp:
            assert type(e) is (int if F(e).denominator == 1 else F)


class TestCanonicalExponents:
    half = F(1, 2)

    def test_product(self):
        r = LPoly.x_var(1, 1, 0, power=self.half)
        got = r * r
        assert got == LPoly.x_var(1, 1, 0)
        assert type(got.terms[0].xexp[0]) is int

    def test_power(self):
        r = LPoly.x_var(1, 1, 0, power=F(1, 3)) + LPoly.y_var(1, 1, 0)
        got = r**3
        assert [t.xexp[0] for t in got.terms] == [0, F(1, 3), F(2, 3), 1]
        assert_canonical_exponents(got)

    def test_shift_y(self):
        root = LPoly.x_var(1, 1, 0, power=self.half)
        got = shift_y(LPoly.y_var(1, 1, 0, power=2), [root])
        assert [t.xexp[0] for t in got.terms] == [0, self.half, 1]
        assert_canonical_exponents(got)

    def test_substitute_y(self):
        root = LPoly.x_var(1, 1, 0, power=self.half)
        got = substitute_y(LPoly.y_var(1, 1, 0, power=2), [root])
        assert got == LPoly.x_var(1, 1, 0)
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


def x_monomials_or_zero(nx, ny):
    mono = st.builds(lambda c, e: LPoly.monomial(nx, ny, c, e), coprime_rats, xexps(nx))
    return st.one_of(st.just(LPoly.zero(nx, ny)), mono)


class TestKernelAgainstNaiveExpansion:
    """Products, powers and substitutions against a plain ``Fraction`` expansion."""

    @seed(20261018)
    @given(f=mixed_lpolys(2, 3), g=mixed_lpolys(2, 3))
    def test_product(self, f, g):
        got = f * g
        assert got == naive_product(f, g)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(f=mixed_lpolys(2, 2, max_terms=3), k=st.integers(0, 3))
    def test_power(self, f, k):
        got = f**k
        assert got == naive_power(f, k)
        assert_canonical_exponents(got)

    @seed(20261018)
    @given(
        f=mixed_lpolys(2, 3, max_deg=3), shifts=st.tuples(*[x_monomials_or_zero(2, 3)] * 3)
    )
    def test_shift_y(self, f, shifts):
        images = [LPoly.y_var(2, 3, i) + m for i, m in enumerate(shifts)]
        got = shift_y(f, shifts)
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
        y1, y2 = LPoly.y_var(2, 2, 0), LPoly.y_var(2, 2, 1)
        f = naive_product(y1 - series[0], h) + naive_product(y2 - series[1], k)
        assert naive_substitute(f, series).is_zero
        assert substitute_y(f, series).is_zero


ETAS2 = etas(2, 2)


@given(f=lpolys(2, 2), g=lpolys(2, 2), eta=ETAS2)
def test_order_of_sum_at_least_min(f, g, eta):
    of, og = weighted_order(f, W2, eta), weighted_order(g, W2, eta)
    lower = min(of, og, key=sort_key)
    assert sort_key(weighted_order(f + g, W2, eta)) >= sort_key(lower)


@given(f=lpolys(2, 2, max_terms=4), g=lpolys(2, 2, max_terms=4), eta=ETAS2)
def test_order_and_initial_of_product_multiply(f, g, eta):
    of, og = weighted_order(f, W2, eta), weighted_order(g, W2, eta)
    fg = f * g
    assert weighted_order(fg, W2, eta) == vadd(of, og)
    assert initial_form(fg, W2, eta) == initial_form(f, W2, eta) * initial_form(g, W2, eta)


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
