from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, seed, settings

from puiseux import (
    BudgetExceeded,
    LPoly,
    rational_roots,
    reduced_groebner,
    torus_solutions,
)
from puiseux import solver
from puiseux.solver import _primitive, _sturm_chain
from oracle_grid import grid_torus_solutions, rational_grid
from oracle_groebner import buchberger
from tutils import lp


def yp(ny, *terms):
    """x-free polynomial in ny y-variables from (coeff, ydeg) pairs."""
    return LPoly.from_terms(0, ny, [(c, (), yd) for c, yd in terms])


class TestGroebner:
    def test_single_polynomial(self):
        f = yp(1, (1, (1,)), (-1, (0,)))
        assert reduced_groebner([f], (0,)) == [f]

    def test_linear_elimination(self):
        f = yp(2, (1, (1, 0)), (1, (0, 1)))
        g = yp(2, (1, (1, 0)), (-1, (0, 1)))
        basis = reduced_groebner([f, g], (0, 1))
        assert basis == [yp(2, (1, (0, 1))), yp(2, (1, (1, 0)))]

    def test_elimination_with_quadratic(self):
        f = yp(2, (1, (2, 0)), (-1, (0, 0)))
        g = yp(2, (1, (1, 1)), (-1, (0, 0)))
        basis = reduced_groebner([f, g], (0, 1))
        assert basis == [
            yp(2, (1, (0, 2)), (-1, (0, 0))),
            yp(2, (1, (1, 0)), (-1, (0, 1))),
        ]

    def test_inputs_reduce_to_zero_modulo_basis(self):
        polys = [
            yp(2, (1, (2, 0)), (-1, (0, 0))),
            yp(2, (1, (1, 1)), (-1, (0, 0))),
        ]
        basis = reduced_groebner(polys, (0, 1))
        # reducing an input by the basis must leave nothing: check by
        # re-running the basis computation on basis + inputs
        again = reduced_groebner(basis + polys, (0, 1))
        assert again == basis

    def test_inconsistent_system_collapses_to_one(self):
        f = yp(2, (1, (0, 0)), (1, (1, 0)), (-1, (0, 1)))
        g = yp(2, (-1, (1, 0)), (1, (0, 1)))
        basis = reduced_groebner([f, g], (0, 1))
        assert basis == [yp(2, (1, (0, 0)))]

    def test_budget_is_enforced(self):
        polys = [
            yp(3, (1, (2, 1, 0)), (-1, (0, 0, 1)), (3, (1, 0, 0))),
            yp(3, (1, (0, 2, 1)), (2, (1, 0, 0)), (-1, (0, 1, 0))),
            yp(3, (1, (1, 0, 2)), (-5, (0, 0, 0)), (1, (1, 1, 1))),
        ]
        with pytest.raises(BudgetExceeded):
            reduced_groebner(polys, (0, 1, 2), max_pairs=1)

    def test_rejects_x_terms(self):
        f = lp(1, 1, (1, (F(1),), (1,)))
        with pytest.raises(ValueError):
            reduced_groebner([f], (0,))


class TestRationalRoots:
    def test_quadratic_with_integer_roots(self):
        roots, leftover = rational_roots([F(-2), F(1), F(1)])  # (t+2)(t-1)
        assert roots == (F(-2), F(1))
        assert leftover == 0

    def test_fractional_roots(self):
        roots, leftover = rational_roots([F(1), F(-5), F(6)])  # (2t-1)(3t-1)
        assert roots == (F(1, 3), F(1, 2))
        assert leftover == 0

    def test_zero_root_detected(self):
        roots, leftover = rational_roots([F(0), F(0), F(1), F(1)])  # t^2(t+1)
        assert roots == (F(-1), F(0))
        assert leftover == 0

    def test_irrational_leftover(self):
        roots, leftover = rational_roots([F(-2), F(0), F(1)])  # t^2 - 2
        assert roots == ()
        assert leftover == 2

    def test_mixed(self):
        # (t - 1)(t^2 + 1)
        roots, leftover = rational_roots([F(-1), F(1), F(-1), F(1)])
        assert roots == (F(1),)
        assert leftover == 2

    def test_multiplicity_is_divided_out(self):
        # (t - 1)^3: leftover zero even though the root repeats
        roots, leftover = rational_roots([F(-1), F(3), F(-3), F(1)])
        assert roots == (F(1),)
        assert leftover == 0


BIG = 2**64


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_big_root = st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG))
_dyadic_root = st.tuples(st.integers(-8, 8), st.just(1))  # lands on bisection points
_linear_factors = st.lists(
    st.tuples(st.one_of(_big_root, _dyadic_root), st.integers(1, 3)), min_size=1, max_size=4
)
_close_pairs = st.lists(_big_root, max_size=1)  # p/q and (p+1)/q, closer than 1/|a_n|
_rootless = st.lists(st.tuples(st.integers(1, BIG), st.integers(1, BIG)), max_size=2)
_scales = st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG).filter(bool)


@seed(20261018)
@given(linear=_linear_factors, close=_close_pairs, rootless=_rootless, scale=_scales)
def test_roots_of_products_of_factors_with_large_coefficients(linear, close, rootless, scale):
    # (q*t - p)^m, (q*t - p)(q*t - p - 1) and a*t^2 + b: roots and leftover
    # degree are known by construction
    poly, want = [scale], set()
    for (p, q), mult in linear:
        for _ in range(mult):
            poly = _times(poly, [F(-p), F(q)])
        want.add(F(p, q))
    for p, q in close:
        poly = _times(_times(poly, [F(-p), F(q)]), [F(-p - 1), F(q)])
        want |= {F(p, q), F(p + 1, q)}
    for a, b in rootless:
        poly = _times(poly, [F(b), F(0), F(a)])
    assert rational_roots(poly) == (tuple(sorted(want)), 2 * len(rootless))


def _reference_sturm_chain(poly):
    """Sturm sequence by division with Fraction coefficients, each entry
    then scaled to a primitive integer polynomial."""

    def remainder(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] -= q * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    chain = [[F(c) for c in poly]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while True:
        rem = remainder(chain[-2], chain[-1])
        if not rem:
            return [_primitive(p) for p in chain]
        chain.append([-c for c in rem])


@seed(20261018)
@given(
    # zeros make degree gaps, where a remainder drops by more than one degree
    coeffs=st.lists(st.one_of(st.just(0), st.integers(-60, 60)), min_size=2, max_size=7).filter(
        lambda cs: cs[-1]
    ),
    squared=st.booleans(),
)
def test_integer_sturm_chain_matches_fraction_division(coeffs, squared):
    poly = _primitive(coeffs)
    if squared:  # repeated roots: the chain ends in a nonconstant gcd
        poly = _primitive(_times(poly, poly))
    assert _sturm_chain(poly) == _reference_sturm_chain(poly)


# Random systems in two and three variables, against the textbook Buchberger
# on Fraction dicts.  The solver's fraction-free elements are positive
# multiples of the monic ones, so it chooses the same pairs: with any budget
# it raises exactly when the reference does, after the same number of pairs.
@st.composite
def _systems(draw):
    ny = draw(st.sampled_from([2, 3]))
    term = st.tuples(st.fractions(-3, 3, max_denominator=3).filter(bool), st.tuples(*[st.integers(0, 2)] * ny))
    polys = st.lists(term, min_size=1, max_size=4).map(lambda ts: yp(ny, *ts)).filter(bool)
    return draw(st.lists(polys, min_size=1, max_size=3))


REFERENCE_CAP = 200


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(system=_systems())
def test_fraction_free_basis_matches_the_fraction_reference(system):
    variables = tuple(range(system[0].ny))
    dicts = [{t.ydeg: t.coeff for t in f.terms} for f in system]
    budget = [REFERENCE_CAP]
    try:
        want = buchberger(dicts, budget)
    except BudgetExceeded:
        assume(False)
    pairs = REFERENCE_CAP - budget[0]
    got = reduced_groebner(system, variables)
    assert [{t.ydeg: t.coeff for t in g.terms} for g in got] == want
    ints = [solver._to_dict(f, variables) for f in system]
    for b in range(pairs + 1):
        left = [b]
        if b < pairs:
            with pytest.raises(BudgetExceeded):
                solver._buchberger(ints, left)
        else:
            solver._buchberger(ints, left)
            assert left == [b - pairs]


class TestTorusSolutions:
    def test_inconsistent_recentered_system(self):
        f = yp(2, (1, (0, 0)), (1, (1, 0)), (-1, (0, 1)))
        g = yp(2, (-1, (1, 0)), (1, (0, 1)))
        out = torus_solutions([f, g], (0, 1))
        assert out.solutions == ()
        assert not out.irrational_roots_detected
        assert not out.nonzero_dimensional

    def test_square_roots_of_one(self):
        f = yp(1, (1, (2,)), (-1, (0,)))
        out = torus_solutions([f], (0,))
        assert out.solutions == ((F(-1),), (F(1),))

    def test_irrational_roots_flagged(self):
        f = yp(1, (1, (2,)), (-2, (0,)))
        out = torus_solutions([f], (0,))
        assert out.solutions == ()
        assert out.irrational_roots_detected

    def test_zero_coordinates_filtered(self):
        f = yp(1, (1, (2,)), (-1, (1,)))  # y(y - 1)
        out = torus_solutions([f], (0,))
        assert out.solutions == ((F(1),),)

    def test_triangular_back_substitution(self):
        f = yp(2, (1, (2, 0)), (-1, (0, 0)))  # y1^2 = 1
        g = yp(2, (1, (1, 1)), (-1, (0, 0)))  # y1 y2 = 1
        out = torus_solutions([f, g], (0, 1))
        assert out.solutions == ((F(-1), F(-1)), (F(1), F(1)))

    def test_empty_system_no_variables(self):
        out = torus_solutions([], ())
        assert out.solutions == ((),)
        assert not out.nonzero_dimensional

    def test_empty_system_with_variables_is_positive_dimensional(self):
        out = torus_solutions([], (0,))
        assert out.solutions == ()
        assert out.nonzero_dimensional

    def test_unconstrained_variable_is_positive_dimensional(self):
        f = yp(2, (1, (1, 0)), (-1, (0, 0)))  # y1 = 1, y2 free
        out = torus_solutions([f], (0, 1))
        assert out.solutions == ()
        assert out.nonzero_dimensional

    def test_budget_propagates(self):
        polys = [
            yp(3, (1, (2, 1, 0)), (-1, (0, 0, 1)), (3, (1, 0, 0))),
            yp(3, (1, (0, 2, 1)), (2, (1, 0, 0)), (-1, (0, 1, 0))),
            yp(3, (1, (1, 0, 2)), (-5, (0, 0, 0)), (1, (1, 1, 1))),
        ]
        with pytest.raises(BudgetExceeded):
            torus_solutions(polys, (0, 1, 2), max_pairs=1)

    FIXTURES = [
        # all roots inside the |p| <= 3, den <= 2 grid
        [yp(1, (2, (2,)), (-3, (1,)), (1, (0,)))],  # (2y-1)(y-1)
        [yp(2, (1, (2, 0)), (-1, (0, 0))), yp(2, (1, (0, 1)), (-2, (1, 0)))],
        [
            yp(2, (1, (1, 1)), (-1, (0, 0))),  # y1 y2 = 1
            yp(2, (2, (1, 0)), (-1, (0, 1))),  # y2 = 2 y1
        ],
        [yp(1, (1, (3,)), (-1, (1,)))],  # y(y-1)(y+1)
    ]

    @pytest.mark.parametrize("system", FIXTURES)
    def test_matches_exhaustive_grid_search(self, system):
        ny = system[0].ny
        variables = tuple(range(ny))
        grid = rational_grid(max_num=3, max_den=2)
        want = grid_torus_solutions(system, variables, grid)
        got = torus_solutions(system, variables)
        assert sorted(got.solutions) == want
