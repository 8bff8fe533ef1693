from fractions import Fraction as F
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, seed, settings

from puiseux import BudgetExceeded, rational_roots, torus_solutions
from puiseux import solver
from puiseux.solver import SOLVER_BUDGET, _sturm_chain, _substitute_last, _vanishes
from puiseux.values import primitive_ints
from oracle_grid import grid_torus_solutions, rational_grid
from oracle_groebner import buchberger


def yp(*terms):
    """A polynomial dict from (coeff, degrees) pairs, like terms summed."""
    out: dict = {}
    for c, deg in terms:
        out[deg] = out.get(deg, 0) + c
    return {k: c for k, c in out.items() if c}


def integer_dict(p):
    """A rational dict brought to integers, as ``torus_solutions`` reads its system."""
    return dict(zip(p, primitive_ints(p.values())))


def basis(polys, max_pairs=SOLVER_BUDGET):
    """The solver's reduced lex Groebner basis of rational dicts, as normal forms."""
    return solver._buchberger([integer_dict(p) for p in polys], [max_pairs])


def monic(p):
    """The monic multiple of a nonzero dict."""
    lc = p[max(p)]
    return {k: F(c, lc) for k, c in p.items()}


class TestGroebner:
    def test_single_polynomial(self):
        f = yp((1, (1,)), (-1, (0,)))
        assert basis([f]) == [f]

    def test_linear_elimination(self):
        f = yp((1, (1, 0)), (1, (0, 1)))
        g = yp((1, (1, 0)), (-1, (0, 1)))
        assert basis([f, g]) == [yp((1, (0, 1))), yp((1, (1, 0)))]

    def test_elimination_with_quadratic(self):
        f = yp((1, (2, 0)), (-1, (0, 0)))
        g = yp((1, (1, 1)), (-1, (0, 0)))
        assert basis([f, g]) == [
            yp((1, (0, 2)), (-1, (0, 0))),
            yp((1, (1, 0)), (-1, (0, 1))),
        ]

    def test_inputs_reduce_to_zero_modulo_basis(self):
        polys = [
            yp((1, (2, 0)), (-1, (0, 0))),
            yp((1, (1, 1)), (-1, (0, 0))),
        ]
        G = basis(polys)
        # reducing an input by the basis must leave nothing: check by
        # re-running the basis computation on basis + inputs
        assert basis(G + polys) == G

    def test_inconsistent_system_collapses_to_one(self):
        f = yp((1, (0, 0)), (1, (1, 0)), (-1, (0, 1)))
        g = yp((-1, (1, 0)), (1, (0, 1)))
        assert basis([f, g]) == [yp((1, (0, 0)))]

    def test_budget_is_enforced(self):
        polys = [
            yp((1, (2, 1, 0)), (-1, (0, 0, 1)), (3, (1, 0, 0))),
            yp((1, (0, 2, 1)), (2, (1, 0, 0)), (-1, (0, 1, 0))),
            yp((1, (1, 0, 2)), (-5, (0, 0, 0)), (1, (1, 1, 1))),
        ]
        with pytest.raises(BudgetExceeded):
            basis(polys, max_pairs=1)


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

    def test_linear_polynomial_builds_no_sturm_chain(self, monkeypatch):
        def no_chain(poly):
            raise AssertionError("a linear polynomial needs no Sturm chain")

        monkeypatch.setattr(solver, "_sturm_chain", no_chain)
        assert rational_roots([F(-3, 4), F(1, 2)]) == ((F(3, 2),), 0)
        assert rational_roots([0, 0, 5, -10]) == ((F(0), F(1, 2)), 0)


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
            return [primitive_ints(p) for p in chain]
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
    poly = primitive_ints(coeffs)
    if squared:  # repeated roots: the chain ends in a nonconstant gcd
        poly = primitive_ints(_times(poly, poly))
    assert _sturm_chain(poly) == _reference_sturm_chain(poly)


# Random systems in two and three variables, against the textbook Buchberger
# on Fraction dicts.  The solver's fraction-free elements are positive
# multiples of the monic ones, so it chooses the same pairs: with any budget
# it raises exactly when the reference does, after the same number of pairs.
# Constant and monomial multiples of the system's own polynomials are
# appended, so that interreduction meets elements that reduce to zero.
@st.composite
def _systems(draw):
    ny = draw(st.sampled_from([2, 3]))
    coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    mono = st.tuples(*[st.integers(0, 2)] * ny)
    polys = st.lists(st.tuples(coeff, mono), min_size=1, max_size=4).map(lambda ts: yp(*ts)).filter(bool)
    system = draw(st.lists(polys, min_size=1, max_size=3))
    shift = st.tuples(*[st.integers(0, 1)] * ny)
    extra = st.tuples(st.sampled_from(system), coeff, shift)
    for p, c, m in draw(st.lists(extra, max_size=2)):
        system.append({tuple(a + b for a, b in zip(k, m)): c * v for k, v in p.items()})
    return system


REFERENCE_CAP = 200


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(system=_systems())
def test_fraction_free_basis_matches_the_fraction_reference(system):
    budget = [REFERENCE_CAP]
    try:
        want = buchberger(system, budget)
    except BudgetExceeded:
        assume(False)
    pairs = REFERENCE_CAP - budget[0]
    assert [monic(g) for g in basis(system)] == want
    ints = [integer_dict(p) for p in system]
    for b in range(pairs + 1):
        left = [b]
        if b < pairs:
            with pytest.raises(BudgetExceeded):
                solver._buchberger(ints, left)
        else:
            solver._buchberger(ints, left)
            assert left == [b - pairs]


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(system=_systems())
def test_basis_elements_are_primitive_with_a_positive_leading_coefficient(system):
    try:
        got = basis(system, REFERENCE_CAP)
    except BudgetExceeded:
        assume(False)
    for g in got:
        assert gcd(*g.values()) == 1 and g[max(g)] > 0, g


class TestTorusSolutions:
    def test_inconsistent_recentered_system(self):
        f = yp((1, (0, 0)), (1, (1, 0)), (-1, (0, 1)))
        g = yp((-1, (1, 0)), (1, (0, 1)))
        out = torus_solutions([f, g], 2)
        assert out.solutions == ()
        assert not out.irrational_roots_detected
        assert not out.nonzero_dimensional

    def test_square_roots_of_one(self):
        f = yp((1, (2,)), (-1, (0,)))
        out = torus_solutions([f], 1)
        assert out.solutions == ((F(-1),), (F(1),))

    def test_irrational_roots_flagged(self):
        f = yp((1, (2,)), (-2, (0,)))
        out = torus_solutions([f], 1)
        assert out.solutions == ()
        assert out.irrational_roots_detected

    def test_zero_coordinates_filtered(self):
        f = yp((1, (2,)), (-1, (1,)))  # y(y - 1)
        out = torus_solutions([f], 1)
        assert out.solutions == ((F(1),),)

    def test_triangular_back_substitution(self):
        f = yp((1, (2, 0)), (-1, (0, 0)))  # y1^2 = 1
        g = yp((1, (1, 1)), (-1, (0, 0)))  # y1 y2 = 1
        out = torus_solutions([f, g], 2)
        assert out.solutions == ((F(-1), F(-1)), (F(1), F(1)))

    def test_empty_system_no_variables(self):
        out = torus_solutions([], 0)
        assert out.solutions == ((),)
        assert not out.nonzero_dimensional

    def test_empty_system_with_variables_is_positive_dimensional(self):
        out = torus_solutions([], 1)
        assert out.solutions == ()
        assert out.nonzero_dimensional

    def test_unconstrained_variable_is_positive_dimensional(self):
        f = yp((1, (1, 0)), (-1, (0, 0)))  # y1 = 1, y2 free
        out = torus_solutions([f], 2)
        assert out.solutions == ()
        assert out.nonzero_dimensional

    def test_budget_propagates(self):
        polys = [
            yp((1, (2, 1, 0)), (-1, (0, 0, 1)), (3, (1, 0, 0))),
            yp((1, (0, 2, 1)), (2, (1, 0, 0)), (-1, (0, 1, 0))),
            yp((1, (1, 0, 2)), (-5, (0, 0, 0)), (1, (1, 1, 1))),
        ]
        with pytest.raises(BudgetExceeded):
            torus_solutions(polys, 3, max_pairs=1)

    FIXTURES = [
        # all roots inside the |p| <= 3, den <= 2 grid
        [yp((2, (2,)), (-3, (1,)), (1, (0,)))],  # (2y-1)(y-1)
        [yp((1, (2, 0)), (-1, (0, 0))), yp((1, (0, 1)), (-2, (1, 0)))],
        [
            yp((1, (1, 1)), (-1, (0, 0))),  # y1 y2 = 1
            yp((2, (1, 0)), (-1, (0, 1))),  # y2 = 2 y1
        ],
        [yp((1, (3,)), (-1, (1,)))],  # y(y-1)(y+1)
        # linear: one echelon pass, no Groebner basis
        [yp((1, (1, 0)), (1, (0, 1)), (-1, (0, 0))), yp((1, (1, 0)), (-1, (0, 1)), (-2, (0, 0)))],
        [
            yp((1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)), (-1, (0, 0, 0))),
            yp((2, (1, 0, 0)), (-1, (0, 1, 0)), (-2, (0, 0, 0))),
            yp((-F(1, 2), (1, 0, 0)), (F(1, 2), (0, 0, 1)), (-F(1, 2), (0, 0, 0))),
        ],  # (1/2, -1, 3/2)
    ]

    @pytest.mark.parametrize("system", FIXTURES)
    def test_matches_exhaustive_grid_search(self, system):
        k = len(next(iter(system[0])))
        grid = rational_grid(max_num=3, max_den=2)
        want = grid_torus_solutions(system, k, grid)
        got = torus_solutions(system, k)
        assert sorted(got.solutions) == want


# A root is substituted one variable at a time; a solution is checked the
# same way, against Fraction evaluation of the dict.
def _value(p, point):
    """``p`` at a rational point, by plain ``Fraction`` arithmetic."""
    total = F(0)
    for key, c in p.items():
        term = F(c)
        for b, x in zip(key, point):
            term *= x**b
        total += term
    return total


@st.composite
def _dicts_and_points(draw):
    k = draw(st.integers(1, 3))
    term = st.tuples(st.integers(-5, 5), st.tuples(*[st.integers(0, 3)] * k))
    p = yp(*draw(st.lists(term, min_size=1, max_size=5)))
    point = tuple(
        draw(st.lists(st.fractions(-4, 4, max_denominator=5).filter(bool), min_size=k, max_size=k))
    )
    return p, point


@seed(20261019)
@settings(max_examples=150)
@given(case=_dicts_and_points(), plant=st.sampled_from(["none", "value", "factor"]))
def test_vanishes_matches_fraction_evaluation(case, plant):
    p, point = case
    if plant == "value":  # subtract the value: the dict vanishes at the point
        v = _value(p, point)
        zero = (0,) * len(point)
        p = {key: c * v.denominator for key, c in p.items()}
        p[zero] = p.get(zero, 0) - v.numerator
    elif plant == "factor":  # times (q*y_i - n): zero already after y_i is substituted
        i = len(point) - 1
        x = point[i]
        unit = tuple(int(j == i) for j in range(len(point)))
        factor = {unit: x.denominator, (0,) * len(point): -x.numerator}
        out: dict = {}
        for k1, c1 in p.items():
            for k2, c2 in factor.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + c1 * c2
        p = out
        assert not _substitute_last(p, x.numerator, x.denominator)
    p = {key: c for key, c in p.items() if c}
    assert _vanishes(p, point) == (_value(p, point) == 0)
    if plant != "none":
        assert _vanishes(p, point)


# A system of total degree at most one takes one echelon pass instead of the
# Groebner walk; both must give the same solutions and flags.
CASES = ("unique", "rank_deficient", "zero_coordinate", "inconsistent")


@st.composite
def _linear_systems(draw):
    case = draw(st.sampled_from(CASES))
    k = draw(st.integers(2 if case == "rank_deficient" else 1, 3))
    point = draw(
        st.lists(st.fractions(-3, 3, max_denominator=3).filter(bool), min_size=k, max_size=k)
    )
    if case == "zero_coordinate":
        point[draw(st.integers(0, k - 1))] = F(0)
    # a basis of the rows: unit lower triangular in permuted columns, one row
    # short of full rank when rank deficient
    rank = k - 1 if case == "rank_deficient" else k
    cols = draw(st.permutations(range(k)))
    small = st.integers(-2, 2)
    basis_rows = []
    for i in range(rank):
        row = [0] * k
        row[cols[i]] = 1
        for j in range(i):
            row[cols[j]] = draw(small)
        basis_rows.append(row)

    def combination():
        mix = [draw(small) for _ in basis_rows]
        return [sum(m * r[j] for m, r in zip(mix, basis_rows)) for j in range(k)]

    rows = [[draw(st.integers(1, 3)) * a for a in row] for row in basis_rows]
    inconsistent = case == "inconsistent"
    rows += [combination() for _ in range(draw(st.integers(0, 4 - len(rows) - inconsistent)))]
    consts = [-sum(a * x for a, x in zip(row, point)) for row in rows]
    if inconsistent:  # a combination of the rows with another constant
        rows.append(combination())
        consts.append(-sum(a * x for a, x in zip(rows[-1], point)) + draw(small.filter(bool)))
    unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    system = []
    for row, const in zip(rows, consts):
        scale = draw(st.sampled_from([1, -2, F(3, 5)]))
        p = yp(*[(scale * a, e) for a, e in zip(row, unit)], (scale * const, (0,) * k))
        if p:
            system.append(p)
    assume(system)
    order = draw(st.permutations(range(len(system))))
    return case, k, tuple(point), [system[i] for i in order]


@seed(20261019)
@settings(max_examples=200)
@given(data=_linear_systems())
def test_linear_systems_match_the_groebner_walk(data):
    case, k, point, system = data
    got = torus_solutions(system, k, max_pairs=0)  # the linear path spends no pairs
    raw, dim, irr = solver._groebner_points([integer_dict(p) for p in system], k)
    assert got.solutions == tuple(sorted(c for c in raw if all(c)))
    assert (got.nonzero_dimensional, got.irrational_roots_detected) == (dim, irr)
    want = {
        "unique": ((point,), False),
        "rank_deficient": ((), True),
        "zero_coordinate": ((), False),
        "inconsistent": ((), False),
    }[case]
    assert (got.solutions, got.nonzero_dimensional) == want
    assert not got.irrational_roots_detected
