import random
from dataclasses import replace
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, seed, settings

from puiseux import (
    Branch,
    BranchBudgetExceeded,
    BudgetExceeded,
    ExpandOptions,
    LPoly,
    StepData,
    WeightMatrix,
    denominator_lcm,
    expand,
    parse_problem,
    ramify,
    recenter,
    starting_data,
    substitute_y,
    verify_residual,
)
from puiseux import expansion
from oracle_newton import curve, expand_curve
from tutils import (
    assert_trace_monotone,
    coupled_pair,
    defining_data,
    from_terms,
    identity,
    lp,
    lpolys,
    monomials_of,
    naive_scale,
    naive_substitute,
    nonzero_rats,
    recenter_in_three_passes,
    residual_order_reference,
    series_terms,
    value_of,
    vscale,
    xexps,
    xm,
    y_var,
)

W1 = identity(1)
W2 = identity(2)

NODAL = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
SURFACE = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))


class TestStepData:
    def test_defining_data_of_monomial_tuple(self):
        m = (xm(2, 3, 3, 3, 0), xm(2, 3, 7, 2, 1), LPoly(2, 3))
        d = defining_data(m, W2)
        assert d.eta == ((3, 0), (2, 1), None)
        assert d.gamma == ((F(3), F(0)), (F(2), F(1)), None)
        assert d.c == (F(3), F(7), F(0))

    def test_defining_data_of_zero_tuple(self):
        d = defining_data((LPoly(2, 2), LPoly(2, 2)), W2)
        assert d.eta == (None, None)
        assert d.c == (F(0), F(0))

    def test_round_trip(self):
        for gamma, c in [
            (((F(1), F(0)), (F(1, 2), F(3))), (F(2), F(-1, 3))),
            (((F(0), F(-1)), None), (F(5), F(0))),
        ]:
            eta = tuple(
                None if g is None else value_of(W2, g) for g in gamma
            )
            d = StepData(eta, gamma, c)
            assert defining_data(monomials_of(d, 2), W2) == d

    def test_monomials_of(self):
        d = StepData(
            ((1, 0), (1, 0), None),
            ((F(1), F(0)), (F(1), F(0)), None),
            (F(1), F(1), F(0)),
        )
        assert monomials_of(d, 2) == (
            xm(2, 3, 1, 1, 0),
            xm(2, 3, 1, 1, 0),
            LPoly(2, 3),
        )

    def test_scaling_identity(self):
        # the tuple of {eta, gamma, c} evaluated at x^r equals the tuple of
        # {r*eta, r*gamma, c}
        gamma = ((F(1, 2), F(1)),)
        d = StepData((value_of(W2, gamma[0]),), gamma, (F(2),))
        r = 3
        scaled = StepData(
            (vscale(d.eta[0], r),), ((F(3, 2), F(3)),), d.c
        )
        want = tuple(ramify(m, r) for m in monomials_of(d, 2))
        assert monomials_of(scaled, 2) == want

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StepData(((1,),), ((F(1),),), (F(0),))  # active with zero coeff
        with pytest.raises(ValueError):
            StepData((None,), ((F(1),),), (F(0),))  # retired with finite row
        with pytest.raises(ValueError):
            StepData((None,), (None,), (F(2),))  # retired with nonzero coeff

    def test_denominator_lcm(self):
        assert denominator_lcm(((F(1, 2), F(1, 2)),)) == 2
        assert denominator_lcm(((F(1), F(0)), (F(2), F(3)))) == 1
        assert denominator_lcm(((F(1, 2), F(0)), (F(0), F(1, 3)))) == 6
        assert denominator_lcm((None, None)) == 1


class TestStartingData:
    def test_nodal_cubic_two_starts(self):
        sets, info = starting_data(Branch((NODAL,)), W1, ExpandOptions())
        assert [d.c for d in sets] == [(F(-1),), (F(1),)]
        assert all(d.eta == ((1,),) for d in sets)
        assert all(d.gamma == ((F(1),),) for d in sets)
        assert info.candidates == 1

    def test_surface_start_is_ramified(self):
        sets, _ = starting_data(Branch((SURFACE,)), W2, ExpandOptions())
        assert [d.c for d in sets] == [(F(-1),), (F(1),)]
        assert all(d.eta == ((F(1, 2), F(1, 2)),) for d in sets)

    def test_mixed_weights_need_validation(self):
        g1 = lp(2, 2, (1, (F(0), F(0)), (1, 0)), (-1, (F(1), F(0)), (0, 0)))
        g2 = lp(
            2,
            2,
            (1, (F(0), F(0)), (0, 1)),
            (-1, (F(0), F(1)), (0, 0)),
            (1, (F(0), F(0)), (1, 0)),
        )
        sets, _ = starting_data(Branch((g1, g2)), W2, ExpandOptions())
        assert len(sets) == 1
        (d,) = sets
        assert d.eta == ((1, 0), (0, 1))
        assert d.c == (F(1), F(1))

    def test_irrational_coefficients_flagged(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-2, (F(2),), (0,)))  # y^2 - 2x^2
        sets, info = starting_data(Branch((f,)), W1, ExpandOptions())
        assert sets == []
        assert info.irrational

    def test_strict_increase_filter(self):
        b = Branch((NODAL,))
        b_after = recenter(
            b,
            StepData(((1,),), ((F(1),),), (F(1),)),
            W1,
        )
        sets, info = starting_data(b_after, W1, ExpandOptions())
        # y^2 + 2xy - x^3 has candidates at 1 (floor) and 2 (valid)
        assert [d.eta for d in sets] == [((2,),)]
        assert info.rejected_increase == 1


class TestRecenter:
    def test_plane_shift(self):
        b = Branch((NODAL,))
        d = StepData(((1,),), ((F(1),),), (F(1),))
        nb = recenter(b, d, W1)
        want = lp(1, 1, (1, (F(0),), (2,)), (2, (F(1),), (1,)), (-1, (F(3),), (0,)))
        assert nb.gens == (want,)
        assert nb.cum_ram == 1
        assert nb.coords(1) == (((F(1), (F(1),)),),)

    def test_ramified_shift(self):
        b = Branch((SURFACE,))
        d = StepData(
            ((F(1, 2), F(1, 2)),), ((F(1, 2), F(1, 2)),), (F(1),)
        )
        nb = recenter(b, d, W2)
        want = lp(2, 1, (1, (F(0), F(0)), (2,)), (2, (F(1), F(1)), (1,)))
        assert nb.gens == (want,)
        assert nb.cum_ram == 2
        assert nb.coords(1) == (((F(1), (F(1, 2), F(1, 2))),),)

    def test_retirement_substitutes_zero(self):
        g1 = y_var(2, 2, 0)  # y1, absorbed on retirement
        g2 = lp(2, 2, (1, (F(0), F(0)), (0, 1)), (1, (F(1), F(0)), (0, 0)))
        b = Branch((g1, g2))
        d = StepData(
            (None, (1, 0)),
            (None, (F(1), F(0))),
            (F(0), F(-1)),
        )
        nb = recenter(b, d, W2)
        assert nb.retired == frozenset({0})
        assert nb.gens == (y_var(2, 2, 1),)
        assert nb.coords(2) == ((), ((F(-1), (F(1), F(0))),))

    def test_monotonicity_violation_raises(self):
        b = Branch((NODAL,))
        d = StepData(((1,),), ((F(1),),), (F(1),))
        nb = recenter(b, d, W1)
        with pytest.raises(ValueError, match="strictly increase"):
            recenter(nb, d, W1)

    def test_zero_coefficient_step_rejected_by_invariants(self):
        with pytest.raises(ValueError):
            StepData(((1,),), ((F(1),),), (F(0),))


class TestExpand:
    def test_surface_exact_pair(self):
        res = expand([SURFACE], W2, ExpandOptions(max_terms=3))
        assert len(res.solutions) == 2
        for s, c in zip(res.solutions, (F(-1), F(1))):
            assert s.exact
            assert s.ramification == 2
            assert s.residual_order is None
            assert s.coords == (((c, (F(1, 2), F(1, 2))),),)

    def test_binomial_square_root_series(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
        res = expand([f], W1, ExpandOptions(max_terms=4))
        assert len(res.solutions) == 2
        plus = res.solutions[1]
        assert [c for c, _ in plus.coords[0]] == [F(1), F(1, 2), F(-1, 8), F(1, 16)]
        assert [e[0] for _, e in plus.coords[0]] == [F(1), F(2), F(3), F(4)]
        assert plus.residual_order == (6,)
        minus = res.solutions[0]
        assert [c for c, _ in minus.coords[0]] == [F(-1), F(-1, 2), F(1, 8), F(-1, 16)]

    def test_linear_chain_back_substitution(self):
        g1 = lp(2, 2, (1, (F(0), F(0)), (1, 0)), (-1, (F(1), F(0)), (0, 0)))
        g2 = lp(
            2,
            2,
            (1, (F(0), F(0)), (0, 1)),
            (-1, (F(0), F(1)), (0, 0)),
            (1, (F(0), F(0)), (1, 0)),
        )
        res = expand([g1, g2], W2, ExpandOptions(max_terms=5))
        assert len(res.solutions) == 1
        (s,) = res.solutions
        assert s.exact
        assert s.coords[0] == ((F(1), (F(1), F(0))),)
        assert s.coords[1] == ((F(1), (F(0), F(1))), (F(-1), (F(1), F(0))))

    def test_branch_through_zero_is_found(self):
        # y(y - x): the zero series and the line both solve the system
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(1),), (1,)))
        res = expand([f], W1, ExpandOptions(max_terms=4))
        assert len(res.solutions) == 2
        assert res.solutions[0].coords == ((),)
        assert res.solutions[0].exact
        assert res.solutions[1].coords == (((F(1), (F(1),)),),)
        assert res.solutions[1].exact

    def test_dead_branch_reports_irrational(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-2, (F(2),), (0,)))
        res = expand([f], W1, ExpandOptions(max_terms=4))
        assert res.solutions == ()
        assert len(res.dead_branches) == 1
        d = res.dead_branches[0]
        assert d.reason == "no_rational_torus_solution"
        assert d.info.irrational
        assert res.irrational_roots_detected

    def test_no_candidates_reported(self):
        f = lp(2, 1, (1, (1, 0), (0,)), (-1, (0, 1), (0,)))  # x1 - x2
        res = expand([f], W2, ExpandOptions(max_terms=2))
        assert res.solutions == ()
        assert res.dead_branches[0].reason == "no_prevariety_candidate"

    def test_branch_budget(self):
        with pytest.raises(BranchBudgetExceeded):
            expand([NODAL], W1, ExpandOptions(max_terms=4, max_branches=2))

    def test_monotonicity_along_traces(self):
        res = expand([NODAL], W1, ExpandOptions(max_terms=4))
        for s in res.solutions:
            assert_trace_monotone(s.trace)

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            expand([LPoly(1, 1)], W1)

    def test_accumulated_exponents_live_in_ramification_lattice(self):
        f = lp(1, 1, (1, (F(0),), (3,)), (-1, (F(2),), (0,)))  # y^3 - x^2
        res = expand([f], W1, ExpandOptions(max_terms=4))
        (s,) = res.solutions
        assert s.exact
        assert s.ramification == 3
        assert s.coords == (((F(1), (F(2, 3),)),),)
        for c, e in s.coords[0]:
            assert (e[0] * s.ramification).denominator == 1
        assert res.irrational_roots_detected  # the conjugate branches


class TestVerify:
    def test_exact_certificate(self):
        coords = (((F(1), (F(1, 2), F(1, 2))),),)
        assert verify_residual([SURFACE], coords, W2) is None

    def test_two_term_truncation(self):
        coords = (((F(1), (F(1),)), (F(1, 2), (F(2),))),)
        assert verify_residual([NODAL], coords, W1) == (4,)

    def test_empty_series(self):
        f = lp(1, 1, (1, (F(0),), (1,)), (-1, (F(1),), (0,)))
        assert verify_residual([f], ((),), W1) == (1,)

    def test_residual_growth_on_truncations(self):
        res = expand([NODAL], W1, ExpandOptions(max_terms=4))
        s = res.solutions[1]
        orders = []
        for k in range(1, 5):
            coords = (s.coords[0][:k],)
            orders.append(verify_residual([NODAL], coords, W1))
        assert orders == [(3,), (4,), (5,), (6,)]
        assert all(a < b for a, b in zip(orders, orders[1:]))

    def test_zero_correspondence_under_recentering(self):
        # a residual certificate for the recentered system transfers to the
        # parent after adding the step monomial and ramifying
        b = Branch((NODAL,))
        d = StepData(((1,),), ((F(1),),), (F(1),))
        nb = recenter(b, d, W1)
        child_coords = (((F(1, 2), (F(2),)),),)
        child_res = verify_residual(list(nb.gens), child_coords, W1)
        parent_coords = (((F(1), (F(1),)), (F(1, 2), (F(2),))),)
        parent_res = verify_residual([NODAL], parent_coords, W1)
        assert child_res == parent_res == (4,)

    def test_zero_correspondence_with_ramification(self):
        b = Branch((SURFACE,))
        d = StepData(
            ((F(1, 2), F(1, 2)),), ((F(1, 2), F(1, 2)),), (F(1),)
        )
        nb = recenter(b, d, W2)
        # child residual of the zero series vs parent residual of the step
        child_res = verify_residual(list(nb.gens), ((),), W2)
        parent_res = verify_residual(
            [SURFACE], (((F(1), (F(1, 2), F(1, 2))),),), W2
        )
        assert child_res is None and parent_res is None

    @seed(20261019)
    @settings(max_examples=60)
    @given(
        gens=st.lists(lpolys(2, 2, max_terms=4), min_size=2, max_size=2),
        series=st.tuples(*[st.lists(st.tuples(nonzero_rats, xexps(2)), max_size=3)] * 2),
    )
    def test_matches_the_order_of_the_naive_substitution(self, gens, series):
        """Fractional and negative exponents, a 2-row weight, two generators in two y."""
        assume(not any(g.is_zero for g in gens))
        W = WeightMatrix([[F(1, 2), 1], [1, -1]])
        images = [lp(2, 2, *((c, e, (0, 0)) for c, e in s)) for s in series]
        values = [value_of(W, t.xexp) for g in gens for t in naive_substitute(g, images).terms]
        assert verify_residual(gens, series, W) == min(values, default=None)


class TestSubstituteConsistency:
    def test_recentered_generators_match_direct_substitution(self):
        # f(x, s + y) evaluated at y = t equals f(x, s + t)
        b = Branch((NODAL,))
        d = StepData(((1,),), ((F(1),),), (F(1),))
        nb = recenter(b, d, W1)
        t = xm(1, 1, F(1, 2), 2)
        via_child = substitute_y(nb.gens[0], [series_terms(t)])
        s_plus_t = lp(1, 1, (1, (1,), (0,)), (F(1, 2), (2,), (0,)))
        via_parent = substitute_y(NODAL, [series_terms(s_plus_t)])
        assert via_child == via_parent


def test_smooth_branches_at_depth_match_the_closed_form():
    # y^2 = x^2 (1 + x): the branches are +-x (1 + x)^(1/2), whose x^(k+1)
    # coefficient is +-binom(1/2, k); every step past the first is a linear
    # eliminant with coefficients that grow with depth
    res = expand([NODAL], W1, ExpandOptions(max_terms=30))
    binom = [F(1)]
    for k in range(1, 30):
        binom.append(binom[-1] * (F(1, 2) - k + 1) / k)
    got = sorted(tuple((c, e[0]) for c, e in s.coords[0]) for s in res.solutions)
    want = sorted(
        tuple((sign * b, F(k + 1)) for k, b in enumerate(binom)) for sign in (-1, 1)
    )
    assert got == want
    for s in res.solutions:
        shorter = verify_residual([NODAL], (s.coords[0][:29],), W1)
        assert shorter < s.residual_order


def _against_newton_oracle(support, max_terms):
    f = from_terms(1, 1, [(c, (F(a),), (i,)) for a, i, c in support])
    res = expand([f], W1, ExpandOptions(max_terms=max_terms, max_branches=10**6))
    got = sorted(
        (tuple((e[0], c) for c, e in s.coords[0]), s.exact) for s in res.solutions
    )
    want, irrational = expand_curve(curve(support), max_terms=max_terms)
    assert got == want, support
    assert res.irrational_roots_detected == irrational, support


def test_branches_survive_a_failed_first_tie():
    # -y^2 - x*y + 2*x^2*y + 2*x^3 - x^4*y: the first pair that solves to
    # eta = 2, (y^2, x^2*y), is not at the minimum; the later (x*y, x^3) is
    support = [(0, 2, -1), (1, 1, -1), (2, 1, 2), (3, 0, 2), (4, 1, -1)]
    _against_newton_oracle(support, 3)


def test_random_plane_curves_match_the_polygon_oracle():
    rng = random.Random(20261018)
    for _ in range(100):
        support = [
            (rng.randint(0, 5), rng.randint(0, 3), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(2, 6))
        ]
        _against_newton_oracle(support, 3)


def test_tie_count_ignores_terms_that_never_reach_the_minimum():
    # coupled_pair_a's dead branch: y1*y2 lies above y1 and y2 at every
    # positive weight, so only one positive-dimensional pair system is left
    res = expand(coupled_pair(+1), WeightMatrix([[1, 1], [0, 1]]), ExpandOptions(max_terms=3))
    (dead,) = res.dead_branches
    assert dead.info.underdetermined == 1
    assert res.underdetermined_seen


# Number types: exact rationals everywhere, and int exponents for integral
# input.  The weight matrices cover the identity, a mixing one and one with
# a fractional entry.
NUMBER_WS = [W2, WeightMatrix([[1, 1], [0, 1]]), WeightMatrix([[F(1, 2), 1], [1, -1]])]


@st.composite
def _systems(draw, integral):
    ny = draw(st.integers(1, 2))
    exps = st.integers(-2, 4) if integral else st.fractions(-2, 4, max_denominator=3)
    term = st.tuples(
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.tuples(exps, exps),
        st.tuples(*[st.integers(0, 2)] * ny),
    )
    gen = st.lists(term, min_size=2, max_size=4).map(lambda ts: from_terms(2, ny, ts))
    gens = draw(st.lists(gen.filter(lambda g: g.terms), min_size=ny, max_size=ny))
    W = draw(st.sampled_from(NUMBER_WS))
    opts = ExpandOptions(max_terms=3, positive_only=draw(st.booleans()))
    return gens, W, opts


def _trace_numbers(trace):
    for t in trace:
        for v in t.eta + t.gamma:
            yield from v or ()
        yield from t.c


@seed(20261018)
@given(system=st.booleans().flatmap(_systems))
def test_every_result_number_is_an_exact_rational(system):
    gens, W, opts = system
    try:
        res = expand(gens, W, opts)
    except (BranchBudgetExceeded, BudgetExceeded):
        assume(False)
    numbers = []
    for s in res.solutions:
        numbers += [q for coord in s.coords for c, exp in coord for q in (c, *exp)]
        numbers += s.residual_order or ()
        numbers += _trace_numbers(s.trace)
    for d in res.dead_branches:
        numbers += _trace_numbers(d.trace)
    assert {type(q) for q in numbers} <= {int, F}


def _is_canonical(q) -> bool:
    return type(q) is int or (type(q) is F and q.denominator != 1)


def _recentered(system):
    """Each step data and child of the first two levels of an expansion."""
    gens, W, opts = system
    frontier = [Branch(tuple(gens))]
    for _ in range(2):
        children = []
        for b in frontier[:8]:
            for sd in starting_data(b, W, opts)[0]:
                child = recenter(b, sd, W)
                yield sd, child
                children.append(child)
        frontier = children


def _assert_result_exponents_canonical(system):
    """Every trace row entry and every coordinate exponent of the result."""
    gens, W, opts = system
    try:
        res = expand(gens, W, opts)
    except (BranchBudgetExceeded, BudgetExceeded):
        return
    traces = [s.trace for s in res.solutions] + [d.trace for d in res.dead_branches]
    rows = [row for trace in traces for t in trace for row in t.gamma if row is not None]
    assert all(_is_canonical(q) for row in rows for q in row)
    exps = [exp for s in res.solutions for coord in s.coords for _, exp in coord]
    assert all(_is_canonical(q) for exp in exps for q in exp)


@seed(20261018)
@given(system=_systems(integral=True))
def test_integral_input_keeps_int_exponents(system):
    for sd, child in _recentered(system):
        assert all(_is_canonical(q) for v in sd.eta if v is not None for q in v)
        for g in child.gens:
            assert all(type(e) is int for t in g.terms for e in t.xexp)
    _assert_result_exponents_canonical(system)


@seed(20261018)
@given(system=_systems(integral=False))
def test_residual_order_reads_the_y_free_parts(system):
    gens, W, _ = system
    root = Branch(tuple(gens))
    assert expansion.residual_order(root, W) == residual_order_reference(root, W)
    for _, child in _recentered(system):
        assert expansion.residual_order(child, W) == residual_order_reference(child, W)


@seed(20261018)
@given(system=_systems(integral=False))
def test_fractional_input_keeps_canonical_exponents(system):
    for sd, child in _recentered(system):
        assert all(_is_canonical(q) for v in sd.eta if v is not None for q in v)
        for g in child.gens:
            assert all(_is_canonical(e) for t in g.terms for e in t.xexp)
    _assert_result_exponents_canonical(system)


# The residual order that expand reads off the recentered generators, checked
# against verify_residual, which substitutes the series into the original
# generators.
RESIDUAL_WS = [
    W2,
    WeightMatrix([[1, 1], [0, 1]]),
    WeightMatrix([[F(1, 2), 1], [1, -1]]),
    WeightMatrix([[2, 3], [1, 1], [0, 5]]),
]
PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
PROBLEMS = sorted(PROBLEMS_DIR.glob("*.txt"))


def _assert_residuals_match(gens, W, res):
    for s in res.solutions:
        assert s.residual_order == verify_residual(gens, s.coords, W)
        assert s.exact == (s.residual_order is None)
        assert all(_is_canonical(q) for q in s.residual_order or ())


@st.composite
def _residual_systems(draw):
    plane = draw(st.booleans())
    nx, ny = (1, 1) if plane else (2, draw(st.integers(1, 2)))
    exps = st.fractions(-2, 4, max_denominator=3)
    term = st.tuples(
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.tuples(*[exps] * nx),
        st.tuples(*[st.integers(0, 3 if plane else 2)] * ny),
    )
    # a y-free term and a term linear in one y in every generator: y = 0 is
    # no branch, and many candidates have rational coefficients
    y_free = st.tuples(
        st.sampled_from([-2, -1, 1, 2]), st.tuples(*[exps] * nx), st.just((0,) * ny)
    )
    linear = st.builds(
        lambda c, e, i: (c, e, tuple(int(j == i) for j in range(ny))),
        st.sampled_from([-1, 1]),
        st.tuples(*[exps] * nx),
        st.integers(0, ny - 1),
    )
    gen = st.tuples(y_free, linear, st.lists(term, min_size=1, max_size=2)).map(
        lambda ts: from_terms(nx, ny, [ts[0], ts[1], *ts[2]])
    )
    gens = draw(st.lists(gen.filter(lambda g: len(g.terms) > 1), min_size=ny, max_size=ny))
    W = W1 if plane else draw(st.sampled_from(RESIDUAL_WS))
    opts = ExpandOptions(
        max_terms=draw(st.integers(2, 4)), positive_only=draw(st.booleans())
    )
    return gens, W, opts


@seed(20261018)
@settings(max_examples=150)
@given(system=_residual_systems())
def test_residual_order_matches_substitution(system):
    gens, W, opts = system
    try:
        res = expand(gens, W, opts)
    except (BranchBudgetExceeded, BudgetExceeded):
        assume(False)
    _assert_residuals_match(gens, W, res)


def _raise(*args):
    raise AssertionError("expand must not substitute the series back")


@pytest.mark.parametrize("max_terms", [3, 6, 10])
def test_corpus_residual_orders_without_substitution(monkeypatch, max_terms):
    for path in PROBLEMS:
        spec = parse_problem(path.read_text())
        opts = replace(spec.options, max_terms=max_terms)
        with monkeypatch.context() as m:
            m.setattr(expansion, "verify_residual", _raise)
            m.setattr(expansion, "substitute_y", _raise)
            res = expand(spec.gens, spec.weights, opts)
        _assert_residuals_match(spec.gens, spec.weights, res)


# Branch generators are kept up to a positive constant, and everything the
# driver reads off them ignores any nonzero constant factor.
SCALES = (F(-3, 7), F(5, 2), F(-1), F(11, 13))


@pytest.mark.parametrize("max_terms", [3, 6])
def test_corpus_expansion_is_scale_invariant(max_terms):
    for path in PROBLEMS:
        spec = parse_problem(path.read_text())
        opts = replace(spec.options, max_terms=max_terms)
        want = expand(spec.gens, spec.weights, opts)
        for r in range(len(SCALES)):
            scaled = [naive_scale(g, SCALES[(i + r) % len(SCALES)]) for i, g in enumerate(spec.gens)]
            assert expand(scaled, spec.weights, opts) == want, (path.name, r)


# Retiring y2 at the step y1 = x1 leaves 2*y1^2 + 4*x1*y1 when y2 is set to
# zero after the shift instead of before it.
RETIRES_AFTER_A_SHIFT = "vars x1 y1 y2\nweight 1\ngen y1 - x1\ngen y2 + 2*y1^2 - 2*x1^2\n"


def test_branch_generators_are_primitive_integer_polynomials(monkeypatch):
    """Every branch ``expand`` visits, the root included, holds primitive integer generators."""
    seen = []
    real_scan, real_recenter = expansion.starting_data, expansion.recenter

    def scanning(branch, W, opts):
        if not branch.trace:
            seen.extend(branch.gens)
        return real_scan(branch, W, opts)

    def recentering(branch, data, W):
        child = real_recenter(branch, data, W)
        seen.extend(child.gens)
        return child

    monkeypatch.setattr(expansion, "starting_data", scanning)
    monkeypatch.setattr(expansion, "recenter", recentering)
    texts = [path.read_text() for path in PROBLEMS] + [RETIRES_AFTER_A_SHIFT]
    for text in texts:
        spec = parse_problem(text)
        expand(spec.gens, spec.weights, replace(spec.options, max_terms=3))
    assert seen
    for g in seen:
        assert all(type(t.coeff) is int for t in g.terms)
        assert gcd(*(t.coeff for t in g.terms)) == 1


def _scanned_corpus(monkeypatch, positive_only):
    """The branches ``expand`` scans on the corpus at ``max_terms`` 1-6, and
    the steps ``starting_data`` returns for them."""
    branches, steps = [], []
    real_scan = expansion.starting_data

    def scanning(branch, W, opts):
        out, info = real_scan(branch, W, opts)
        branches.append(branch)
        steps.extend(out)
        return out, info

    monkeypatch.setattr(expansion, "starting_data", scanning)
    for path in PROBLEMS:
        spec = parse_problem(path.read_text())
        for max_terms in range(1, 7):
            opts = replace(spec.options, max_terms=max_terms, positive_only=positive_only)
            expand(spec.gens, spec.weights, opts)
    return branches, steps


def _retired_degrees(branch):
    """The terms of the branch's generators with a positive degree in a retired coordinate."""
    return [
        t for g in branch.gens for t in g.terms if any(t.ydeg[i] for i in branch.retired)
    ]


@pytest.mark.parametrize("positive_only", [True, False])
def test_scanned_branches_and_their_steps_are_normalized(monkeypatch, positive_only):
    """``StepData`` keeps its fields as given, so the scan and the solver must
    hand it canonical rows and ``Fraction`` coefficients.  ``recenter``
    zeroes the retired coordinates, so the scan never meets them, and
    ``restrict`` is the only filter for coordinates outside ``lam``."""
    branches, steps = _scanned_corpus(monkeypatch, positive_only)
    assert steps and any(b.retired for b in branches)
    for sd in steps:
        assert all(type(c) is F for c in sd.c), sd
        for row in sd.gamma:
            if row is not None:
                assert all(type(e) is int or e.denominator != 1 for e in row), sd
    for b in branches:
        assert not _retired_degrees(b), b.trace


def test_the_retired_coordinate_check_sees_a_recenter_that_keeps_them(monkeypatch):
    real_shift = expansion.shift_y

    def keeping(f, shifts):
        return real_shift(f, [(0, (0,) * f.nx) if s is None else s for s in shifts])

    monkeypatch.setattr(expansion, "shift_y", keeping)
    branches, _ = _scanned_corpus(monkeypatch, True)
    assert any(_retired_degrees(b) for b in branches)


@pytest.mark.parametrize("positive_only", [True, False])
def test_recenter_is_the_three_pass_recentering(monkeypatch, positive_only):
    """On every step ``expand`` takes on the corpus, the one substitution per
    generator, which shifts the active ys and zeroes the retired ones, gives
    the generators of ramifying, dropping the retired terms and shifting."""
    retiring = dropped = 0
    real_recenter = expansion.recenter

    def recentering(branch, data, W):
        nonlocal retiring, dropped
        child = real_recenter(branch, data, W)
        want = recenter_in_three_passes(branch, data)
        assert child.gens == want, (branch.trace, data)
        if set(i for i, e in enumerate(data.eta) if e is None) - branch.retired:
            retiring += 1
            dropped += len(branch.gens) - len(want)
        return child

    monkeypatch.setattr(expansion, "recenter", recentering)
    texts = [path.read_text() for path in PROBLEMS] + [RETIRES_AFTER_A_SHIFT]
    for text in texts:
        spec = parse_problem(text)
        for max_terms in (3, 6):
            opts = replace(spec.options, max_terms=max_terms, positive_only=positive_only)
            expand(spec.gens, spec.weights, opts)
    assert retiring and dropped


def _solution_keys(res):
    """The solutions up to the order of terms: each coordinate a sorted term
    list, with exactness and ramification; the trace order follows ``W``."""
    return sorted(
        (tuple(tuple(sorted(c)) for c in s.coords), s.exact, s.ramification)
        for s in res.solutions
    )


# The corollary of the paper for quasi-ordinary surfaces: when every
# difference of two branches is a monomial times a unit, the branches are
# power series in fractional powers of x and do not depend on the weight.
QUASI_ORDINARY = {
    "surface_sqrt": (PROBLEMS_DIR / "surface_sqrt.txt").read_text(),
    "squared_cusp": "vars x1 x2 y1\nweight 1 0\nweight 0 1\n"
    "gen (y1^2 - x1^3*x2^2)^2 - x1^7*x2^5\n",
    "unit_difference": "vars x1 x2 y1\nweight 1 0\nweight 0 1\n"
    "gen (y1 - x1 - x2)*(y1 - x1 + x2^2)\n",
}
# y1 = x1*(1 + x2^3/x1^2)^(1/2): the difference of its branches is no
# monomial times a unit, and its expansion depends on the weight.
NOT_QUASI_ORDINARY = "vars x1 x2 y1\nweight 1 0\nweight 0 1\ngen y1^2 - x1^2 - x2^3\n"
GENERIC_WS = [W2, WeightMatrix([[1, 1], [0, 1]]), WeightMatrix([[2, 1], [1, 3]])]


def _keys_per_weight(text, max_terms):
    spec = parse_problem(text)
    opts = replace(spec.options, max_terms=max_terms)
    return [_solution_keys(expand(spec.gens, W, opts)) for W in GENERIC_WS]


@pytest.mark.parametrize("max_terms", [2, 4, 6])
@pytest.mark.parametrize("name", sorted(QUASI_ORDINARY))
def test_quasi_ordinary_solutions_do_not_depend_on_the_weight(name, max_terms):
    keys = _keys_per_weight(QUASI_ORDINARY[name], max_terms)
    assert keys[0]
    assert keys[1] == keys[0] and keys[2] == keys[0]


def test_the_weight_check_sees_a_surface_that_is_not_quasi_ordinary():
    keys = _keys_per_weight(NOT_QUASI_ORDINARY, 4)
    assert keys[0] and (keys[1] != keys[0] or keys[2] != keys[0])


@pytest.mark.parametrize("field", ["max_terms", "max_branches", "solver_budget"])
@pytest.mark.parametrize("value", [0, -2])
def test_nonpositive_budget_rejected(field, value):
    with pytest.raises(ValueError, match="%s must be at least 1" % field):
        ExpandOptions(**{field: value})
    with pytest.raises(ValueError, match=field):
        replace(ExpandOptions(), **{field: value})
    assert getattr(ExpandOptions(**{field: 1}), field) == 1


# Two traces that first differ at step k set different k-th terms, or retire
# a coordinate at different lengths, so no two emitted branches share a
# series; ``expand`` keeps every branch it emits.
def _assert_distinct_series(res, where):
    keys = [expansion._coords_key(s.coords) for s in res.solutions]
    assert len(set(keys)) == len(keys), where


@pytest.mark.parametrize("positive_only", [True, False])
def test_corpus_solutions_have_pairwise_distinct_series(positive_only):
    for path in PROBLEMS:
        spec = parse_problem(path.read_text())
        for max_terms in range(1, 9):
            opts = replace(spec.options, max_terms=max_terms, positive_only=positive_only)
            _assert_distinct_series(expand(spec.gens, spec.weights, opts), (path.name, max_terms))


@pytest.mark.parametrize("positive_only", [True, False])
def test_random_plane_curve_solutions_have_pairwise_distinct_series(positive_only):
    rng = random.Random(20261019)
    for _ in range(100):
        support = [
            (rng.randint(0, 5), rng.randint(0, 3), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(2, 6))
        ]
        f = from_terms(1, 1, [(c, (F(a),), (i,)) for a, i, c in support])
        for max_terms in range(1, 7):
            opts = ExpandOptions(max_terms=max_terms, max_branches=10**6, positive_only=positive_only)
            _assert_distinct_series(expand([f], W1, opts), (support, max_terms))
