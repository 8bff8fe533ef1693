import random
from dataclasses import replace
from fractions import Fraction as F
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
    MonotonicityError,
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
    identity,
    lp,
    monomials_of,
    vscale,
    xm,
    y_var,
)

W1 = identity(1)
W2 = identity(2)

NODAL = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
SURFACE = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))


class TestStepData:
    def test_defining_data_of_monomial_tuple(self):
        m = (xm(2, 3, 3, 3, 0), xm(2, 3, 7, 2, 1), LPoly.zero(2, 3))
        d = defining_data(m, W2)
        assert d.eta == ((3, 0), (2, 1), None)
        assert d.gamma == ((F(3), F(0)), (F(2), F(1)), None)
        assert d.c == (F(3), F(7), F(0))

    def test_defining_data_of_zero_tuple(self):
        d = defining_data((LPoly.zero(2, 2), LPoly.zero(2, 2)), W2)
        assert d.eta == (None, None)
        assert d.c == (F(0), F(0))

    def test_round_trip(self):
        for gamma, c in [
            (((F(1), F(0)), (F(1, 2), F(3))), (F(2), F(-1, 3))),
            (((F(0), F(-1)), None), (F(5), F(0))),
        ]:
            eta = tuple(
                None if g is None else W2.value_of(g) for g in gamma
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
            LPoly.zero(2, 3),
        )

    def test_scaling_identity(self):
        # the tuple of {eta, gamma, c} evaluated at x^r equals the tuple of
        # {r*eta, r*gamma, c}
        gamma = ((F(1, 2), F(1)),)
        d = StepData((W2.value_of(gamma[0]),), gamma, (F(2),))
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
        with pytest.raises(MonotonicityError):
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
        assert d.irrational_roots_detected
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
            expand([LPoly.zero(1, 1)], W1)

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


class TestSubstituteConsistency:
    def test_recentered_generators_match_direct_substitution(self):
        # f(x, s + y) evaluated at y = t equals f(x, s + t)
        b = Branch((NODAL,))
        d = StepData(((1,),), ((F(1),),), (F(1),))
        nb = recenter(b, d, W1)
        t = xm(1, 1, F(1, 2), 2)
        via_child = substitute_y(nb.gens[0], [t])
        s_plus_t = lp(1, 1, (1, (1,), (0,)), (F(1, 2), (2,), (0,)))
        via_parent = substitute_y(NODAL, [s_plus_t])
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
    f = LPoly.from_terms(1, 1, [(c, (F(a),), (i,)) for a, i, c in support])
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
    assert dead.underdetermined == 1
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
    gen = st.lists(term, min_size=2, max_size=4).map(lambda ts: LPoly.from_terms(2, ny, ts))
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
PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.txt"))


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
        lambda ts: LPoly.from_terms(nx, ny, [ts[0], ts[1], *ts[2]])
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
