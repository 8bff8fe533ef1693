from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, seed, settings

from puiseux import (
    Branch,
    ExpandOptions,
    LPoly,
    WeightMatrix,
    candidate_etas,
    expand,
    parse_problem,
    recenter,
    starting_data,
    term_value,
)
from puiseux import tropical
from puiseux.solver import SOLVER_BUDGET
from puiseux.values import add_row
from oracle_grid import first_term_candidates, rational_grid
from oracle_groebner import buchberger
from oracle_newton import curve, edge_mus
from oracle_pairs import brute_etas, brute_underdetermined
from tutils import (
    coupled_pair,
    identity,
    initial_form,
    is_prevariety_point,
    lower_terms,
    lp,
    naive_sum,
    scan_etas,
    y_var,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
W1 = identity(1)
W2 = identity(2)

NODAL = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))


class TestCandidateEtas:
    def test_nodal_cubic_single_slope(self):
        scan = candidate_etas([NODAL], W1, (0,))
        assert scan_etas(scan) == (((1,),),)
        assert scan.underdetermined == 0

    def test_surface_tie(self):
        f = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))
        scan = candidate_etas([f], W2, (0,))
        assert scan_etas(scan) == (((F(1, 2), F(1, 2)),),)

    def test_retiring_everything_needs_vanishing_generators(self):
        f = lp(1, 1, (1, (0,), (1,)), (-1, (1,), (0,)))  # y - x
        scan = candidate_etas([f], W1, ())
        assert scan_etas(scan) == ()

    def test_all_generators_vanish_when_retired(self):
        f = lp(1, 2, (1, (F(0),), (1, 0)), (1, (F(1),), (1, 1)))
        scan = candidate_etas([f], W1, ())
        assert scan_etas(scan) == ((None, None),)

    def test_validation_rejects_non_minimal_pairs(self):
        # the (y^2, x^3) tie gives eta = 3/2 but x^2 sits lower
        scan = candidate_etas([NODAL], W1, (0,), positive_only=False)
        assert ((F(3, 2),),) not in scan_etas(scan)

    def test_positive_only_filter(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(-2),), (0,)))  # y^2 - x^-2
        assert scan_etas(candidate_etas([f], W1, (0,))) == ()
        scan = candidate_etas([f], W1, (0,), positive_only=False)
        assert scan_etas(scan) == (((-1,),),)

    def test_underdetermined_tie_is_reported(self):
        f = lp(1, 2, (1, (0,), (1, 0)), (-1, (0,), (0, 1)))  # y1 - y2
        scan = candidate_etas([f], W1, (0, 1))
        assert scan_etas(scan) == ()
        assert scan.underdetermined == 1

    def test_initials_follow_generator_order(self):
        g2 = lp(1, 1, (1, (0,), (1,)), (-1, (1,), (0,)))  # y - x
        scan = candidate_etas([NODAL, g2], W1, (0,))
        # the shared weight must make both initial forms non-monomial;
        # eta = 1 works for both generators here
        assert scan_etas(scan) == (((1,),),)
        (cand,) = scan.candidates
        assert len(cand.initials) == 2
        assert all(len(h.terms) >= 2 for h in cand.initials)

    def test_failed_choice_does_not_hide_a_later_valid_one(self):
        # y^3 + x^4*y^2 + x^6*y + x^10: the pair (y^3, x^4*y^2) comes first
        # and ties at eta = 4 above the minimum; (x^6*y, x^10) attains it
        f = lp(
            1,
            1,
            (1, (F(0),), (3,)),
            (1, (F(4),), (2,)),
            (1, (F(6),), (1,)),
            (1, (F(10),), (0,)),
        )
        assert scan_etas(candidate_etas([f], W1, (0,))) == (((3,),), ((4,),))

    def test_floor_bounds_the_enumerated_region(self):
        # y2^2 - x1^3*x2^2 and 2*x1^3*x2^4*y1*y2^2 + 2*x1^4*x2^4 tie only at
        # eta = ((-2, -2), (3/2, 1))
        gens = [
            lp(2, 2, (1, (F(0), F(0)), (0, 2)), (-1, (F(3), F(2)), (0, 0))),
            lp(2, 2, (2, (F(3), F(4)), (1, 2)), (2, (F(4), F(4)), (0, 0))),
        ]
        eta = ((-2, -2), (F(3, 2), 1))
        assert scan_etas(candidate_etas(gens, W2, (0, 1), positive_only=False)) == (eta,)
        # ties at the floor are returned, weights below it are not
        assert scan_etas(candidate_etas(gens, W2, (0, 1), positive_only=False, floor=eta)) == (eta,)
        above = ((0, 1), (0, 2))
        assert scan_etas(candidate_etas(gens, W2, (0, 1), positive_only=False, floor=above)) == ()

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            candidate_etas([LPoly.zero(1, 1)], W1, (0,))


class TestPrevarietyPoint:
    def test_accepts_tied_weight(self):
        assert is_prevariety_point([NODAL], W1, ((1,),))

    def test_rejects_monomial_initial(self):
        assert not is_prevariety_point([NODAL], W1, ((F(1, 3),),))

    def test_rejects_pure_x_generators(self):
        f = lp(2, 1, (1, (1, 0), (0,)), (-1, (0, 1), (0,)))  # x1 - x2
        for eta in [((1, 1),), (None,)]:
            assert not is_prevariety_point([f], W2, eta)

    def test_absorbed_generator_imposes_nothing(self):
        f = y_var(1, 1, 0)
        assert is_prevariety_point([f], W1, (None,))


class TestSoundnessAndCompleteness:
    CORPUS = [
        [NODAL],
        [lp(1, 1, (1, (F(0),), (2,)), (-1, (F(3),), (0,)))],
        [lp(1, 1, (1, (F(0),), (3,)), (-1, (F(2),), (0,)))],
        [
            lp(
                1,
                2,
                (1, (F(0),), (1, 0)),
                (-1, (F(1),), (0, 0)),
            ),
            lp(
                1,
                2,
                (1, (F(0),), (0, 1)),
                (-1, (F(2),), (0, 0)),
                (1, (F(0),), (1, 0)),
            ),
        ],
    ]

    def test_every_candidate_is_a_prevariety_point(self):
        for gens in self.CORPUS:
            ny = gens[0].ny
            lams = [(i,) for i in range(ny)] + ([tuple(range(ny))] if ny > 1 else [])
            for lam in lams:
                for eta in scan_etas(candidate_etas(gens, W1, lam, positive_only=False)):
                    assert is_prevariety_point(gens, W1, eta)

    def test_candidates_rederive_themselves(self):
        for gens in self.CORPUS:
            ny = gens[0].ny
            lam = tuple(range(ny))
            scan = candidate_etas(gens, W1, lam, positive_only=False)
            for eta in scan_etas(scan):
                again = candidate_etas(gens, W1, lam, positive_only=False)
                assert eta in scan_etas(again)


PLANE_CURVES = [
    ([(0, 2, 1), (2, 0, -1), (3, 0, -1)], NODAL),
    (
        [(0, 2, 1), (3, 0, -1)],
        lp(1, 1, (1, (F(0),), (2,)), (-1, (F(3),), (0,))),
    ),
    (
        [(0, 3, 1), (2, 0, -1)],
        lp(1, 1, (1, (F(0),), (3,)), (-1, (F(2),), (0,))),
    ),
    (
        [(0, 2, 1), (1, 1, -3), (2, 0, 2), (3, 0, 1)],
        lp(
            1,
            1,
            (1, (F(0),), (2,)),
            (-3, (F(1),), (1,)),
            (2, (F(2),), (0,)),
            (1, (F(3),), (0,)),
        ),
    ),
    (
        [(0, 2, 1), (2, 0, -1), (-1, 1, 1)],
        lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (1, (F(-1),), (1,))),
    ),
]


@pytest.mark.parametrize("support,poly", PLANE_CURVES)
@pytest.mark.parametrize("positive_only", [True, False])
def test_plane_curve_candidates_match_polygon_slopes(support, poly, positive_only):
    oracle = edge_mus(curve([(F(a), i, c) for a, i, c in support]), positive_only)
    scan = candidate_etas([poly], W1, (0,), positive_only=positive_only)
    got = sorted(eta[0][0] for eta in scan_etas(scan))
    assert got == oracle


SURFACE = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))
GRID = rational_grid(max_num=3, max_den=2)


# Value space and exponent space differ here: one W mixes the coordinates,
# the other has more rows than columns.
@pytest.mark.parametrize(
    "W", [WeightMatrix([[1, 1], [0, 1]]), WeightMatrix([[2, 3], [1, 1], [0, 5]])]
)
@pytest.mark.parametrize("gens", [[SURFACE], coupled_pair(-1)], ids=["surface", "coupled"])
def test_step_data_is_sound_under_general_weights(W, gens):
    opts = ExpandOptions()
    root = Branch(tuple(gens))
    root_steps, _ = starting_data(root, W, opts)
    assert root_steps
    branches = [(root, root_steps)]
    for sd in root_steps:
        child = recenter(root, sd, W)
        if child.gens:
            branches.append((child, starting_data(child, W, opts)[0]))
    on_grid = 0
    for branch, steps in branches:
        for sd in steps:
            for e, g in zip(sd.eta, sd.gamma):
                assert (g is None) if e is None else W.value_of(g) == e
            assert is_prevariety_point(branch.gens, W, sd.eta)
            if all(sd.c[i] in GRID for i in sd.active):
                on_grid += 1
                brute = first_term_candidates(branch.gens, W.rows, sd.gamma, GRID)
                assert sd.c in brute
    assert on_grid


# Differential against the brute-force pair enumerator: pruning dominated
# terms must not change the validated weights in the enumerated region
# (eta >= floor with a floor, eta > 0 under positive_only, else everything).


def _gens(nx, ny, max_gens, max_terms):
    term = st.tuples(
        st.integers(-3, 3).filter(bool),
        st.tuples(*[st.fractions(-2, 4, max_denominator=2)] * nx),
        st.tuples(*[st.integers(0, 3)] * ny),
    )
    gen = st.lists(term, min_size=2, max_size=max_terms).map(
        lambda ts: LPoly.from_terms(nx, ny, ts)
    )
    return st.lists(gen.filter(lambda g: len(g.terms) >= 2), min_size=1, max_size=max_gens)


def _floors(ny, d):
    val = st.tuples(*[st.fractions(-2, 3, max_denominator=3)] * d)
    return st.one_of(st.none(), st.tuples(*[val] * ny))


def _in_region(eta, lam, d, positive_only, floor):
    zero = (F(0),) * d
    for i in lam:
        if positive_only and not eta[i] > zero:
            return False
        if floor is not None and eta[i] < floor[i]:
            return False
    return True


def _check_against_brute(gens, W, lam, positive_only, floor):
    scan = candidate_etas(gens, W, lam, positive_only=positive_only, floor=floor)
    got = {c.eta for c in scan.candidates}
    want = {
        eta
        for eta in brute_etas(gens, W.rows, lam)
        if _in_region(eta, lam, W.d, positive_only, floor)
    }
    assert got == want
    for c in scan.candidates:
        assert c.initials == tuple(initial_form(g, W, c.eta) for g in gens)
        for i in lam:
            assert W.value_of(c.gamma[i]) == c.eta[i]


@seed(20261018)
@given(gens=_gens(1, 1, 1, 6), positive_only=st.booleans(), floor=_floors(1, 1))
def test_pruned_plane_candidates_match_brute_force(gens, positive_only, floor):
    _check_against_brute(gens, W1, (0,), positive_only, floor)


@pytest.mark.parametrize(
    "W",
    [W2, WeightMatrix([[1, 1], [0, 1]]), WeightMatrix([[2, 3], [1, 1], [0, 5]])],
    ids=["identity", "mixed", "tall"],
)
@seed(20261018)
@given(
    gens=_gens(2, 2, 2, 5),
    lam=st.sampled_from([(0,), (1,), (0, 1)]),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_pruned_system_candidates_match_brute_force(W, gens, lam, positive_only, data):
    _check_against_brute(gens, W, lam, positive_only, data.draw(_floors(2, W.d)))


def _brute_underdetermined(gens, W, lam, positive_only, floor):
    """The oracle's count over the lower terms that candidate_etas pairs up."""
    if floor is not None:
        low, closed = tuple(floor[i] for i in lam), True
    else:
        low, closed = ((F(0),) * W.d,) * len(lam) if positive_only else None, False
    off = [i for i in range(gens[0].ny) if i not in lam]
    lowers = []
    for g in gens:
        restricted = [t for t in g.terms if all(t.ydeg[i] == 0 for i in off)]
        if restricted:
            lowers.append(lower_terms(restricted, W, lam, low, closed))
    return brute_underdetermined(lowers, len(lam))


@st.composite
def _gens_through_a_point(draw, W, ny, lam):
    """Three to five generators, possibly coupled and possibly planted.

    Coupled: the first two lam coordinates have equal degrees in every term,
    so that no pair system determines both weights.  Planted: every
    generator is given one or two terms that tie with its lowest restricted
    term at one weight ``eta`` with positive exponent rows, so that this
    weight is a candidate; coupled and planted, the tie rows of the planted
    terms are implied by one another.  The full product of pair choices is
    kept under 6^5.
    """
    gens = draw(_gens(W.n, ny, 5, 3).filter(lambda gs: len(gs) >= 3))
    coupled = len(lam) >= 2 and draw(st.booleans())

    def couple(ydeg):
        if not coupled:
            return ydeg
        i, j = lam[:2]
        return ydeg[:j] + (ydeg[i],) + ydeg[j + 1 :]

    gens = [LPoly.from_terms(W.n, ny, [(t.coeff, t.xexp, couple(t.ydeg)) for t in g.terms]) for g in gens]
    if draw(st.booleans()):
        rows = st.tuples(*[st.fractions(0, 2, max_denominator=2).filter(bool)] * W.n)
        gamma = [draw(rows) if i in lam else None for i in range(ny)]
        eta = [None if g is None else W.value_of(g) for g in gamma]
        ydegs = st.tuples(*[st.integers(0, 3) if i in lam else st.just(0) for i in range(ny)])
        planted = []
        for g in gens:
            restricted = [t for t in g.terms if term_value(W, eta, t) is not None]
            if restricted:
                low = min(restricted, key=lambda t: term_value(W, eta, t))
                for _ in range(draw(st.integers(1, 2))):
                    ydeg = couple(draw(ydegs))
                    xexp = tuple(
                        e + sum((low.ydeg[i] - ydeg[i]) * gamma[i][k] for i in lam)
                        for k, e in enumerate(low.xexp)
                    )
                    coeff = draw(st.integers(-3, 3).filter(bool))
                    g = naive_sum(g, lp(W.n, ny, (coeff, xexp, ydeg)))
            planted.append(g)
        gens = planted
    gens = [g for g in gens if len(g.terms) >= 2]
    choices = 1
    for g in gens:
        choices *= len(g.terms) * (len(g.terms) - 1) // 2
    assume(choices <= 6**5)
    return gens


# Three to five generators over two or three y's, so that the walk prunes,
# stops at points and meets implied tie rows at every depth.
@pytest.mark.parametrize(
    "W",
    [W2, WeightMatrix([[1, 1], [0, 1]]), WeightMatrix([[2, 3], [1, 1], [0, 5]])],
    ids=["identity", "mixed", "tall"],
)
@seed(20261018)
@settings(max_examples=40)
@given(ny=st.sampled_from([2, 3]), positive_only=st.booleans(), data=st.data())
def test_walked_candidates_and_counts_match_brute_force(W, ny, positive_only, data):
    lam = data.draw(
        st.lists(st.sampled_from(range(ny)), min_size=1, unique=True).map(lambda l: tuple(sorted(l)))
    )
    gens = data.draw(_gens_through_a_point(W, ny, lam))
    floor = data.draw(_floors(ny, W.d))
    _check_against_brute(gens, W, lam, positive_only, floor)
    scan = candidate_etas(gens, W, lam, positive_only=positive_only, floor=floor)
    assert scan.underdetermined == _brute_underdetermined(gens, W, lam, positive_only, floor)


# Every pair of lower terms has distinct lam-degrees, so no pair of
# candidate_etas is degenerate: two restricted terms with equal lam-degrees
# differ in their x-exponents, and the lower one dominates the other.
@pytest.mark.parametrize(
    "W, ny",
    [(W1, 1), (W2, 2), (WeightMatrix([[2, 3], [1, 1], [0, 5]]), 2)],
    ids=["plane", "identity", "tall"],
)
@seed(20261018)
@given(positive_only=st.booleans(), data=st.data())
def test_lower_terms_have_distinct_lam_degrees(W, ny, positive_only, data):
    (g,) = data.draw(_gens(W.n, ny, 1, 6))
    lam = data.draw(st.sampled_from([(0,), (1,), (0, 1)][: 1 if ny == 1 else 3]))
    floor = data.draw(_floors(ny, W.d))
    (stair,) = tropical.staircases([g], W, positive_only, floor)
    degs = [d for _, _, d in tropical.restrict(stair, lam)]
    assert len(set(degs)) == len(degs)


def _branch_floors(ny, d):
    """No floor, or one per coordinate that is infinite (retired) on some."""
    val = st.tuples(*[st.fractions(-2, 3, max_denominator=3)] * d)
    floors = st.tuples(*[st.one_of(st.none(), val)] * ny)
    return st.one_of(st.none(), floors.filter(lambda f: any(e is not None for e in f)))


# One staircase per branch, restricted to each lam, is the staircase of that
# lam on its own, in the three modes: a closed floor, the open zero floor of
# positive_only, and no floor.
@pytest.mark.parametrize(
    "W, ny",
    [(W1, 1), (W2, 2), (W2, 3), (WeightMatrix([[2, 3], [1, 1], [0, 5]]), 3)],
    ids=["plane", "identity-2", "identity-3", "tall-3"],
)
@seed(20261019)
@settings(max_examples=60)
@given(positive_only=st.booleans(), data=st.data())
def test_branch_staircase_restricts_to_each_lam(W, ny, positive_only, data):
    gens = data.draw(_gens(W.n, ny, 3, 6))
    floor = data.draw(_branch_floors(ny, W.d))
    stairs = tropical.staircases(gens, W, positive_only, floor)
    assert len(stairs) == len(gens)
    if floor is not None:
        low, closed = floor, True
    elif positive_only:
        low, closed = ((F(0),) * W.d,) * ny, False
    else:
        low, closed = None, False
    cols = [i for i in range(ny) if low is None or low[i] is not None]
    for size in range(1, len(cols) + 1):
        for lam in combinations(cols, size):
            lam_low = None if low is None else tuple(low[i] for i in lam)
            for g, stair in zip(gens, stairs):
                restricted = [t for t in g.terms if all(t.ydeg[i] == 0 for i in range(ny) if i not in lam)]
                want = lower_terms(restricted, W, lam, lam_low, closed)
                assert tropical.restrict(stair, lam) == want


def _spurious_retire_with_lex_basis():
    """spurious_retire and its generators plus their reduced lex basis (y1 > y2 > y3 > x1)."""
    spec = parse_problem((PROBLEMS / "spurious_retire.txt").read_text())
    dicts = [{t.ydeg + t.xexp: t.coeff for t in g.terms} for g in spec.gens]
    basis = [
        LPoly.from_terms(1, 3, [(c, key[3:], key[:3]) for key, c in p.items()])
        for p in buchberger(dicts, [SOLVER_BUDGET])
    ]
    assert len(basis) == 10
    return spec, spec.gens + tuple(basis)


def _count_rows(monkeypatch):
    rows = []

    def counting(form, row, n):
        rows.append(row)
        return add_row(form, row, n)

    monkeypatch.setattr(tropical, "add_row", counting)
    return rows


# The basis has 10 elements with 15, 6, 15, 6, 10, 10, 3, 6, 6 and 3 pairs
# at the first step, about 2.6e8 full pair choices with the three
# generators; the walk adds one tie row per pair tried and stops at the
# first point, so the work is bounded by the branching of the first few
# independent generators.
def test_tie_rows_do_not_multiply_across_generators(monkeypatch):
    spec, gens = _spurious_retire_with_lex_basis()
    rows = _count_rows(monkeypatch)
    scan = candidate_etas(gens, spec.weights, (0, 1, 2))
    assert scan.candidates
    assert len(rows) < 1000


# A pair whose tie row is implied leaves the echelon form unchanged; the
# points and counts below a (generator index, form) state do not depend on
# the pairs that reached it, so the walk visits each state once.  Walking
# every path instead made 1,836,890 add_row calls here.
def test_each_walk_state_is_visited_once(monkeypatch):
    spec, gens = _spurious_retire_with_lex_basis()
    rows = _count_rows(monkeypatch)
    result = expand(gens, spec.weights, replace(spec.options, max_terms=2))
    assert len(result.solutions) == 2
    assert len(rows) < 20000
