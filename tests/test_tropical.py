from fractions import Fraction as F

import pytest

from puiseux import (
    INF,
    Branch,
    ExpandOptions,
    LPoly,
    Val,
    WeightMatrix,
    candidate_etas,
    is_prevariety_point,
    recenter,
    starting_data,
)
from oracle_grid import first_term_candidates, rational_grid
from oracle_newton import curve, edge_mus
from tutils import coupled_pair, lp

W1 = WeightMatrix.identity(1)
W2 = WeightMatrix.identity(2)

NODAL = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))


class TestCandidateEtas:
    def test_nodal_cubic_single_slope(self):
        scan = candidate_etas([NODAL], W1, (0,))
        assert scan.etas == ((Val((1,)),),)
        assert scan.underdetermined == 0

    def test_surface_tie(self):
        f = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))
        scan = candidate_etas([f], W2, (0,))
        assert scan.etas == ((Val((F(1, 2), F(1, 2))),),)

    def test_retiring_everything_needs_vanishing_generators(self):
        f = LPoly.y_var(1, 1, 0) - LPoly.x_var(1, 1, 0)
        scan = candidate_etas([f], W1, ())
        assert scan.etas == ()

    def test_all_generators_vanish_when_retired(self):
        f = lp(1, 2, (1, (F(0),), (1, 0)), (1, (F(1),), (1, 1)))
        scan = candidate_etas([f], W1, ())
        assert scan.etas == (((INF, INF)),)

    def test_validation_rejects_non_minimal_pairs(self):
        # the (y^2, x^3) tie gives eta = 3/2 but x^2 sits lower
        scan = candidate_etas([NODAL], W1, (0,), positive_only=False)
        assert (Val((F(3, 2),)),) not in scan.etas

    def test_positive_only_filter(self):
        f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(-2),), (0,)))  # y^2 - x^-2
        assert candidate_etas([f], W1, (0,)).etas == ()
        scan = candidate_etas([f], W1, (0,), positive_only=False)
        assert scan.etas == ((Val((-1,)),),)

    def test_underdetermined_tie_is_reported(self):
        f = LPoly.y_var(1, 2, 0) - LPoly.y_var(1, 2, 1)
        scan = candidate_etas([f], W1, (0, 1))
        assert scan.etas == ()
        assert scan.underdetermined == 1

    def test_initials_follow_generator_order(self):
        g2 = LPoly.y_var(1, 1, 0) - LPoly.x_var(1, 1, 0)
        scan = candidate_etas([NODAL, g2], W1, (0,))
        # the shared weight must make both initial forms non-monomial;
        # eta = 1 works for both generators here
        assert scan.etas == ((Val((1,)),),)
        (cand,) = scan.candidates
        assert len(cand.initials) == 2
        assert all(len(h.terms) >= 2 for h in cand.initials)

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            candidate_etas([LPoly.zero(1, 1)], W1, (0,))


class TestPrevarietyPoint:
    def test_accepts_tied_weight(self):
        assert is_prevariety_point([NODAL], W1, (Val((1,)),))

    def test_rejects_monomial_initial(self):
        assert not is_prevariety_point([NODAL], W1, (Val((F(1, 3),)),))

    def test_rejects_pure_x_generators(self):
        f = LPoly.x_var(2, 1, 0) - LPoly.x_var(2, 1, 1)
        for eta in [(Val((1, 1)),), (INF,)]:
            assert not is_prevariety_point([f], W2, eta)

    def test_absorbed_generator_imposes_nothing(self):
        f = LPoly.y_var(1, 1, 0)
        assert is_prevariety_point([f], W1, (INF,))


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
                for eta in candidate_etas(gens, W1, lam, positive_only=False).etas:
                    assert is_prevariety_point(gens, W1, eta)

    def test_candidates_rederive_themselves(self):
        for gens in self.CORPUS:
            ny = gens[0].ny
            lam = tuple(range(ny))
            scan = candidate_etas(gens, W1, lam, positive_only=False)
            for eta in scan.etas:
                again = candidate_etas(gens, W1, lam, positive_only=False)
                assert eta in again.etas


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
    got = sorted(eta[0].coords[0] for eta in scan.etas)
    assert got == oracle


SURFACE = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))
GRID = rational_grid(max_num=3, max_den=2)


def _root(gens):
    ny = gens[0].ny
    return Branch(tuple(gens), 0, 1, ((),) * ny, frozenset(), (), None)


# Value space and exponent space differ here: one W mixes the coordinates,
# the other has more rows than columns.
@pytest.mark.parametrize(
    "W", [WeightMatrix([[1, 1], [0, 1]]), WeightMatrix([[2, 3], [1, 1], [0, 5]])]
)
@pytest.mark.parametrize("gens", [[SURFACE], coupled_pair(-1)], ids=["surface", "coupled"])
def test_step_data_is_sound_under_general_weights(W, gens):
    opts = ExpandOptions()
    root = _root(gens)
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
                assert (g is None) if e.is_inf else W.value_of(g) == e
            assert is_prevariety_point(branch.gens, W, sd.eta)
            if all(sd.c[i] in GRID for i in sd.active):
                on_grid += 1
                brute = first_term_candidates(branch.gens, W.rows, sd.gamma, GRID)
                assert sd.c in brute
    assert on_grid
