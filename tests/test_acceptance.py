"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is either trivially checkable, frozen from an
independent oracle in this directory, or a property asserted exactly.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

from puiseux import (
    ExpandOptions,
    LPoly,
    WeightMatrix,
    at_x_one,
    candidate_etas,
    expand,
    parse_problem,
    term_value,
    torus_solutions,
    verify_residual,
    weighted_order,
)
from puiseux.cli import main as cli_main
from oracle_grid import first_term_candidates, rational_grid
from oracle_newton import curve, edge_mus, expand_curve
from puiseux.values import sort_key
from tutils import (
    assert_trace_monotone,
    coupled_pair,
    identity,
    initial_form,
    is_prevariety_point,
    lp,
    naive_product,
    naive_sum,
    scan_etas,
    vadd,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
W1 = identity(1)
W2 = identity(2)

# the plane-curve corpus: (x-exponent, y-degree, coefficient) support triples
PLANE_CORPUS = {
    "nodal_cubic": [(0, 2, 1), (2, 0, -1), (3, 0, -1)],
    "cusp": [(0, 2, 1), (3, 0, -1)],
    "triple_cusp": [(0, 3, 1), (2, 0, -1)],
    "tangent_lines": [(0, 2, 1), (1, 1, -3), (2, 0, 2), (3, 0, 1)],
    "sqrt_factor": [(0, 2, 1), (2, 0, -1), (3, 0, -1)],
    "failed_first_tie": [(0, 2, -1), (1, 1, -1), (2, 1, 2), (3, 0, 2), (4, 1, -1)],
}


def _curve_poly(support):
    return LPoly.from_terms(1, 1, [(c, (F(a),), (i,)) for a, i, c in support])


def _curve_dict(support):
    return curve([(F(a), i, c) for a, i, c in support])


def test_criterion_1_plane_curve_oracle_equivalence():
    for name, support in PLANE_CORPUS.items():
        res = expand([_curve_poly(support)], W1, ExpandOptions(max_terms=4))
        got = sorted(
            (tuple((e[0], c) for c, e in s.coords[0]), s.exact) for s in res.solutions
        )
        want, oracle_irrational = expand_curve(_curve_dict(support), max_terms=4)
        assert got == want, "branch mismatch on %s" % name
        assert res.irrational_roots_detected == oracle_irrational, name
        for s in res.solutions:
            for _, e in s.coords[0]:
                assert (e[0] * s.ramification).denominator == 1, name
    print("PASS criterion 1: plane-curve expansion matches the polygon oracle branch for branch")


def test_criterion_2_ramified_exact_solution():
    f = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))
    res = expand([f], W2, ExpandOptions(max_terms=3))
    assert len(res.solutions) == 2
    coeffs = []
    for s in res.solutions:
        assert s.exact
        assert s.residual_order is None
        assert s.ramification == 2
        ((c, e),) = s.coords[0]
        assert e == (F(1, 2), F(1, 2))
        coeffs.append(c)
    assert sorted(coeffs) == [F(-1), F(1)]
    print("PASS criterion 2: y^2 - x1*x2 gives exactly the two exact ramified square roots")


def test_criterion_3_residual_growth_certificate():
    f = lp(1, 1, (1, (F(0),), (2,)), (-1, (F(2),), (0,)), (-1, (F(3),), (0,)))
    res = expand([f], W1, ExpandOptions(max_terms=4))
    sol = res.solutions[1]  # the + branch
    assert [c for c, _ in sol.coords[0]] == [F(1), F(1, 2), F(-1, 8), F(1, 16)]
    orders = [
        verify_residual([f], (sol.coords[0][:k],), W1) for k in range(1, 5)
    ]
    assert all(a < b for a, b in zip(orders, orders[1:]))
    assert orders[-1] > (5,)
    print("PASS criterion 3: truncation residual orders grow strictly and exceed exponent 5")


def _random_lpoly(rng, nx, ny, max_terms=5):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        c = F(rng.randint(-6, 6), rng.randint(1, 4))
        if c == 0:
            c = F(1)
        xe = tuple(F(rng.randint(-4, 8), rng.choice((1, 1, 2, 4))) for _ in range(nx))
        yd = tuple(rng.randint(0, 3) for _ in range(ny))
        items.append((c, xe, yd))
    return LPoly.from_terms(nx, ny, items)


def _random_eta(rng, ny, d):
    out = []
    for _ in range(ny):
        if rng.random() < 0.25:
            out.append(None)
        else:
            out.append(tuple(F(rng.randint(-4, 8), rng.choice((1, 2))) for _ in range(d)))
    return tuple(out)


def test_criterion_4_valuation_property_suite():
    rng = random.Random(20240831)
    failures = 0
    for _ in range(1000):
        f = _random_lpoly(rng, 2, 2)
        g = _random_lpoly(rng, 2, 2)
        eta = _random_eta(rng, 2, 2)
        of, og = weighted_order(f, W2, eta), weighted_order(g, W2, eta)
        fg = naive_product(f, g)
        if weighted_order(fg, W2, eta) != vadd(of, og):
            failures += 1
        if initial_form(fg, W2, eta) != naive_product(
            initial_form(f, W2, eta), initial_form(g, W2, eta)
        ):
            failures += 1
        if sort_key(weighted_order(naive_sum(f, g), W2, eta)) < min(sort_key(of), sort_key(og)):
            failures += 1
        h = initial_form(f, W2, eta)
        if initial_form(h, W2, eta) != h:
            failures += 1
        if any(term_value(W2, eta, t) != of for t in h.terms):
            failures += 1
    assert failures == 0
    print("PASS criterion 4: 1000 random polynomial pairs satisfy every valuation property")


def test_criterion_5_tropical_candidate_soundness():
    for name, support in PLANE_CORPUS.items():
        poly = _curve_poly(support)
        for positive_only in (True, False):
            scan = candidate_etas([poly], W1, (0,), positive_only=positive_only)
            for eta in scan_etas(scan):
                assert is_prevariety_point([poly], W1, eta), name
            got = sorted(eta[0][0] for eta in scan_etas(scan))
            assert got == edge_mus(_curve_dict(support), positive_only), name
    print("PASS criterion 5: candidate weights are sound and equal the polygon slope set")


# The coupled-pair fixture (`tutils.coupled_pair`): three generators in two
# y coordinates plus one forced-zero coordinate.  For variant A the
# plausible-looking first-term guesses below are inconsistent: at those
# weights the initial systems have no torus solution at all, so no
# coefficient vector can start a branch there.  Variant B flips one sign and
# expands; the brute-force oracle pins its unique first-term coefficients.
WC = WeightMatrix([[1, 1], [0, 1]])


def test_criterion_6_inconsistent_first_term_data_is_rejected():
    variant_a = coupled_pair(+1)
    eta_a = ((1, 0), (1, 0), None)
    eta_b = ((0, 0), (0, 0), None)
    guesses = {eta_a: (F(1), F(1)), eta_b: (F(1, 3), F(1, 5))}
    for eta, c in guesses.items():
        system = [
            at_x_one(h)
            for h in (initial_form(g, WC, eta) for g in variant_a)
            if not h.is_zero
        ]
        out = torus_solutions(system, (0, 1))
        assert out.solutions == (), "tested weight unexpectedly starts a branch"
        # and the guessed coefficients do not annihilate the initial system
        values = []
        for p in system:
            total = F(0)
            for t in p.terms:
                total += t.coeff * c[0] ** t.ydeg[0] * c[1] ** t.ydeg[1]
            values.append(total)
        assert any(v != 0 for v in values)
    res = expand(variant_a, WC, ExpandOptions(max_terms=3))
    assert res.solutions == ()
    assert res.dead_branches and res.dead_branches[0].reason == "no_rational_torus_solution"
    assert res.underdetermined_seen

    corrected = coupled_pair(-1)
    gamma = ((F(1), F(0)), (F(1), F(0)), None)
    brute = first_term_candidates(
        corrected, WC.rows, gamma, rational_grid(max_num=3, max_den=2)
    )
    assert brute == [(F(-1, 2), F(1, 2), F(0))]
    res2 = expand(corrected, WC, ExpandOptions(max_terms=3))
    assert len(res2.solutions) >= 1
    sol = res2.solutions[0]
    assert sol.coords[0][0] == (F(-1, 2), (F(1), F(0)))
    assert sol.coords[1][0] == (F(1, 2), (F(1), F(0)))
    assert_trace_monotone(sol.trace)
    print(
        "PASS criterion 6: inconsistent first-term data is rejected with diagnostics; "
        "the sign variant expands"
    )


def test_criterion_7_monotonicity_across_corpus():
    checked = 0
    for path in sorted(PROBLEMS.glob("*.txt")):
        spec = parse_problem(path.read_text())
        try:
            res = expand(spec.gens, spec.weights, spec.options)
        except Exception as e:  # any corpus failure is build-breaking
            raise AssertionError("%s failed to expand: %s" % (path.name, e))
        for s in res.solutions:
            assert_trace_monotone(s.trace)
            checked += 1
        for d in res.dead_branches:
            assert_trace_monotone(d.trace)
    assert checked > 0
    print("PASS criterion 7: every emitted branch trace strictly increases after scaling")


def test_criterion_8_byte_identical_reruns(capsys):
    for path in sorted(PROBLEMS.glob("*.txt")):
        for fmt in ("--json", "--plain"):
            outs = []
            for _ in range(2):
                rc = cli_main(["run", str(path), fmt])
                assert rc in (0, 2)
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], "%s output differs between runs" % path.name
            if fmt == "--json":
                json.loads(outs[0])  # well-formed document
    with capsys.disabled():
        print("\nPASS criterion 8: corpus reruns are byte-identical in both formats")
