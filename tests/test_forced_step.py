"""The forced step of a smooth plane branch against the candidate walk.

``expansion.forced_step`` reads the step of a branch with one y, one
generator and a floor off the lowest terms of its generator, when they
show that the walk's only candidate above the floor is the edge of its
y-free and its y-degree-one term.  ``expand`` tries it on every branch
that a walk step makes, and from a forced step on, ``forced_chain`` takes
every later step on value groups, without a scan and without
``recenter``.  The tests here run ``expand`` once as it is and once with
the reader switched off, and ask for equal results or the same budget
error.  They replay every trace that ``expand`` emits through
``recenter``, and ask that on every branch of it the reader fires exactly
when the walk finds that one edge, and then gives the walk's one step,
which is the step the trace took; they check the persistence lemma of
``forced_step`` on every replayed branch that a forced step makes; they
ask that no branch that is scanned has a forced step; and they run every
forced chain beside ``recenter``, and ask that at each of its steps the
groups are the values and, up to one positive factor, the coefficients
of the recentered generator.
"""

from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction as F
from math import gcd
from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, seed

from puiseux import (
    Branch,
    BranchBudgetExceeded,
    BudgetExceeded,
    ExpandOptions,
    StepData,
    WeightMatrix,
    candidate_etas,
    expand,
    parse_problem,
    recenter,
    starting_data,
)
from puiseux import expansion
from puiseux.lpoly import primitive
from tutils import from_terms, identity, lp, naive_product

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# Weight matrices per number of x variables: the identity, a negative weight,
# a 2-row W on one x, and mixing and fractional ones on two.
WS = {
    1: [identity(1), WeightMatrix([[-1]]), WeightMatrix([[1], [F(1, 2)]])],
    2: [
        identity(2),
        WeightMatrix([[1, 1], [0, 1]]),
        WeightMatrix([[F(1, 2), 1], [1, -1]]),
        WeightMatrix([[1, 2], [1, 0]]),
    ],
}


def _walk_only(branch, W):
    return None


def _outcome(gens, W, opts):
    """The result of ``expand``, or the type and message of the budget error it raised."""
    try:
        return expand(gens, W, opts)
    except (BranchBudgetExceeded, BudgetExceeded) as e:
        return type(e), str(e)


def _expands_agree(gens, W, opts):
    """``expand`` as it is and with the forced step switched off give the same outcome."""
    got = _outcome(gens, W, opts)
    with patch.object(expansion, "forced_step", _walk_only):
        walked = _outcome(gens, W, opts)
    assert got == walked, (gens, W, opts)
    return got


def _is_plane(branch):
    """One y, one generator and a finite floor: the branches a step can be forced on."""
    floor = branch.floor
    return len(branch.gens) == 1 and branch.gens[0].ny == 1 and floor is not None


def _forced_is_the_walks_step(branch, W):
    """The reader fires exactly when the walk finds one edge above the floor, and takes its step."""
    forced = expansion.forced_step(branch, W)
    if not _is_plane(branch):
        assert forced is None, branch
        return False
    floor = branch.floor
    # The walk finds exactly one candidate above the floor, at which only a
    # y-free and a y-degree-one term are lowest: the step is forced.
    scan = candidate_etas(branch.gens, W, (0,), positive_only=False, floor=floor)
    above = [c for c in scan.candidates if c.eta[0] > floor[0]]
    edge = len(above) == 1 and set(above[0].system[0]) == {(0,), (1,)}
    assert (forced is not None) == edge, branch
    if edge:
        assert starting_data(branch, W, ExpandOptions())[0] == [forced], branch
    return edge


def _groups_match(groups, g, W):
    """The groups of a forced chain hold the values of ``g``'s terms, by
    y-degree, with ``g``'s coefficients times one positive factor, and
    their coefficients are coprime integers, as ``shift_y`` keeps them."""
    coeffs = [n for grp in groups for n in grp.values()]
    assert all(type(n) is int for n in coeffs) and gcd(*coeffs) == 1, groups
    want: dict = {}
    for t in g.terms:
        want.setdefault(t.ydeg[0], {})[_value(W, t.xexp)] = t.coeff
    got = {k: grp for k, grp in enumerate(groups) if grp}
    assert got.keys() == want.keys(), (groups, g)
    assert all(got[k].keys() == want[k].keys() for k in want), (groups, g)
    factors = {F(got[k][v], want[k][v]) for k in want for v in want[k]}
    assert len(factors) == 1 and factors.pop() > 0, (groups, g)


_real_chain = expansion.forced_chain


def _shadowed_chain(branch, step, W, exponent):
    """``forced_chain`` run beside ``recenter``: each step it yields is the
    forced step of the recentered branch, and its groups match that branch's
    generator."""
    shadow = branch
    for sd, groups in _real_chain(branch, step, W, exponent):
        assert sd == expansion.forced_step(shadow, W), shadow
        shadow = recenter(shadow, sd, W)
        _groups_match(groups, shadow.gens[0], W)
        yield sd, groups


def _replayed(gens, result, W):
    """Every branch of the traces a result emits, solutions and dead
    branches, made by ``recenter`` from the root that ``expand`` starts
    from, once per prefix: ``(branch, step, child)``."""
    made = {(): Branch(tuple(map(primitive, gens)))}
    traces = [s.trace for s in result.solutions] + [d.trace for d in result.dead_branches]
    for trace in traces:
        for n, sd in enumerate(trace, 1):
            if trace[:n] not in made:
                branch = made[trace[: n - 1]]
                made[trace[:n]] = child = recenter(branch, sd, W)
                yield branch, sd, child


def _expand_checked(gens, W, opts) -> tuple[int, int]:
    """Expand, checking every forced chain, every branch scanned, and every
    branch of the traces it emits, replayed through ``recenter``.

    Returns the number of branches replayed and of the forced ones among
    them.  A run that ends in a budget error emits no trace, so only its
    chains and scans are checked.
    """
    made = forced = 0

    def checked_scan(branch, W, opts):
        assert expansion.forced_step(branch, W) is None, branch
        return starting_data(branch, W, opts)

    with (
        patch.object(expansion, "forced_chain", _shadowed_chain),
        patch.object(expansion, "starting_data", checked_scan),
    ):
        got = _outcome(gens, W, opts)
    if not isinstance(got, tuple):
        for branch, sd, child in _replayed(gens, got, W):
            made += 1
            forced += _forced_is_the_walks_step(child, W)
            step = expansion.forced_step(branch, W)
            if step is not None:
                assert sd == step, branch
                _check_persistence(branch, W, child)
    return made, forced


def _corpus_runs():
    """Every corpus problem at ``max_terms`` 1-10, with ``positive_only`` on and off."""
    for path in sorted(PROBLEMS.glob("*.txt")):
        spec = parse_problem(path.read_text())
        for max_terms in range(1, 11):
            for positive_only in (True, False):
                opts = replace(spec.options, max_terms=max_terms, positive_only=positive_only)
                yield spec.gens, spec.weights, opts


def test_forced_step_is_the_walks_step_on_the_corpus():
    made = forced = 0
    for gens, W, opts in _corpus_runs():
        m, f = _expand_checked(gens, W, opts)
        made += m
        forced += f
    assert forced > 0 and made > forced


def test_forced_chains_give_the_walks_result_on_the_corpus():
    for gens, W, opts in _corpus_runs():
        _expands_agree(gens, W, opts)


def test_a_forced_chain_that_ends_exact():
    # y1 = x1 + x1^2 and y1 = -x1 - x1^2: the root's walk takes x1, the chain
    # takes x1^2 and leaves no y-free term, and the scan of that end finds
    # no candidate above its floor, so the branch is exact, not dead
    spec = parse_problem("vars x1 y1\nweight 1\ngen y1^2 - (x1 + x1^2)^2\n")
    got = _expands_agree(spec.gens, spec.weights, spec.options)
    assert [s.exact for s in got.solutions] == [True, True]
    assert got.dead_branches == ()
    assert _expand_checked(spec.gens, spec.weights, spec.options) == (4, 2)


@pytest.mark.parametrize("max_branches", [3, 10, 34, 35])
def test_forced_chains_count_every_step_against_the_budget(max_branches):
    # nodal_cubic at 17 terms takes 35 steps: the root and 17 on each branch
    spec = parse_problem((PROBLEMS / "nodal_cubic.txt").read_text())
    opts = replace(spec.options, max_terms=17, max_branches=max_branches)
    got = _expands_agree(spec.gens, spec.weights, opts)
    if max_branches < 35:
        message = "more than %d expansion steps; raise max_branches" % max_branches
        assert got == (BranchBudgetExceeded, message)
    else:
        assert len(got.solutions) == 2


@st.composite
def _plane_curves(draw):
    nx = draw(st.integers(1, 2))
    exps = st.fractions(-2, 4, max_denominator=3)
    term = st.tuples(
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.tuples(*[exps] * nx),
        st.tuples(st.integers(0, draw(st.integers(1, 3)))),  # linear in y, too
    )
    g = from_terms(nx, 1, draw(st.lists(term, min_size=2, max_size=6)))
    assume(any(t.ydeg[0] for t in g.terms))
    opts = ExpandOptions(max_terms=4, positive_only=draw(st.booleans()))
    return g, draw(st.sampled_from(WS[nx])), opts


@seed(20261020)
@given(curve=_plane_curves())
def test_forced_step_is_the_walks_step_on_random_plane_curves(curve):
    g, W, opts = curve
    _expand_checked([g], W, opts)


@seed(20261020)
@given(curve=_plane_curves())
def test_forced_chains_give_the_walks_result_on_random_plane_curves(curve):
    g, W, opts = curve
    _expands_agree([g], W, opts)


@st.composite
def _floored_branches(draw):
    """One generator in one y above a floor ``F = W.gamma0``, built around a
    y-degree-one term ``x^b1 y`` so that the cases of ``forced_step`` are
    frequent: y^k terms ``x^(b1 - (k-1) gamma0) y^k``, which meet its bound
    with equality; a y-free term ``x^(b1 + gamma0 + 2e)``, whose edge with
    ``x^b1 y`` lies at the floor when ``e = 0``; and a second y-degree-one
    term ``x^(b1 + e) y``, whose edge with the y-free term lies above the
    floor when ``W.e > 0``, and which may come first in term order without
    being the lowest by ``W``."""
    nx = draw(st.integers(1, 2))
    W = draw(st.sampled_from(WS[nx]))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    offset = st.one_of(st.none(), st.tuples(*[st.integers(-2, 2)] * nx))
    gamma0 = draw(st.tuples(*[st.integers(-2, 3)] * nx))
    exps = st.tuples(*[st.fractions(-3, 4, max_denominator=2)] * nx)
    b1 = draw(exps)
    terms = [(draw(coeff), b1, (1,))]
    ydeg = st.tuples(st.integers(0, draw(st.integers(1, 3))))
    terms += draw(st.lists(st.tuples(coeff, exps, ydeg), max_size=4))
    for k in draw(st.lists(st.integers(2, 3), max_size=2)):
        terms.append((draw(coeff), tuple(b - (k - 1) * g for b, g in zip(b1, gamma0)), (k,)))
    e = draw(offset)
    if e is not None:
        terms.append((draw(coeff), tuple(b + g + 2 * f for b, g, f in zip(b1, gamma0, e)), (0,)))
        if draw(st.booleans()):
            terms.append((draw(coeff), tuple(b + f for b, f in zip(b1, e)), (1,)))
    g = from_terms(nx, 1, terms)
    floor = tuple(sum(r * a for r, a in zip(row, gamma0)) for row in W.rows)
    step = StepData((floor,), (gamma0,), (F(1),))
    return Branch((g,), (step,)), W


@seed(20261020)
@given(branch=_floored_branches())
def test_forced_step_is_the_walks_step_above_any_floor(branch):
    b, W = branch
    _forced_is_the_walks_step(b, W)


def test_a_tie_at_the_floor_is_counted_as_the_walk_counts_it():
    # y - x^2 + x^(-1) y^2 above the floor 1: the edge (1, y) is at eta = 2,
    # and y^2 ties y at the floor itself, a candidate the strict increase rejects
    g = lp(1, 1, (1, (0,), (1,)), (-1, (2,), (0,)), (1, (-1,), (2,)))
    branch = Branch((g,), (StepData(((1,),), ((1,),), (F(1),)),))
    assert _forced_is_the_walks_step(branch, identity(1))
    steps, info = starting_data(branch, identity(1), ExpandOptions())
    assert steps == [StepData(((2,),), ((2,),), (F(1),))]
    assert (info.candidates, info.rejected_increase) == (2, 1)


def _lowest(g, W, k):
    """The lowest term of ``g`` of y-degree ``k`` by ``W``, with its value, or None."""
    terms = [(_value(W, t.xexp), t) for t in g.terms if t.ydeg == (k,)]
    return min(terms, default=None)


def _value(W, xexp):
    return tuple(sum(w * a for w, a in zip(row, xexp)) for row in W.rows)


def _check_persistence(branch, W, child):
    """The lemma of ``forced_step`` for the child that the forced step of ``branch`` makes.

    ``T1`` stays the lowest y-degree-one term (its exponent scaled by the
    step's ramification), the y-free minimum rises above ``v1 + eta``, and
    the bound holds strictly at the new floor ``eta``; so the child is exact
    with no candidate above its floor, or its step is forced again, the
    walk's one candidate with no tie at the floor.
    """
    g, h = branch.gens[0], child.gens[0]
    k = child.trace[-1].dgamma
    (_, t1), (w1, u1) = _lowest(g, W, 1), _lowest(h, W, 1)
    assert u1.xexp == tuple(e * k for e in t1.xexp), child
    eta = child.floor[0]
    assert all(
        tuple(a + (t.ydeg[0] - 1) * e for a, e in zip(_value(W, t.xexp), eta)) > w1
        for t in h.terms
        if t.ydeg[0] >= 2
    ), child
    low0 = _lowest(h, W, 0)
    if low0 is None:
        assert starting_data(child, W, ExpandOptions())[0] == []
        assert expansion.forced_step(child, W) is None
        return
    assert low0[0] > tuple(p + e for p, e in zip(w1, eta)), child
    forced = expansion.forced_step(child, W)
    steps, info = starting_data(child, W, ExpandOptions())
    assert forced is not None and steps == [forced], child
    assert (info.candidates, info.rejected_increase) == (1, 0), child


def test_a_forced_step_is_followed_by_forced_steps_on_the_corpus():
    checked = 0
    for gens, W, opts in _corpus_runs():
        got = _outcome(gens, W, opts)
        if isinstance(got, tuple):
            continue
        for branch, _, child in _replayed(gens, got, W):
            if expansion.forced_step(branch, W) is not None:
                checked += 1
                _check_persistence(branch, W, child)
    assert checked > 0


@seed(20261020)
@given(branch=_floored_branches())
def test_a_forced_step_is_followed_by_forced_steps_above_any_floor(branch):
    b, W = branch
    step = expansion.forced_step(b, W)
    if step is not None:
        _check_persistence(b, W, recenter(b, step, W))


def _calls(name: str, max_terms: int = 17) -> dict:
    """The layer calls of one ``expand`` of a corpus problem."""
    spec = parse_problem((PROBLEMS / name).read_text())
    names = ("starting_data", "candidate_etas", "torus_solutions", "recenter", "forced_chain")
    counts = dict.fromkeys(names, 0)
    with ExitStack() as stack:
        for attr in counts:
            def counted(*args, _fn=getattr(expansion, attr), _attr=attr, **kwargs):
                counts[_attr] += 1
                return _fn(*args, **kwargs)

            stack.enter_context(patch.object(expansion, attr, counted))
        expand(spec.gens, spec.weights, replace(spec.options, max_terms=max_terms))
    return counts


def test_smooth_plane_branches_scan_only_at_the_root():
    # two smooth branches of 17 terms: one scan, the root's, the first step
    # without a floor, and two recenterings, one per branch; each branch
    # takes its other 16 steps as a forced chain and ends truncated at
    # max_terms.  Replayed through recenter, the two traces make 34
    # branches, each with a forced step.
    for name in ("nodal_cubic.txt", "sqrt_factor.txt"):
        assert _calls(name) == {
            "starting_data": 1, "candidate_etas": 1, "torus_solutions": 1, "recenter": 2,
            "forced_chain": 2,
        }
        spec = parse_problem((PROBLEMS / name).read_text())
        opts = replace(spec.options, max_terms=17)
        assert _expand_checked(spec.gens, spec.weights, opts) == (34, 34)


def test_chain_groups_are_the_recentered_values_on_the_corpus():
    steps = 0

    def counted(branch, step, W, exponent):
        nonlocal steps
        for out in _shadowed_chain(branch, step, W, exponent):
            steps += 1
            yield out

    with patch.object(expansion, "forced_chain", counted):
        for gens, W, opts in _corpus_runs():
            _outcome(gens, W, opts)
    assert steps > 0


def test_a_ramified_chain_in_a_fractional_frame():
    # (y - x^(1/2) - x^(4/3) - 2*x^(7/5)) * (y + x^(1/3) - x) under a 2-row
    # fractional W: the chain of the first factor ramifies at its steps
    # x^(4/3) and x^(7/5), in the frame of the input's own fractional
    # exponents, and ends exact at 3 terms; at 2 terms it ends truncated,
    # its residual read off the ramified groups
    s = from_terms(1, 1, [(1, (0,), (1,)), (-1, (F(1, 2),), (0,)), (-1, (F(4, 3),), (0,)),
                          (-2, (F(7, 5),), (0,))])
    t = from_terms(1, 1, [(1, (0,), (1,)), (1, (F(1, 3),), (0,)), (-1, (1,), (0,))])
    gens = [naive_product(s, t)]
    W = WeightMatrix([[1], [F(1, 2)]])
    for max_terms, ramified, exact in ((5, 2, [True, True]), (2, 1, [False, True])):
        opts = ExpandOptions(max_terms=max_terms)
        got = _expands_agree(gens, W, opts)
        steps = [sd for sol in got.solutions for sd in sol.trace[1:] if sd.dgamma > 1]
        assert len(steps) == ramified
        assert sorted(sol.exact for sol in got.solutions) == exact
        assert _expand_checked(gens, W, opts)[1] > 0


@seed(20261020)
@given(branch=_floored_branches())
def test_chain_groups_are_the_recentered_values_above_any_floor(branch):
    b, W = branch
    step = expansion.forced_step(b, W)
    if step is not None:
        chain = _shadowed_chain(b, step, W, expansion._exponent_map(W))
        for _ in zip(range(4), chain):
            pass


def test_a_system_with_one_y_left_active_takes_the_walk():
    # -3 - 3*y1 - 3*x2 and -6*y2: y2 retires at the first step, and the branch
    # left has one active y and one generator, but its steps keep two
    # coordinates, so only the walk can make them
    gens = [lp(2, 2, (-3, (0, 0), (0, 0)), (-3, (0, 0), (1, 0)), (-3, (0, 1), (0, 0))),
            lp(2, 2, (-6, (0, 0), (0, 1)))]
    made, forced = _expand_checked(gens, identity(2), ExpandOptions(max_terms=3, positive_only=False))
    assert made > 1 and forced == 0
