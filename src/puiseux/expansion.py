"""The branch-expansion driver.

A branch is its recentered generators plus its trace, the StepData triples
(weights, exponent rows, coefficients) of the steps taken so far.  The
monomials a step defines are the next terms of the series, so everything
else is read off the trace: the step count, the cumulative ramification,
the retired coordinates, the scaled weight floor that every later step must
exceed, and the series itself, which is built once, when a branch is
emitted.

Expanding a branch means enumerating candidate weights, solving each
candidate's initial coefficient system on the torus, and recentering once
per solution.  A smooth plane branch skips all three past its first
step: with one y, one generator and a floor, when the lowest terms of its
generator show one edge of height one above the floor, ``forced_step``
reads the step off that edge's two end terms.  ``expand`` tries it on
every branch that a walk step makes, and once a step is forced every
later step is forced too (the persistence lemma of ``forced_step``), so
such a branch runs to its end in one loop, a forced chain
(``forced_chain``).  The chain holds its generator as y-degree groups of
``W``-values, ``{k: {W.a: coefficient}}``, each term valued once; a step
moves every key by a multiple of its value and multiplies every
coefficient by an integer, so no exponent is rebuilt and no term valued
again, and each next step is read off the lowest keys with the test of
``forced_step``.  Recentering means: ramify so
the new exponent rows become integral, then substitute once, shifting each
active y by its new monomial and setting each coordinate whose weight went
infinite to zero.  ``expand`` first replaces each generator by its primitive
integer multiple (``lpoly.primitive``), and ``shift_y`` returns the
primitive integer multiple of each shifted generator, so a branch's
generators are primitive integer polynomials, each a positive constant
times the exact recentered generator.  Nothing read off them depends on
that constant: supports and staircases, weighted orders, and the initial
systems, which the solver brings to one normal form.  After recentering, the y-free part of each
generator is (that constant times) the original generator evaluated at the
accumulated truncation, in the ramified frame.  So ``expand`` (and with it
``puiseux run``) never substitutes the series back.  A branch terminates
when every y-free part is zero, that is when no generator keeps a y-free
term (the accumulated sum is then an exact solution), or when the step
budget runs out (the truncation is emitted with its residual order as a
certificate).  Exactness is read off the supports of every branch, and
off group 0 of a chain; the residual order is read off the recentered
generators (``residual_order``), or off the lowest key of a chain's group
0, only for a truncation that is emitted.  ``verify_residual``
substitutes a series into the original generators independently
(``substitute_y``, a positive multiple of each residual, whose order is the
residual's), in the frame ramified by the denominators of the series'
exponents; it hands the series over as the per-coordinate term lists of
``SeriesSolution.coords``, with its exponents scaled into that frame, and
``puiseux check`` runs it.
Branches with no continuation are reported, not silently dropped: over Q a
candidate can genuinely die, for instance when its coefficient system has
only irrational roots.  A dead branch carries the ``ScanInfo`` of its last
scan, and its step is the length of its trace.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations
from math import comb, gcd, lcm, prod
from operator import add, mul
from typing import Sequence

from . import lpoly
from .lpoly import (
    LPoly,
    lowest_terms,
    primitive,
    ramify,
    shift_y,
    substitute_y,
    term_values,
    weighted_order,
)
from .solver import SOLVER_BUDGET, torus_solutions
from .tropical import candidate_etas, staircases
from .values import WeightMatrix, add_row, canonical, sort_key


class BranchBudgetExceeded(RuntimeError):
    """The expansion took more steps than allowed: every recentering counts."""


@dataclass(frozen=True)
class StepData:
    """First-term data of one expansion step.

    ``eta`` holds the weighted order of each coordinate's next term (a value
    tuple, or None where the weight is infinite), ``gamma`` the exponent rows
    solving ``W . gamma[i] = eta[i]`` (None exactly where the weight is
    infinite, entries canonical), and ``c`` the coefficients (zero exactly
    on the retired coordinates).  The fields are kept as given: the scan
    makes canonical rows and the solver ``Fraction`` coefficients.  A step
    built by hand may use ``int``s, which compare, hash and print like the
    integral ``Fraction``s.
    """

    eta: tuple[tuple | None, ...]
    gamma: tuple[tuple | None, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.eta) == len(self.gamma) == len(self.c)):
            raise ValueError("step data fields must have equal length")
        for e, g, c in zip(self.eta, self.gamma, self.c):
            if e is None:
                if g is not None or c != 0:
                    raise ValueError("retired coordinates need an infinite row and zero coefficient")
            else:
                if g is None or c == 0:
                    raise ValueError("active coordinates need a finite row and nonzero coefficient")

    @property
    def active(self) -> tuple[int, ...]:
        """Indices whose weight is finite; the rest are retired coordinates."""
        return tuple(i for i, e in enumerate(self.eta) if e is not None)

    @cached_property
    def dgamma(self) -> int:
        """The ramification this step adds: the denominator lcm of its rows."""
        return denominator_lcm(self.gamma)

    def sort_key(self):
        return (tuple(map(sort_key, self.eta)), self.c, tuple(map(sort_key, self.gamma)))


def denominator_lcm(gamma: Sequence[tuple | None]) -> int:
    """Least k making every finite exponent row integral; 1 when none are finite."""
    dens = [e.denominator for row in gamma if row is not None for e in row]
    return lcm(*dens) if dens else 1


@dataclass(frozen=True)
class Branch:
    """A branch: its recentered generators and the steps that led to them.

    Everything else about the branch is read off the trace, here and only
    here.
    """

    gens: tuple[LPoly, ...]
    trace: tuple[StepData, ...] = ()

    @property
    def step(self) -> int:
        return len(self.trace)

    @property
    def cum_ram(self) -> int:
        """The ramification of the recentered frame: the product of the steps' dgamma."""
        return prod(t.dgamma for t in self.trace)

    @property
    def retired(self) -> frozenset[int]:
        """The coordinates set to zero: infinite in the last step's weights."""
        return frozenset(i for t in self.trace[-1:] for i, e in enumerate(t.eta) if e is None)

    @property
    def floor(self) -> tuple[tuple | None, ...] | None:
        """The last step's weights scaled by its dgamma; None before the first step."""
        if not self.trace:
            return None
        last = self.trace[-1]
        k = last.dgamma
        return tuple(None if e is None else tuple(canonical(q * k) for q in e) for e in last.eta)

    def coords(self, ny: int) -> tuple[tuple[tuple[Fraction, tuple], ...], ...]:
        """The accumulated series: per coordinate, its terms ``(c, exponent)``.

        A step's rows live in the frame ramified by the earlier steps, so its
        exponents are divided by their ramification, back to the original frame.
        """
        coords = [[] for _ in range(ny)]
        ram = 1
        for t in self.trace:
            for i in t.active:
                coords[i].append((t.c[i], tuple(canonical(Fraction(e, ram)) for e in t.gamma[i])))
            ram *= t.dgamma
        return tuple(map(tuple, coords))


@dataclass(frozen=True)
class ExpandOptions:
    """The budgets of one expansion; each must be at least 1.

    ``max_terms`` bounds the steps of a branch.  ``max_branches`` bounds the
    expansion steps of the whole run: every recentering counts, a step that
    continues a branch as well as one that starts a new branch, and the root
    branch counts as one.
    """

    max_terms: int = 6
    max_branches: int = 64
    positive_only: bool = True
    solver_budget: int = SOLVER_BUDGET

    def __post_init__(self):
        for name in ("max_terms", "max_branches", "solver_budget"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %r" % (name, getattr(self, name)))


@dataclass(frozen=True)
class SeriesSolution:
    """One emitted branch: per-coordinate term lists in the original frame.

    Exponents are canonical exact rationals in the lattice (1/ramification)Z^nx.
    ``residual_order``, read off the recentered generators, is None (infinity)
    exactly when the truncation solves the system; ``puiseux check``
    recomputes it independently by substitution (``verify_residual``).
    """

    coords: tuple[tuple[tuple[Fraction, tuple], ...], ...]
    ramification: int
    residual_order: tuple | None
    trace: tuple[StepData, ...]

    @property
    def exact(self) -> bool:
        return self.residual_order is None


@dataclass
class ScanInfo:
    """The diagnostics of one scan, as the candidate walk reports them."""

    candidates: int = 0
    rejected_increase: int = 0
    underdetermined: int = 0
    irrational: bool = False
    nonzero_dimensional: bool = False


@dataclass(frozen=True)
class DeadBranch:
    """A branch with no valid continuation: why, its scan's diagnostics, and its trace."""

    reason: str
    info: ScanInfo
    trace: tuple[StepData, ...]

    @property
    def step(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class ExpandResult:
    solutions: tuple[SeriesSolution, ...]
    dead_branches: tuple[DeadBranch, ...]
    irrational_roots_detected: bool
    underdetermined_seen: bool


def _edge(v0, c0, v1, c1, highs, F) -> tuple[tuple, Fraction] | None:
    """The value and coefficient of a forced step, read off its two end terms, or None.

    ``c0*x^a0`` of value ``v0`` is the lowest y-free term, ``c1*x^b1*y`` of
    value ``v1`` the lowest y-degree-one term, and ``highs`` holds ``(k,
    v)`` for the lowest value ``v`` of each y-degree ``k >= 2``.  This is the
    test of ``forced_step``, which reads the lowest terms of a generator,
    and of ``forced_chain``, which reads the lowest keys of its groups.
    """
    eta = tuple(canonical(p - q) for p, q in zip(v0, v1))
    if not eta > F or any(tuple(w + (k - 1) * f for w, f in zip(v, F)) < v1 for k, v in highs):
        return None
    c = Fraction(-c0, c1)
    if c0 * c.denominator + c1 * c.numerator != 0:  # c0 + c1*c, cleared
        raise AssertionError("forced step produced a non-root; this is a bug")
    return eta, c


def forced_step(branch: Branch, W: WeightMatrix) -> StepData | None:
    """The step forced on a smooth plane branch, or None when it is not forced.

    Only a branch with one y, one generator and a finite floor ``F`` can
    have one.  Let ``T0 = c0*x^a0`` be the generator's lowest y-free term by
    ``W``, of value ``v0 = W.a0``, and ``T1 = c1*x^b1*y`` its lowest
    y-degree-one term, of value ``v1 = W.b1``.  The step is forced when
    ``eta = v0 - v1 > F`` and the lowest term ``x^a y^k`` of each y-degree
    ``k >= 2`` has ``W.a + (k-1)F >= v1``.  At a weight ``e > F`` such a
    term lies strictly above ``T1``, since ``W.a + (k-1)e > v1``; the other
    y-free and y-degree-one terms lie above ``T0`` and ``T1``.  So ``T0``
    and ``T1`` tie at ``eta`` and nowhere else above the floor: ``eta`` is
    the candidate walk's only candidate there, with those two terms alone at
    its minimum.  The step is ``gamma = a0 - b1`` and ``c = -c0/c1``, the
    root of the initial form ``c0 + c1*c``, checked exactly.

    Persistence.  ``expand`` tries this on every branch that a walk step
    makes, and once a step is forced, the child's step is forced too or the
    child ends exact, so a chain never falls back to the walk.  Let
    ``W.gamma = eta`` and ``c0 + c1*c = 0``.  The shift ``y -> y + c
    x^gamma`` sends ``x^a y^m`` to terms ``x^(a + (m-j) gamma) y^j`` of value
    ``W.a + (m-j) eta``.  With the new floor ``eta`` (ramifying scales every
    value alike and changes nothing):

    1. The bound holds strictly: a new ``y^k`` term, ``k >= 2``, comes from
       some ``x^a y^m`` with ``m >= k`` and has ``W.a + (m-k) eta + (k-1)
       eta = W.a + (m-1) eta > W.a + (m-1) F >= v1``.
    2. ``T1`` stays the unique lowest ``y^1`` term, with its coefficient:
       the other ``y^1`` terms have values ``W.a > v1`` (``y^1``, ``W`` is
       injective) or ``W.a + (m-1) eta > v1`` (``m >= 2``, as in 1).
    3. The new y-free minimum lies above ``v1 + eta = v0``: ``T0`` and
       ``T1`` give ``(c0 + c1*c) x^a0 = 0``, and the rest give ``W.a >
       v0`` (``y^0``), ``W.a + eta > v1 + eta`` (``y^1``) or ``W.a + m eta
       > v1 + eta`` (``m >= 2``, by 1).

    So a child with a y-free term of value ``v0'`` has ``eta' = v0' - v1 >
    eta``, the new floor, and by 1 its step is forced again.  A child with
    no y-free term has ``T1`` as its unique lowest term at every weight
    from its floor up, by 1, so the walk finds no candidate above its floor,
    and it ends as an exact solution, not as a dead branch.
    """
    floor = branch.floor
    if floor is None or len(floor) != 1 or len(branch.gens) != 1:
        return None
    low = lowest_terms(branch.gens[0].terms, W)
    if (0,) not in low or (1,) not in low:
        return None
    (v0, _, t0), (v1, _, t1) = low.pop((0,)), low.pop((1,))
    highs = ((k, v) for (k,), (v, _, _) in low.items())
    edge = _edge(v0, t0.coeff, v1, t1.coeff, highs, floor[0])
    if edge is None:
        return None
    gamma = tuple(canonical(p - q) for p, q in zip(t0.xexp, t1.xexp))
    return StepData((edge[0],), (gamma,), (edge[1],))


def _exponent_map(W: WeightMatrix):
    """The map from a value ``W.gamma`` back to its exponent row ``gamma``.

    It reads the value on a fixed invertible block of the rows of ``W``,
    the first ones that are independent, and applies the block's inverse:
    ``[W_B | I]`` reduces to ``[I | W_B^-1]``.
    """
    n = W.n
    form, block = (), []
    for i, r in enumerate(W.rows):
        nxt = add_row(form, r, n)
        if len(nxt) > len(form):
            form = nxt
            block.append(i)
    form = ()
    for j, i in enumerate(block):
        form = add_row(form, W.rows[i] + tuple(int(k == j) for k in range(n)), n)
    inverse = [r[n:] for _, r in sorted(form)]

    def exponent(eta: tuple) -> tuple:
        v = [eta[i] for i in block]
        return tuple(canonical(sum(map(mul, r, v))) for r in inverse)

    return exponent


def _value_groups(g: LPoly, W: WeightMatrix) -> list[dict]:
    """A generator in one y as its y-degree groups: per degree ``k``, ``{W.xexp: coefficient}``."""
    groups: list[dict] = [{} for _ in range(max(t.ydeg[0] for t in g.terms) + 1)]
    for t, v in zip(g.terms, term_values(g.terms, W)):
        groups[t.ydeg[0]][v] = t.coeff
    return groups


def _shifted(groups: list[dict], eta: tuple, c: Fraction, k: int) -> list[dict]:
    """The groups after the step ``y -> y + c x^gamma`` with ``W.gamma = eta``.

    When the step ramifies, by ``k = dgamma``, every key and ``eta`` are
    first scaled by ``k``.  The term ``x^a y^m`` goes to ``C(m, j)
    c^(m-j) x^(a + (m-j) gamma) y^j``, so its key moves into group ``j`` by
    ``(m-j) eta``.  With ``c = p/q`` and ``D`` the top degree, which the
    shift keeps, the sum is taken times ``q^D``, so every factor is the
    integer ``C(m, j) p^(m-j) q^(D-m+j)``, and it is divided by its gcd: the
    groups of the primitive integer multiple that ``shift_y`` returns.
    """
    if k > 1:
        groups = [{tuple([q * k for q in v]): n for v, n in grp.items()} for grp in groups]
        eta = tuple(q * k for q in eta)
    p, q = c.numerator, c.denominator
    top = len(groups) - 1
    out = []
    for j in range(top + 1):
        f = q**top
        tgt = {v: n * f for v, n in groups[j].items()}
        get = tgt.get
        for m in range(j + 1, top + 1):
            f = comb(m, j) * p ** (m - j) * q ** (top - m + j)
            move = tuple(e * (m - j) for e in eta)
            for v, n in groups[m].items():
                key = tuple(map(add, v, move))
                tgt[key] = get(key, 0) + n * f
        out.append(tgt)
    d = gcd(*chain.from_iterable(map(dict.values, out)))
    return [{v: n // d for v, n in grp.items() if n} for grp in out]


def forced_chain(branch: Branch, step: StepData, W: WeightMatrix, exponent):
    """The forced chain that ``step``, forced on ``branch``, starts.

    Yields each step of the chain with the groups it leaves: the recentered
    generator as ``_value_groups``, each term valued once, here, and moved
    by ``_shifted`` at every later step, with no ``recenter``.  After each
    step the next one is read off the lowest keys of the groups with the
    test of ``forced_step`` (``_edge``), above the floor the step leaves;
    its exponent row comes from its value through ``exponent``
    (``_exponent_map``).  By the persistence lemma of ``forced_step`` the
    test holds until group 0 is empty, where the chain ends exact.
    """
    groups = _value_groups(branch.gens[0], W)
    while True:
        (eta,), (c,), k = step.eta, step.c, step.dgamma
        groups = _shifted(groups, eta, c, k)
        yield step, groups
        low0, low1 = groups[0], groups[1]
        if not low0:
            return
        v0, v1 = min(low0), min(low1)
        highs = ((m, min(grp)) for m, grp in enumerate(groups[2:], 2) if grp)
        edge = _edge(v0, low0[v0], v1, low1[v1], highs, tuple(canonical(q * k) for q in eta))
        if edge is None:
            raise AssertionError("a forced chain lost its forced step; this is a bug")
        step = StepData((edge[0],), (exponent(edge[0]),), (edge[1],))


def starting_data(branch: Branch, W: WeightMatrix, opts: ExpandOptions):
    """All valid next steps of a branch, with scan diagnostics.

    Enumerates candidate weights over every nonempty subset of the active
    coordinates.  The generators' staircases above the branch floor, the
    terms that can reach a minimum there, are computed once and passed to
    every subset's scan, which restricts them to its subset.  Candidates that tie at
    the floor without exceeding it are counted as ``rejected_increase``.
    Emits one StepData per rational torus solution of each candidate's
    initial coefficient system.  The all-retired continuation is not
    produced here; ``expand`` detects it as exact termination.
    """
    info = ScanInfo()
    ny = branch.gens[0].ny
    active = sorted(set(range(ny)) - branch.retired)
    floor = branch.floor
    positive_only = opts.positive_only and floor is None
    stairs = staircases(branch.gens, W, positive_only, floor)
    out: list[StepData] = []
    for size in range(1, len(active) + 1):
        for lam in combinations(active, size):
            scan = candidate_etas(
                branch.gens, W, lam, positive_only=positive_only, floor=floor, stairs=stairs
            )
            info.underdetermined += scan.underdetermined
            for cand in scan.candidates:
                info.candidates += 1
                if floor is not None and any(not cand.eta[i] > floor[i] for i in lam):
                    info.rejected_increase += 1
                    continue
                tsol = torus_solutions(cand.system, len(lam), max_pairs=opts.solver_budget)
                info.irrational |= tsol.irrational_roots_detected
                info.nonzero_dimensional |= tsol.nonzero_dimensional
                for cvec in tsol.solutions:
                    c = [Fraction(0)] * ny
                    for pos, i in enumerate(lam):
                        c[i] = cvec[pos]
                    out.append(StepData(cand.eta, cand.gamma, tuple(c)))
    out.sort(key=StepData.sort_key)
    return out, info


def recenter(branch: Branch, data: StepData, W: WeightMatrix) -> Branch:
    """Apply one step: ramify, then shift the active coordinates and retire the rest at once.

    The generators are ramified by the step's dgamma, so that its exponent
    rows become integral, and the step is appended to the trace.  Then one
    ``shift_y`` per generator sends each active ``y_i`` to ``y_i + c_i
    x^gamma_i`` and each coordinate of infinite weight to zero; a generator
    that this zeroes is dropped.  Each new generator is the primitive
    integer multiple that ``shift_y`` returns.  A step that revives a
    retired coordinate, or whose weights do not strictly exceed the branch
    floor, raises ``ValueError``; ``starting_data`` returns no such step.
    """
    if not branch.gens:
        raise ValueError("cannot recenter a branch without generators")
    act = data.active
    retired = branch.retired
    if any(i in retired for i in act):
        raise ValueError("step data revives a retired coordinate")
    floor = branch.floor
    if floor is not None:
        for i in act:
            if not data.eta[i] > floor[i]:
                raise ValueError(
                    "weights must strictly increase along a branch (coordinate %d)" % i
                )
    k = data.dgamma
    # gamma_i * k is integral by the choice of k: int exponents in the shift
    shifts = [
        None if row is None else (c, tuple(canonical(e * k) for e in row))
        for c, row in zip(data.c, data.gamma)
    ]
    gens = (shift_y(ramify(g, k), shifts) for g in branch.gens)
    return Branch(tuple(h for h in gens if not h.is_zero), branch.trace + (data,))


def _unramified(v: tuple, k: int) -> tuple:
    """A value in the frame ramified by ``k``, brought back to the original frame."""
    return tuple(canonical(Fraction(q, k)) for q in v)


def residual_order(branch: Branch, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual at the branch's truncation.

    The least order of the y-free parts of the recentered generators, scaled
    back by ``cum_ram``; None (infinity) exactly when they all vanish.  With
    every weight infinite, ``weighted_order`` drops the terms that contain a
    y before it values any, so it reads each generator's y-free part.
    """
    orders = [weighted_order(g, W, (None,) * g.ny) for g in branch.gens]
    best = min((o for o in orders if o is not None), default=None)
    return None if best is None else _unramified(best, branch.cum_ram)


def verify_residual(gens: Sequence[LPoly], coords, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual after substituting the series.

    ``coords`` holds one ``(c, exponent)`` term list per y, as in
    ``SeriesSolution.coords``.  Independent of any expansion.  Returns None
    (infinity) exactly when every residual is the zero polynomial, which
    certifies the (truncated) series as an exact solution.  The generators
    are ramified by ``r``, the lcm of the series' exponent denominators, and
    the series exponents scaled by ``r``, so that on integral input the
    substitution and the order run on integer exponents; the order is
    divided back by ``r``.  The ramification goes through ``lpoly`` itself,
    not this module's ``ramify``, which the benchmark times as recentering.
    """
    r = lcm(*{e.denominator for coord in coords for _, exp in coord for e in exp})
    if r > 1:
        coords = [
            [(c, tuple(e.numerator * (r // e.denominator) for e in exp)) for c, exp in coord]
            for coord in coords
        ]
    eta_inf = (None,) * gens[0].ny
    orders = [weighted_order(substitute_y(lpoly.ramify(g, r), coords), W, eta_inf) for g in gens]
    best = min((o for o in orders if o is not None), default=None)
    return best if best is None or r == 1 else _unramified(best, r)


def _coords_key(coords):
    return tuple(tuple((e, c) for c, e in coord) for coord in coords)


def expand(gens: Sequence[LPoly], W: WeightMatrix, opts: ExpandOptions = ExpandOptions()) -> ExpandResult:
    """Breadth-first expansion of every branch of the given system.

    Terminated branches become SeriesSolution entries (exact, or truncated
    with a residual certificate); branches with no valid continuation are
    reported as DeadBranch diagnostics.  No two solutions share a series:
    step ``k`` of a trace sets the ``k``-th term of every active coordinate,
    and a coordinate retired at step ``k`` keeps exactly ``k - 1`` terms, so
    two traces that first differ at step ``k`` give different series, and
    each branch is emitted once.  Output order is deterministic: solutions
    and dead branches are sorted, so the order in which branches are
    expanded does not show, and the total step count, which alone decides
    ``BranchBudgetExceeded``, does not depend on it either.

    Forced chains.  Every branch that a walk step makes is first handed to
    ``forced_step``.  When its step is forced and ``max_terms`` is not
    reached, ``forced_chain`` takes that step and every later one on the
    value groups of its generator, without a scan and without
    ``recenter``, and the chain emits its own solution: truncated at
    ``max_terms``, with the lowest key of group 0 scaled back by the
    cumulative ramification as its residual order, or exact when group 0 is
    empty.  By the persistence lemma of ``forced_step`` a chain stops only
    there, and its exact end is not scanned, since the walk finds nothing
    above its floor.  Each chain step counts against ``max_branches`` as a
    recentering does.  The map from values back to exponent rows is made
    once, for the first chain.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    nx, ny = gens[0].nx, gens[0].ny
    for g in gens:
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        if g.nx != nx or g.ny != ny:
            raise ValueError("generators live in different rings")
    if nx != W.n:
        raise ValueError("weight matrix size does not match the x variables")

    frontier = deque([Branch(tuple(map(primitive, gens)))])
    spawned = 1
    solutions: list[SeriesSolution] = []
    dead: list[DeadBranch] = []
    any_irrational = False
    any_underdetermined = False
    exponent = None  # the forced chains' value-to-exponent map, made for the first chain

    def count():
        nonlocal spawned
        spawned += 1
        if spawned > opts.max_branches:
            raise BranchBudgetExceeded(
                "more than %d expansion steps; raise max_branches" % opts.max_branches
            )

    def emit(branch: Branch, residual: tuple | None):
        solutions.append(SeriesSolution(branch.coords(ny), branch.cum_ram, residual, branch.trace))

    y_free = (0,) * ny
    while frontier:
        branch = frontier.popleft()
        exact = not any(t.ydeg == y_free for g in branch.gens for t in g.terms)
        if exact or branch.step >= opts.max_terms:
            emit(branch, None if exact else residual_order(branch, W))
        if branch.step >= opts.max_terms or not branch.gens:
            continue
        steps, info = starting_data(branch, W, opts)
        any_irrational |= info.irrational
        any_underdetermined |= info.underdetermined > 0
        if not steps and not exact:
            if info.candidates == 0:
                reason = "no_prevariety_candidate"
            elif info.candidates == info.rejected_increase:
                reason = "strict_increase_violated"
            else:
                reason = "no_rational_torus_solution"
            dead.append(DeadBranch(reason, info, branch.trace))
            continue
        for sd in steps:
            count()
            child = recenter(branch, sd, W)
            if child.step == opts.max_terms or (sd := forced_step(child, W)) is None:
                frontier.append(child)
                continue
            if exponent is None:
                exponent = _exponent_map(W)
            trace = list(child.trace)
            for sd, groups in forced_chain(child, sd, W, exponent):
                count()
                trace.append(sd)
                if len(trace) == opts.max_terms:
                    break
            tail = Branch((), tuple(trace))  # the chain's generator lives in its groups
            emit(tail, _unramified(min(groups[0]), tail.cum_ram) if groups[0] else None)

    final = tuple(sorted(solutions, key=lambda s: _coords_key(s.coords)))
    dead_sorted = tuple(
        sorted(dead, key=lambda d: (d.step, tuple(t.sort_key() for t in d.trace)))
    )
    return ExpandResult(
        solutions=final,
        dead_branches=dead_sorted,
        irrational_roots_detected=any_irrational,
        underdetermined_seen=any_underdetermined,
    )
