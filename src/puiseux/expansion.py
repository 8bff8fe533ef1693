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
per solution.  A smooth plane branch skips the first two past its first
step: with one y, one generator and a floor, when the lowest terms of its
generator show one edge of height one above the floor, ``forced_step``
reads the step off that edge's two end terms.  ``expand`` tries it on
every branch it makes, so such a branch runs to its end in one loop, a
forced chain, each step checked by the same test.  Once a step is forced
every later step is forced too (the persistence lemma of ``forced_step``),
so a chain never falls back to the walk.  Recentering means: ramify so
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
certificate).  Exactness is read off the supports of every branch; the
residual order is read off the recentered generators (``residual_order``)
only for a truncation that is emitted.  ``verify_residual``
substitutes a series into the original generators independently
(``substitute_y``, a positive multiple of each residual, whose order is the
residual's); it hands the series over as the per-coordinate term lists of
``SeriesSolution.coords``, unchanged, and ``puiseux check`` runs it.
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
from itertools import combinations
from math import lcm, prod
from typing import Sequence

from .lpoly import (
    LPoly,
    lowest_terms,
    primitive,
    ramify,
    shift_y,
    substitute_y,
    weighted_order,
)
from .solver import SOLVER_BUDGET, torus_solutions
from .tropical import candidate_etas, staircases
from .values import WeightMatrix, canonical, sort_key


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

    Persistence.  ``expand`` tries this on every branch it makes, and once
    a step is forced, the child's step is forced too or the child ends
    exact, so a chain never falls back to the walk.  Let ``W.gamma = eta``
    and ``c0 + c1*c = 0``.  The shift ``y -> y + c x^gamma`` sends ``x^a
    y^m`` to terms ``x^(a + (m-j) gamma) y^j`` of value ``W.a + (m-j)
    eta``.  With the new floor ``eta`` (ramifying scales every value alike
    and changes nothing):

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
    low = lowest_terms(branch.gens[0], W)
    if (0,) not in low or (1,) not in low:
        return None
    (v0, _, t0), (v1, _, t1) = low.pop((0,)), low.pop((1,))
    F = floor[0]
    eta = tuple(canonical(p - q) for p, q in zip(v0, v1))
    if not eta > F or any(
        tuple(w + (k - 1) * f for w, f in zip(v, F)) < v1 for (k,), (v, _, _) in low.items()
    ):
        return None
    c = Fraction(-t0.coeff, t1.coeff)
    if t0.coeff * c.denominator + t1.coeff * c.numerator != 0:  # c0 + c1*c, cleared
        raise AssertionError("forced step produced a non-root; this is a bug")
    gamma = tuple(canonical(p - q) for p, q in zip(t0.xexp, t1.xexp))
    return StepData((eta,), (gamma,), (c,))


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


def residual_order(branch: Branch, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual at the branch's truncation.

    The least order of the y-free parts of the recentered generators, scaled
    back by ``cum_ram``; None (infinity) exactly when they all vanish.  With
    every weight infinite, ``weighted_order`` skips the y-degree vectors
    that contain a y, so it reads each generator's y-free part in the same
    pass.
    """
    orders = [weighted_order(g, W, (None,) * g.ny) for g in branch.gens]
    best = min((o for o in orders if o is not None), default=None)
    return None if best is None else tuple(canonical(Fraction(q, branch.cum_ram)) for q in best)


def verify_residual(gens: Sequence[LPoly], coords, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual after substituting the series.

    ``coords`` holds one ``(c, exponent)`` term list per y, as in
    ``SeriesSolution.coords``.  Independent of any expansion.  Returns None
    (infinity) exactly when every residual is the zero polynomial, which
    certifies the (truncated) series as an exact solution.
    """
    eta_inf = (None,) * gens[0].ny
    orders = [weighted_order(substitute_y(g, coords), W, eta_inf) for g in gens]
    return min((o for o in orders if o is not None), default=None)


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

    Forced chains.  Every branch that a step makes is first handed to
    ``forced_step``, and while its step is forced and ``max_terms`` is not
    reached, the step is taken at once, without a scan.  Each such step
    still goes through ``recenter`` and counts against ``max_branches``.
    The branch that is left then ends or takes the walk like any other; by
    the persistence lemma of ``forced_step`` a chain stops only at
    ``max_terms`` or at an exact solution.
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

    def spawn(branch: Branch, sd: StepData) -> Branch:
        nonlocal spawned
        spawned += 1
        if spawned > opts.max_branches:
            raise BranchBudgetExceeded(
                "more than %d expansion steps; raise max_branches" % opts.max_branches
            )
        return recenter(branch, sd, W)

    y_free = (0,) * ny
    while frontier:
        branch = frontier.popleft()
        exact = not any(t.ydeg == y_free for g in branch.gens for t in g.terms)
        if exact or branch.step >= opts.max_terms:
            residual = None if exact else residual_order(branch, W)
            solutions.append(SeriesSolution(branch.coords(ny), branch.cum_ram, residual, branch.trace))
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
            child = spawn(branch, sd)
            while child.step < opts.max_terms and (sd := forced_step(child, W)) is not None:
                child = spawn(child, sd)
            frontier.append(child)

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
