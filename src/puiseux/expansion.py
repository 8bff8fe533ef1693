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
per solution: ramify so the new exponent rows become integral, shift each
active y by its new monomial, and retire coordinates whose weight went
infinite.  After recentering, the y-free part of each generator is the
original generator evaluated at the accumulated truncation, in the ramified
frame.  So ``expand`` (and with it ``puiseux run``) reads the residual order
off the recentered generators (``residual_order``) and never substitutes
the series back.  A branch terminates when every y-free part is zero (the
accumulated sum is then an exact solution), or when the step budget runs
out (the truncation is emitted with its residual order as a certificate).
``verify_residual`` substitutes a series into the original generators
independently; ``puiseux check`` runs it.  Branches with no continuation
are reported, not silently dropped: over Q a candidate can genuinely die,
for instance when its coefficient system has only irrational roots.
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
    active_set,
    at_x_one,
    ramify,
    set_y_zero,
    shift_y,
    substitute_y,
    weighted_order,
)
from .solver import SOLVER_BUDGET, torus_solutions
from .tropical import candidate_etas, staircases
from .values import WeightMatrix, canonical, sort_key


class MonotonicityError(RuntimeError):
    """A step's weights failed to strictly exceed the scaled previous weights."""


class BranchBudgetExceeded(RuntimeError):
    """The expansion spawned more branches than allowed."""


@dataclass(frozen=True)
class StepData:
    """First-term data of one expansion step.

    ``eta`` holds the weighted order of each coordinate's next term (a value
    tuple, or None where the weight is infinite), ``gamma`` the exponent rows
    solving ``W . gamma[i] = eta[i]`` (None exactly where the weight is
    infinite, entries canonical), and ``c`` the coefficients (zero exactly
    on the retired coordinates).
    """

    eta: tuple[tuple | None, ...]
    gamma: tuple[tuple | None, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.eta) == len(self.gamma) == len(self.c)):
            raise ValueError("step data fields must have equal length")
        object.__setattr__(self, "c", tuple(map(Fraction, self.c)))
        gamma = tuple(None if g is None else tuple(map(canonical, g)) for g in self.gamma)
        object.__setattr__(self, "gamma", gamma)
        for e, g, c in zip(self.eta, self.gamma, self.c):
            if e is None:
                if g is not None or c != 0:
                    raise ValueError("retired coordinates need an infinite row and zero coefficient")
            else:
                if g is None or c == 0:
                    raise ValueError("active coordinates need a finite row and nonzero coefficient")

    @property
    def active(self) -> tuple[int, ...]:
        return active_set(self.eta)

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
    max_terms: int = 6
    max_branches: int = 64
    positive_only: bool = True
    solver_budget: int = SOLVER_BUDGET


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


@dataclass(frozen=True)
class DeadBranch:
    step: int
    reason: str
    candidates: int
    rejected_increase: int
    underdetermined: int
    irrational_roots_detected: bool
    nonzero_dimensional: bool
    trace: tuple[StepData, ...]


@dataclass(frozen=True)
class ExpandResult:
    solutions: tuple[SeriesSolution, ...]
    dead_branches: tuple[DeadBranch, ...]
    irrational_roots_detected: bool
    underdetermined_seen: bool


@dataclass
class ScanInfo:
    candidates: int = 0
    rejected_increase: int = 0
    underdetermined: int = 0
    irrational: bool = False
    nonzero_dimensional: bool = False


def starting_data(branch: Branch, W: WeightMatrix, opts: ExpandOptions):
    """All valid next steps of a branch, with scan diagnostics.

    Enumerates candidate weights over every nonempty subset of the active
    coordinates.  The generators' staircases above the branch floor, the
    terms that can reach a minimum there, are computed once and passed to
    every subset's scan, which restricts them to its subset.  Candidates that tie at
    the floor without exceeding it are counted as ``rejected_increase``.
    Emits one StepData per rational torus solution of each candidate's
    initial coefficient system.  The all-retired continuation is not
    produced here; the driver detects it as exact termination.
    """
    info = ScanInfo()
    if not branch.gens:
        return [], info
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
                system = [at_x_one(h) for h in cand.initials if not h.is_zero]
                tsol = torus_solutions(system, lam, max_pairs=opts.solver_budget)
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
    """Apply one step: ramify, shift the active y coordinates, retire the rest.

    The generators are ramified by the step's dgamma, so that its exponent
    rows become integral, and the step is appended to the trace.
    """
    if not branch.gens:
        raise ValueError("cannot recenter a branch without generators")
    ny = branch.gens[0].ny
    act = data.active
    retired = branch.retired
    if any(i in retired for i in act):
        raise ValueError("step data revives a retired coordinate")
    floor = branch.floor
    if floor is not None:
        for i in act:
            if not data.eta[i] > floor[i]:
                raise MonotonicityError(
                    "weights must strictly increase along a branch (coordinate %d)" % i
                )
    k = data.dgamma
    # gamma_i * k is integral by the choice of k: int exponents in the shift
    shifts = [
        None if row is None else (c, tuple(canonical(e * k) for e in row))
        for c, row in zip(data.c, data.gamma)
    ]
    newly_retired = [i for i in range(ny) if i not in retired and data.eta[i] is None]
    gens = []
    for g in branch.gens:
        h = shift_y(ramify(g, k), shifts)
        if newly_retired:
            h = set_y_zero(h, newly_retired)
        if not h.is_zero:
            gens.append(h)
    return Branch(tuple(gens), branch.trace + (data,))


def residual_order(branch: Branch, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual at the branch's truncation.

    The least order of the y-free parts of the recentered generators, scaled
    back by ``cum_ram``; None (infinity) exactly when they all vanish.
    """
    orders = [weighted_order(g.y_free_part(), W, (None,) * g.ny) for g in branch.gens]
    best = min((o for o in orders if o is not None), default=None)
    return None if best is None else tuple(canonical(Fraction(q, branch.cum_ram)) for q in best)


def verify_residual(gens: Sequence[LPoly], coords, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual after substituting the series.

    Independent of any expansion.  Returns None (infinity) exactly when every
    residual is the zero polynomial, which certifies the (truncated) series
    as an exact solution.
    """
    nx, ny = gens[0].nx, gens[0].ny
    series = [LPoly.from_terms(nx, ny, [(c, e, (0,) * ny) for c, e in coord]) for coord in coords]
    eta_inf = (None,) * ny
    orders = [weighted_order(substitute_y(g, series), W, eta_inf) for g in gens]
    return min((o for o in orders if o is not None), default=None)


def _coords_key(coords):
    return tuple(tuple((e, c) for c, e in coord) for coord in coords)


def expand(gens: Sequence[LPoly], W: WeightMatrix, opts: ExpandOptions = ExpandOptions()) -> ExpandResult:
    """Breadth-first expansion of every branch of the given system.

    Terminated branches become SeriesSolution entries (exact, or truncated
    with a residual certificate); branches with no valid continuation are
    reported as DeadBranch diagnostics.  Identical solutions reached along
    different paths are deduplicated.  Output order is deterministic.
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

    frontier = deque([Branch(gens)])
    spawned = 1
    solutions: list[SeriesSolution] = []
    dead: list[DeadBranch] = []
    any_irrational = False
    any_underdetermined = False

    while frontier:
        branch = frontier.popleft()
        residual = residual_order(branch, W)
        exact = residual is None
        if exact or branch.step >= opts.max_terms:
            sol = SeriesSolution(branch.coords(ny), branch.cum_ram, residual, branch.trace)
            solutions.append(sol)
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
            dead.append(
                DeadBranch(
                    step=branch.step,
                    reason=reason,
                    candidates=info.candidates,
                    rejected_increase=info.rejected_increase,
                    underdetermined=info.underdetermined,
                    irrational_roots_detected=info.irrational,
                    nonzero_dimensional=info.nonzero_dimensional,
                    trace=branch.trace,
                )
            )
            continue
        for sd in steps:
            spawned += 1
            if spawned > opts.max_branches:
                raise BranchBudgetExceeded(
                    "more than %d branches; raise max_branches" % opts.max_branches
                )
            frontier.append(recenter(branch, sd, W))

    unique: dict = {}
    for s in solutions:
        unique.setdefault(_coords_key(s.coords), s)
    final = tuple(sorted(unique.values(), key=lambda s: _coords_key(s.coords)))
    dead_sorted = tuple(
        sorted(dead, key=lambda d: (d.step, tuple(t.sort_key() for t in d.trace)))
    )
    return ExpandResult(
        solutions=final,
        dead_branches=dead_sorted,
        irrational_roots_detected=any_irrational,
        underdetermined_seen=any_underdetermined,
    )
