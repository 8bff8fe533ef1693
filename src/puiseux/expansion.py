"""The branch-expansion driver.

A branch carries the current recentered generators, the accumulated series
terms, and the scaled weight floor that every later step must exceed.  One
step of a branch is described by a StepData triple (weights, exponent rows,
coefficients): the monomials it defines are the next terms of the series.

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
from fractions import Fraction
from itertools import combinations
from math import lcm
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
from .solver import torus_solutions
from .tropical import candidate_etas
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
    infinite), and ``c`` the coefficients (zero exactly on the retired
    coordinates).
    """

    eta: tuple[tuple | None, ...]
    gamma: tuple[tuple[Fraction, ...] | None, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.eta) == len(self.gamma) == len(self.c)):
            raise ValueError("step data fields must have equal length")
        object.__setattr__(
            self,
            "c",
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in self.c),
        )
        object.__setattr__(
            self,
            "gamma",
            tuple(None if g is None else tuple(Fraction(e) for e in g) for g in self.gamma),
        )
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

    def sort_key(self):
        return (tuple(map(sort_key, self.eta)), self.c, tuple(map(sort_key, self.gamma)))


@dataclass(frozen=True)
class TraceStep:
    data: StepData
    dgamma: int


def denominator_lcm(gamma: Sequence[tuple[Fraction, ...] | None]) -> int:
    """Least k making every finite exponent row integral; 1 when none are finite."""
    dens = [e.denominator for row in gamma if row is not None for e in row]
    return lcm(*dens) if dens else 1


@dataclass(frozen=True)
class Branch:
    gens: tuple[LPoly, ...]
    step: int
    cum_ram: int
    acc: tuple[tuple[tuple[Fraction, tuple[Fraction, ...]], ...], ...]
    retired: frozenset[int]
    history: tuple[TraceStep, ...]
    floor: tuple[tuple | None, ...] | None  # scaled previous weights; None before the first step


@dataclass(frozen=True)
class ExpandOptions:
    max_terms: int = 6
    max_branches: int = 64
    positive_only: bool = True
    solver_budget: int = 20000


@dataclass(frozen=True)
class SeriesSolution:
    """One emitted branch: per-coordinate term lists in the original frame.

    Exponents are exact rationals lying in the lattice (1/ramification)Z^nx.
    ``residual_order``, read off the recentered generators, is None (infinity)
    exactly when the truncation solves the system; ``puiseux check``
    recomputes it independently by substitution (``verify_residual``).
    """

    coords: tuple[tuple[tuple[Fraction, tuple[Fraction, ...]], ...], ...]
    ramification: int
    residual_order: tuple | None
    trace: tuple[TraceStep, ...]

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
    trace: tuple[TraceStep, ...]


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
    no_torus: int = 0
    irrational: bool = False
    nonzero_dimensional: bool = False


def starting_data(branch: Branch, W: WeightMatrix, opts: ExpandOptions):
    """All valid next steps of a branch, with scan diagnostics.

    Enumerates candidate weights over every nonempty subset of the active
    coordinates, passing the branch floor down so that the enumeration can
    skip terms that never reach a minimum above it.  Candidates that tie at
    the floor without exceeding it are counted as ``rejected_increase``.
    Emits one StepData per rational torus solution of each candidate's
    initial coefficient system.  The all-retired continuation is not
    produced here; the driver detects it as exact termination.
    """
    info = ScanInfo()
    if not branch.gens:
        return [], info
    ny = branch.gens[0].ny
    active = sorted(set(range(ny)) - set(branch.retired))
    out: list[StepData] = []
    for size in range(1, len(active) + 1):
        for lam in combinations(active, size):
            scan = candidate_etas(
                branch.gens,
                W,
                lam,
                positive_only=opts.positive_only and branch.step == 0,
                floor=branch.floor,
            )
            info.underdetermined += scan.underdetermined
            for cand in scan.candidates:
                info.candidates += 1
                if branch.floor is not None and any(
                    not cand.eta[i] > branch.floor[i] for i in lam
                ):
                    info.rejected_increase += 1
                    continue
                system = [at_x_one(h) for h in cand.initials if not h.is_zero]
                tsol = torus_solutions(system, lam, max_pairs=opts.solver_budget)
                info.irrational |= tsol.irrational_roots_detected
                info.nonzero_dimensional |= tsol.nonzero_dimensional
                if not tsol.solutions:
                    info.no_torus += 1
                for cvec in tsol.solutions:
                    c = [Fraction(0)] * ny
                    for pos, i in enumerate(lam):
                        c[i] = cvec[pos]
                    out.append(StepData(cand.eta, cand.gamma, tuple(c)))
    out.sort(key=StepData.sort_key)
    return out, info


def recenter(branch: Branch, data: StepData, W: WeightMatrix) -> Branch:
    """Apply one step: ramify, shift the active y coordinates, retire the rest.

    The new terms ``c_i x^(gamma_i / cum_ram)`` are appended before the
    cumulative ramification is multiplied by the step's denominator lcm, so
    accumulated exponents always live in the original frame.
    """
    if not branch.gens:
        raise ValueError("cannot recenter a branch without generators")
    nx, ny = branch.gens[0].nx, branch.gens[0].ny
    act = data.active
    for i in act:
        if i in branch.retired:
            raise ValueError("step data revives a retired coordinate")
    if branch.floor is not None:
        for i in act:
            if not data.eta[i] > branch.floor[i]:
                raise MonotonicityError(
                    "weights must strictly increase along a branch (coordinate %d)" % i
                )
    k = denominator_lcm(data.gamma)
    # gamma_i * k is integral by the choice of k: int exponents in the shift
    shifts = []
    for i in range(ny):
        if data.gamma[i] is None:
            shifts.append(LPoly.zero(nx, ny))
        else:
            shifts.append(
                LPoly.monomial(nx, ny, data.c[i], tuple(e * k for e in data.gamma[i]))
            )
    newly_retired = [i for i in range(ny) if i not in branch.retired and data.eta[i] is None]
    gens = []
    for g in branch.gens:
        h = shift_y(ramify(g, k), shifts)
        if newly_retired:
            h = set_y_zero(h, newly_retired)
        if not h.is_zero:
            gens.append(h)
    acc = list(branch.acc)
    for i in act:
        exp = tuple(e / branch.cum_ram for e in data.gamma[i])
        acc[i] = acc[i] + ((data.c[i], exp),)
    floor = tuple(None if e is None else tuple(canonical(q * k) for q in e) for e in data.eta)
    return Branch(
        gens=tuple(gens),
        step=branch.step + 1,
        cum_ram=branch.cum_ram * k,
        acc=tuple(acc),
        retired=branch.retired | frozenset(newly_retired),
        history=branch.history + (TraceStep(data, k),),
        floor=floor,
    )


def residual_order(branch: Branch, W: WeightMatrix) -> tuple | None:
    """Order of the worst generator residual at the branch's truncation.

    The least order of the y-free parts of the recentered generators, scaled
    back by ``cum_ram``; None (infinity) exactly when they all vanish.
    """
    eta_inf = (None,) * len(branch.acc)
    orders = [weighted_order(g.y_free_part(), W, eta_inf) for g in branch.gens]
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


def _solution(branch: Branch, residual: tuple | None) -> SeriesSolution:
    return SeriesSolution(
        coords=branch.acc,
        ramification=branch.cum_ram,
        residual_order=residual,
        trace=branch.history,
    )


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

    root = Branch(
        gens=gens,
        step=0,
        cum_ram=1,
        acc=((),) * ny,
        retired=frozenset(),
        history=(),
        floor=None,
    )
    frontier = deque([root])
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
            solutions.append(_solution(branch, residual))
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
                    trace=branch.history,
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
        sorted(dead, key=lambda d: (d.step, tuple(t.data.sort_key() for t in d.trace)))
    )
    return ExpandResult(
        solutions=final,
        dead_branches=dead_sorted,
        irrational_roots_detected=any_irrational,
        underdetermined_seen=any_underdetermined,
    )
