"""Candidate weight enumeration for the y coordinates.

A weight tuple ``eta`` is admissible for a generator set only if every
generator's initial form, after the retired coordinates are set to zero, is
not a monomial.  This is the generator-level necessary condition (the
prevariety); whether a candidate actually starts a branch is decided later
by solving its initial coefficient system on the torus.

Candidates with a fixed retired set are found by choosing, for every
surviving generator, one pair of terms with distinct restricted y-degrees
and solving the linear system that makes the chosen pairs tie.  The system
is solved for the exponent rows ``gamma_i`` of the next terms: two terms tie
under ``eta_i = W.gamma_i`` exactly when their exponents tie, because ``W``
is injective.  ``W`` only decides which terms are lowest: solutions are kept
when the chosen pairs really attain the weighted minimum of their
generators.  Pair systems with positive-dimensional solution sets are
counted and reported rather than enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .lpoly import LPoly, initial_form, term_value, weighted_order
from .values import INF, Val, WeightMatrix, solve_linear


@dataclass(frozen=True)
class EtaCandidate:
    """A validated candidate weight with its per-generator initial forms.

    ``gamma`` holds the exponent rows with ``W . gamma[i] = eta[i]`` (None
    exactly where the weight is infinite).  ``initials`` follows the input
    generator order; an entry is zero exactly when the generator is absorbed
    by the retired coordinates, and every nonzero entry has at least two
    terms.
    """

    eta: tuple[Val, ...]
    gamma: tuple[tuple[Fraction, ...] | None, ...]
    initials: tuple[LPoly, ...]


@dataclass(frozen=True)
class CandidateScan:
    candidates: tuple[EtaCandidate, ...]
    underdetermined: int

    @property
    def etas(self) -> tuple[tuple[Val, ...], ...]:
        return tuple(c.eta for c in self.candidates)


def _eta_key(eta) -> tuple:
    return tuple(v.sort_key() for v in eta)


def candidate_etas(
    gens: Sequence[LPoly],
    W: WeightMatrix,
    lam: Sequence[int],
    positive_only: bool = True,
) -> CandidateScan:
    """All determined candidate weights whose finite support is ``lam``.

    Coordinates outside ``lam`` are retired (weight INF, the variable is set
    to zero).  With ``positive_only`` every finite weight must be strictly
    positive.  The count of underdetermined pair systems is reported in the
    result instead of being expanded.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ny = gens[0].ny
    lam = tuple(sorted(set(lam)))
    if any(i < 0 or i >= ny for i in lam):
        raise ValueError("lambda indices out of range")
    off = [i for i in range(ny) if i not in lam]

    survivors = []  # (generator, restricted term list)
    for g in gens:
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        restricted = [t for t in g.terms if all(t.ydeg[i] == 0 for i in off)]
        if restricted:
            survivors.append((g, restricted))

    if not survivors:
        if lam:
            # No equations constrain the |lam| unknown weights.
            return CandidateScan((), 1)
        initials = tuple(LPoly.zero(g.nx, g.ny) for g in gens)
        return CandidateScan((EtaCandidate((INF,) * ny, (None,) * ny, initials),), 0)
    if not lam:
        # A surviving x-only generator always has a one-term initial form.
        return CandidateScan((), 0)

    pair_lists = []
    for _, restricted in survivors:
        pairs = [
            (t1, t2)
            for t1, t2 in combinations(restricted, 2)
            if tuple(t1.ydeg[i] for i in lam) != tuple(t2.ydeg[i] for i in lam)
        ]
        if not pairs:
            return CandidateScan((), 0)
        pair_lists.append(pairs)

    zero = Val.zero(W.d)
    seen: dict = {}
    underdetermined = 0
    found: list[EtaCandidate] = []
    for choice in product(*pair_lists):
        a_rows = []
        b_rows = []
        for t1, t2 in choice:
            a_rows.append([t1.ydeg[i] - t2.ydeg[i] for i in lam])
            b_rows.append([e2 - e1 for e1, e2 in zip(t1.xexp, t2.xexp)])
        status, x = solve_linear(a_rows, b_rows)
        if status == "none":
            continue
        if status == "many":
            underdetermined += 1
            continue
        gamma = [None] * ny
        eta = [INF] * ny
        for pos, i in enumerate(lam):
            gamma[i] = x[pos]
            eta[i] = W.value_of(x[pos])
        eta = tuple(eta)
        key = _eta_key(eta)
        if key in seen:
            continue
        seen[key] = True
        if positive_only and any(not eta[i] > zero for i in lam):
            continue
        ok = True
        for (g, _), (t1, _) in zip(survivors, choice):
            if term_value(W, eta, t1) != weighted_order(g, W, eta):
                ok = False
                break
        if not ok:
            continue
        initials = tuple(initial_form(g, W, eta) for g in gens)
        found.append(EtaCandidate(eta, tuple(gamma), initials))

    found.sort(key=lambda c: _eta_key(c.eta))
    return CandidateScan(tuple(found), underdetermined)


def is_prevariety_point(gens: Sequence[LPoly], W: WeightMatrix, eta: Sequence[Val]) -> bool:
    """Generator-level membership test: no initial form may be a monomial.

    An initial form that vanishes means the generator is absorbed by the
    retired coordinates and imposes nothing; a single-term initial form is a
    monomial witness and rejects the weight.
    """
    for g in gens:
        h = initial_form(g, W, tuple(eta))
        if h.is_zero:
            continue
        if len(h.terms) < 2:
            return False
    return True
