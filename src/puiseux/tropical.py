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
is injective.  The choices are walked depth first over the generators, in
order, adding one tie row at a time to a reduced echelon form
(``values.add_row``): an inconsistent prefix is pruned, and a prefix whose
solution set is a point is not extended, since every extension either
contradicts it or ties at the same point.  ``W`` only decides which terms
are lowest: a point is kept when the chosen pairs really attain the
weighted minima of their generators and every later generator attains its
minimum at least twice, and it is deduplicated only after it is kept.  This
finds exactly the points and counts of the full product of pair choices.

Only terms on the floor-adjusted Newton staircase take part.  Weights are
enumerated above a floor (the branch's scaled previous weights, or zero on
the first step), and a term that another term dominates there, with
componentwise smaller y-degrees and a smaller floor-adjusted value, never
reaches a minimum, so no pair containing it can validate.  Full pair
choices whose systems are consistent but positive-dimensional among the
remaining terms are counted and reported rather than enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .lpoly import LPoly
from .values import WeightMatrix, add_row, canonical, sort_key


@dataclass(frozen=True)
class EtaCandidate:
    """A validated candidate weight with its per-generator initial forms.

    ``eta`` holds value tuples, None where the weight is infinite, and
    ``gamma`` the exponent rows with ``W . gamma[i] = eta[i]`` (None exactly
    there too), both with canonical entries.  ``initials`` follows the input
    generator order; an entry is zero exactly when the generator is absorbed
    by the retired coordinates, and every nonzero entry has at least two
    terms.
    """

    eta: tuple[tuple | None, ...]
    gamma: tuple[tuple | None, ...]
    initials: tuple[LPoly, ...]


@dataclass(frozen=True)
class CandidateScan:
    candidates: tuple[EtaCandidate, ...]
    underdetermined: int


def _lower_terms(restricted, W: WeightMatrix, lam, floor, closed: bool):
    """The restricted terms that can reach a minimum, in term order.

    Each entry is ``(term, W.xexp, lam-degrees)``.  A term ``t`` is dropped
    when another term ``s`` has lam-degrees componentwise at most those of
    ``t`` and a floor-adjusted value ``W.xexp + sum(ydeg[i] * floor[i])``
    below that of ``t``: strictly below when the weights range over the
    closed region ``eta_i >= floor_i``, at most equal when they range over
    the open region ``eta_i > floor_i``.  Either way ``t`` lies strictly
    above ``s`` at every weight of the region.  Without a floor only terms
    of equal lam-degrees are compared.

    The lam-degrees in the output are pairwise distinct: two restricted
    terms with equal lam-degrees have equal y-degrees, so distinct
    x-exponents, and since ``W`` is injective distinct values.  The lower
    one dominates the other in every mode.
    """
    entries = []  # (term, W.xexp, lam-degrees, floor-adjusted value)
    for t in restricted:
        xval = W.value_of(t.xexp)
        degs = tuple(t.ydeg[i] for i in lam)
        adj = xval if floor is None else _value(xval, degs, floor)
        entries.append((t, xval, degs, adj))

    def dominates(s, t) -> bool:
        _, _, s_degs, s_adj = s
        _, _, t_degs, t_adj = t
        if floor is None:
            return s_degs == t_degs and s_adj < t_adj
        if not all(p <= q for p, q in zip(s_degs, t_degs)):
            return False
        return s_adj < t_adj if closed else s_adj <= t_adj

    # A dominating term sorts first, and dominance is transitive, so testing
    # against the terms kept so far is enough.
    order = sorted(range(len(entries)), key=lambda j: (entries[j][3], sum(entries[j][2])))
    kept: list[int] = []
    for j in order:
        if not any(dominates(entries[k], entries[j]) for k in kept):
            kept.append(j)
    return [entries[j][:3] for j in sorted(kept)]


def _value(xval, degs, eta) -> tuple:
    """Weighted value of a restricted term under lam-weights ``eta``."""
    return tuple(
        v + sum(b * e[k] for b, e in zip(degs, eta) if b) for k, v in enumerate(xval)
    )


def candidate_etas(
    gens: Sequence[LPoly],
    W: WeightMatrix,
    lam: Sequence[int],
    positive_only: bool = True,
    floor: Sequence[tuple | None] | None = None,
) -> CandidateScan:
    """All determined candidate weights whose finite support is ``lam``.

    Coordinates outside ``lam`` are retired (weight None, the variable is set
    to zero).  With ``positive_only`` every finite weight must be strictly
    positive.  With a ``floor`` (one value per coordinate) only weights with
    ``eta_i >= floor_i`` on ``lam`` are enumerated; ties at the floor itself
    are returned, so that the caller can count them as failing the strict
    increase.  The zero vector is the floor under ``positive_only``.  Terms that cannot
    reach a minimum above the floor are dropped before pairs are built, and
    the count of underdetermined pair systems among the rest is reported in
    the result instead of being expanded.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ny = gens[0].ny
    lam = tuple(sorted(set(lam)))
    if any(i < 0 or i >= ny for i in lam):
        raise ValueError("lambda indices out of range")
    off = [i for i in range(ny) if i not in lam]

    survivors = []  # (generator index, lower restricted terms)
    for gi, g in enumerate(gens):
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        restricted = [t for t in g.terms if all(t.ydeg[i] == 0 for i in off)]
        if restricted:
            survivors.append((gi, restricted))

    if not survivors:
        if lam:
            # No equations constrain the |lam| unknown weights.
            return CandidateScan((), 1)
        initials = tuple(LPoly.zero(g.nx, g.ny) for g in gens)
        return CandidateScan((EtaCandidate((None,) * ny, (None,) * ny, initials),), 0)
    if not lam:
        # A surviving x-only generator always has a one-term initial form.
        return CandidateScan((), 0)

    # The region of weights enumerated: eta >= floor, or eta > 0 under
    # positive_only alone, or everything.
    zero = (0,) * W.d
    closed = True
    if floor is not None:
        if any(floor[i] is None for i in lam):
            raise ValueError("the floor must be finite on lambda")
        low = tuple(floor[i] for i in lam)
    elif positive_only:
        low, closed = (zero,) * len(lam), False
    else:
        low = None
    survivors = [(gi, _lower_terms(r, W, lam, low, closed)) for gi, r in survivors]

    pair_lists = []
    for _, lower in survivors:
        pairs = list(combinations(lower, 2))
        if not pairs:
            return CandidateScan((), 0)
        pair_lists.append(pairs)

    # The depth-first walk over the pair choices (see the module docstring),
    # on a reduced echelon form of the tie rows in the gamma rows.
    nl = len(lam)
    points: dict = {}  # gamma rows -> (eta, lower terms at each minimum), or None out of range
    found: dict = {}  # gamma rows -> validated candidate
    underdetermined = 0

    def settle(choice, form):
        x = tuple(tuple(map(canonical, r[nl:])) for _, r in sorted(form))
        if x not in points:
            eta = tuple(tuple(map(canonical, W.value_of(row))) for row in x)
            points[x] = None
            if not (positive_only and any(e <= zero for e in eta)) and (
                low is None or all(e >= f for e, f in zip(eta, low))
            ):
                ties = []
                for _, lower in survivors:
                    vals = [_value(xv, d, eta) for _, xv, d in lower]
                    m = min(vals)
                    ties.append(tuple(e for e, v in zip(lower, vals) if v == m))
                points[x] = (eta, ties)
        if x in found or points[x] is None:
            return
        eta, ties = points[x]
        # The chosen pairs tie at x, so they attain their minima when their
        # first terms do; a later generator has a pair tying at its minimum
        # when two of its terms attain it.
        if any(a not in tie for (a, _), tie in zip(choice, ties)) or any(
            len(tie) < 2 for tie in ties[len(choice):]
        ):
            return
        full_eta = [None] * ny
        gamma = [None] * ny
        for pos, i in enumerate(lam):
            full_eta[i] = eta[pos]
            gamma[i] = x[pos]
        initials = [LPoly.zero(g.nx, g.ny) for g in gens]
        for (gi, _), tie in zip(survivors, ties):
            initials[gi] = LPoly(gens[gi].nx, gens[gi].ny, tuple(t for t, _, _ in tie))
        found[x] = EtaCandidate(tuple(full_eta), tuple(gamma), tuple(initials))

    def walk(choice, form):
        nonlocal underdetermined
        if len(choice) == len(survivors):
            underdetermined += 1
            return
        for pair in pair_lists[len(choice)]:
            (t1, _, d1), (t2, _, d2) = pair
            row = [p - q for p, q in zip(d1, d2)] + [e2 - e1 for e1, e2 in zip(t1.xexp, t2.xexp)]
            nxt = add_row(form, row, nl)
            if nxt is None:
                continue
            if len(nxt) == nl:
                settle(choice + (pair,), nxt)
            else:
                walk(choice + (pair,), nxt)

    walk((), ())
    ordered = sorted(found.values(), key=lambda c: tuple(map(sort_key, c.eta)))
    return CandidateScan(tuple(ordered), underdetermined)

