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

The walk visits each state, a generator index and an echelon form, once.
What lies below a state does not depend on the pairs that reached it: the
points settled below it by choices that attain their minima there (the
check on later generators depends only on the level where a point
settles), and the number of positive-dimensional full choices below it.  A
pair whose tie row is implied leaves the form unchanged, so without this
the walk would repeat the whole subtree below such a pair.  A parent keeps
a point from below when its own pair's first term attains its generator's
minimum there.

Only terms on the floor-adjusted Newton staircase take part.  Weights are
enumerated above a floor (the branch's scaled previous weights, or zero on
the first step), and a term that another term dominates there, with
componentwise smaller y-degrees and a smaller floor-adjusted value, never
reaches a minimum, so no pair containing it can validate.  A branch's
staircases are computed once (``staircases``), from the lowest term of
each y-degree vector that ``lpoly.lowest_terms`` values, and cut down to
each set of finite coordinates (``restrict``).  Full pair choices whose
systems are consistent but positive-dimensional among the remaining terms
are counted and reported rather than enumerated.

A smooth plane branch past its first step needs no walk: when the lowest
terms of its one generator show one edge of height one above the floor,
``expansion.forced_step`` reads the step off that edge, the only candidate
the walk would find, and ``expand`` takes it without a scan, and every
later step of the branch as well, on the ``W``-values of its terms
(``expansion.forced_chain``).  The exact end of such a chain is not
scanned either: the persistence lemma of ``forced_step`` shows that the
walk finds no candidate above its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, le, mul
from typing import Sequence

from .lpoly import LPoly, lowest_terms
from .values import WeightMatrix, add_row, canonical, sort_key


@dataclass(frozen=True)
class EtaCandidate:
    """A validated candidate weight with its initial coefficient system.

    ``eta`` holds value tuples, None where the weight is infinite, and
    ``gamma`` the exponent rows with ``W . gamma[i] = eta[i]`` (None exactly
    there too), both with canonical entries.  ``system`` holds the initial
    forms at ``x = 1``, one per generator that is not absorbed by the
    retired coordinates, in generator order: each is a dict from the
    degrees in the finite coordinates (ascending) to the coefficient, of the
    terms at the generator's minimum.  Those degrees are pairwise distinct
    (``restrict``), so no terms merge, and every dict has at least two
    entries.
    """

    eta: tuple[tuple | None, ...]
    gamma: tuple[tuple | None, ...]
    system: tuple[dict, ...]


@dataclass(frozen=True)
class CandidateScan:
    candidates: tuple[EtaCandidate, ...]
    underdetermined: int


def staircases(
    gens: Sequence[LPoly],
    W: WeightMatrix,
    positive_only: bool = True,
    floor: Sequence[tuple | None] | None = None,
) -> tuple[tuple, ...]:
    """Each generator's floor-adjusted Newton staircase, for every ``lam`` at once.

    For each generator the result holds ``(term, W.xexp, y-support)`` for its
    terms that can reach a minimum in the region of weights (see
    ``candidate_etas``), in term order; the y-support has bit ``i`` set when
    ``y_i`` occurs.  A term ``t`` is dropped when another term ``s`` has
    y-degrees componentwise at most those of ``t`` and a floor-adjusted
    value ``W.xexp + sum(ydeg[i] * floor[i])`` below that of ``t``: strictly
    below when the weights range over the closed region ``eta_i >=
    floor_i``, at most equal when they range over the open region ``eta_i >
    floor_i``.  Either way ``t`` lies strictly above ``s`` at every weight
    of the region.  Without a floor only terms of equal y-degrees are
    compared.  A coordinate whose floor is infinite is retired: it is never
    in ``lam``, and ``restrict`` drops every term that carries it.  Such a
    term can dominate only terms that carry the same coordinate, so its
    floor-adjusted value, which counts that coordinate as zero, changes no
    scan.

    Of two terms with equal y-degrees the lower one by ``W.xexp`` dominates
    the other in every mode (see ``restrict``), and dominance is transitive.
    So each generator is first cut down, in one pass
    (``lpoly.lowest_terms``), to the lowest term of each distinct y-degree
    vector, and the support test, the floor adjustment, the sort and the
    dominance test run on those few terms only.

    ``restrict`` cuts this down to one ``lam`` exactly: a term that dominates
    a term of zero degree outside ``lam`` has zero degree there too, and the
    floor-adjusted values of such terms do not depend on ``lam``.
    """
    low, closed = _region(gens[0].ny, W.d, positive_only, floor)
    # per value coordinate, the bound of every y (zero where infinite)
    bounds = None if low is None else tuple(zip(*((0,) * W.d if f is None else f for f in low)))
    out = []
    for g in gens:
        entries = []  # (floor-adjusted value, total y-degree, term index, term, W.xexp, y-support)
        for xval, j, t in lowest_terms(g.terms, W).values():
            support = sum(1 << i for i, b in enumerate(t.ydeg) if b)
            adj = xval
            if bounds is not None:
                adj = tuple(v + sum(map(mul, t.ydeg, c)) for v, c in zip(xval, bounds))
            entries.append((adj, sum(t.ydeg), j, t, xval, support))
        kept = entries  # without a floor, the lowest terms are the staircase
        if low is not None:
            # In this order a term comes after every term that dominates it:
            # their values are at most its own, and smaller in total degree
            # when equal.  Dominance is transitive, so testing against the
            # terms kept so far is enough; over the open region their values
            # always qualify.
            entries.sort(key=lambda e: e[:3])
            kept = []
            for e in entries:
                adj, yd = e[0], e[3].ydeg
                if not any(
                    (k[0] < adj or not closed) and all(map(le, k[3].ydeg, yd)) for k in kept
                ):
                    kept.append(e)
        kept.sort(key=itemgetter(2))
        out.append(tuple(e[3:] for e in kept))
    return tuple(out)


def restrict(stair, lam: Sequence[int]) -> list:
    """A staircase's terms of zero degree outside ``lam``, as ``(term, W.xexp, lam-degrees)``.

    The lam-degrees are pairwise distinct: two such terms with equal
    lam-degrees have equal y-degrees, so distinct x-exponents, and since
    ``W`` is injective distinct values.  The lower one dominates the other
    in every mode.
    """
    off = ~sum(1 << i for i in lam)
    return [(t, xval, tuple(t.ydeg[i] for i in lam)) for t, xval, support in stair if not support & off]


def _region(ny: int, d: int, positive_only: bool, floor) -> tuple:
    """The lower bound of the enumerated weights per coordinate, and whether it is attained.

    ``eta >= floor`` (closed), or ``eta > 0`` under ``positive_only`` alone
    (open), or no bound (None).
    """
    if floor is not None:
        return tuple(floor), True
    if positive_only:
        return ((0,) * d,) * ny, False
    return None, False


def candidate_etas(
    gens: Sequence[LPoly],
    W: WeightMatrix,
    lam: Sequence[int],
    positive_only: bool = True,
    floor: Sequence[tuple | None] | None = None,
    stairs: tuple | None = None,
) -> CandidateScan:
    """All determined candidate weights whose finite support is ``lam``, a nonempty set.

    Coordinates outside ``lam`` are retired (weight None, the variable is set
    to zero).  With ``positive_only`` every finite weight must be strictly
    positive.  With a ``floor`` (one value per coordinate) only weights with
    ``eta_i >= floor_i`` on ``lam`` are enumerated; ties at the floor itself
    are returned, so that the caller can count them as failing the strict
    increase.  The zero vector is the floor under ``positive_only``.  Terms that cannot
    reach a minimum above the floor are dropped before pairs are built, and
    the count of underdetermined pair systems among the rest is reported in
    the result instead of being expanded.  ``stairs`` is
    ``staircases(gens, W, positive_only, floor)``; a caller that scans
    several ``lam`` passes it to every scan, and it is computed here when
    not given.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ny = gens[0].ny
    lam = tuple(sorted(set(lam)))
    if not lam:
        raise ValueError("lambda must be nonempty")
    if any(i < 0 or i >= ny for i in lam):
        raise ValueError("lambda indices out of range")
    if any(g.is_zero for g in gens):
        raise ValueError("generators must be nonzero")
    region, _ = _region(ny, W.d, positive_only, floor)
    if region is not None and any(region[i] is None for i in lam):
        raise ValueError("the floor must be finite on lambda")
    if stairs is None:
        stairs = staircases(gens, W, positive_only, floor)

    # the lower restricted terms of every generator with a term of zero
    # degree outside lam, in generator order
    survivors = [lower for lower in (restrict(s, lam) for s in stairs) if lower]
    if not survivors:
        # No equations constrain the |lam| unknown weights.
        return CandidateScan((), 1)

    # Per level (surviving generator), its pairs of lower terms as (index of
    # the first term, tie row in the gamma rows).
    pair_lists = []
    for lower in survivors:
        pairs = [
            (j, [p - q for p, q in zip(d1, d2)] + [e2 - e1 for e1, e2 in zip(t1.xexp, t2.xexp)])
            for (j, (t1, _, d1)), (_, (t2, _, d2)) in combinations(enumerate(lower), 2)
        ]
        if not pairs:
            return CandidateScan((), 0)
        pair_lists.append(pairs)

    # The depth-first walk over the pair choices (see the module docstring),
    # on a reduced echelon form of the tie rows in the gamma rows.
    nl = len(lam)
    nlev = len(survivors)
    zero = (0,) * W.d
    low = None if region is None else tuple(region[i] for i in lam)
    points: dict = {}  # gamma rows -> (eta, per level the indices of the lower terms at its minimum), or None
    states: dict = {}  # (level, sorted form) -> (points below, positive-dimensional full choices below)

    def point(form):
        """The point a full-rank form solves, with its entry in ``points``."""
        x = tuple(tuple(map(canonical, r[nl:])) for _, r in sorted(form))
        if x not in points:
            eta = tuple(tuple(canonical(sum(map(mul, r, row))) for r in W.rows) for row in x)
            points[x] = None
            if not (positive_only and any(e <= zero for e in eta)) and (
                low is None or all(e >= f for e, f in zip(eta, low))
            ):
                ties = []
                cols = tuple(zip(*eta))  # per value coordinate, the lam-weights
                for lower in survivors:
                    vals = [
                        tuple(v + sum(map(mul, d, col)) for v, col in zip(xv, cols))
                        for _, xv, d in lower
                    ]
                    m = min(vals)
                    ties.append(frozenset(j for j, v in enumerate(vals) if v == m))
                points[x] = (eta, ties)
        return x, points[x]

    def walk(level, form):
        """The points settled below a state, kept by the choices that attain
        their minima there, and the count of positive-dimensional full
        choices below it; both depend only on the state."""
        key = (level, tuple(sorted(form)))
        if key in states:
            return states[key]
        below: set = set()
        count = 0
        for first, row in pair_lists[level]:
            nxt = add_row(form, row, nl)
            if nxt is None:
                continue
            if len(nxt) == nl:
                # Every later generator must have a pair tying at its minimum,
                # that is, two terms attaining it.
                x, entry = point(nxt)
                sub = (x,) if entry and all(len(t) >= 2 for t in entry[1][level + 1 :]) else ()
            elif level + 1 == nlev:
                count += 1
                continue
            else:
                sub, c = walk(level + 1, nxt)
                count += c
            # The chosen pair ties at x, so it attains the minimum when its
            # first term does.
            below.update(x for x in sub if first in points[x][1][level])
        states[key] = (below, count)
        return below, count

    found, underdetermined = walk(0, ())
    ordered = []
    for x in found:
        eta, ties = points[x]
        full_eta = [None] * ny
        gamma = [None] * ny
        for pos, i in enumerate(lam):
            full_eta[i] = eta[pos]
            gamma[i] = x[pos]
        system = tuple(
            {lower[j][2]: lower[j][0].coeff for j in sorted(tie)}
            for lower, tie in zip(survivors, ties)
        )
        ordered.append(EtaCandidate(tuple(full_eta), tuple(gamma), system))
    ordered.sort(key=lambda c: tuple(map(sort_key, c.eta)))
    return CandidateScan(tuple(ordered), underdetermined)
