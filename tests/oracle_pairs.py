"""Brute-force reference for candidate weight enumeration.

Takes the full product of term pairs of every generator, solves every pair
system for the exponent rows, and validates every choice before it is
deduplicated; a second function counts the full choices whose systems are
positive-dimensional.  Nothing is pruned and no floor or sign condition is
applied, so callers restrict the result to the region they compare.  The linear
algebra and the weighted values are computed here on plain tuples, apart
from the package's polynomial containers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def _eliminate(a_rows, b_rows, n):
    """Gauss-Jordan elimination of ``[A | B]`` over Q, A with ``n`` columns.

    Returns the reduced rows and the pivot columns, or None when the system
    is inconsistent.
    """
    m = [[Fraction(v) for v in a] + [Fraction(v) for v in b] for a, b in zip(a_rows, b_rows)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [v / m[row][col] for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    if any(v != 0 for r in m[row:] for v in r):
        return None
    return m, pivots


def _unique_solution(a_rows, b_rows):
    """The unique X with A X = B over Q, or None (inconsistent or not unique)."""
    n = len(a_rows[0])
    solved = _eliminate(a_rows, b_rows, n)
    if solved is None or len(solved[1]) < n:
        return None
    return tuple(tuple(solved[0][i][n:]) for i in range(n))


def _times(rows, vec):
    return tuple(sum(w * v for w, v in zip(r, vec)) for r in rows)


def brute_etas(gens, w_rows, lam) -> set:
    """Every weight determined by a validating pair choice, as coordinate tuples.

    Entries are ``None`` on retired coordinates (outside ``lam``).  A choice
    validates when each chosen pair attains its generator's minimum over the
    terms that survive setting the retired coordinates to zero.
    """
    ny = gens[0].ny
    off = [i for i in range(ny) if i not in lam]
    survivors = []
    for g in gens:
        terms = [t for t in g.terms if all(t.ydeg[i] == 0 for i in off)]
        if terms:
            survivors.append(terms)
    if not survivors:
        return set()  # no equation constrains the weights
    pair_lists = [
        [
            (s, t)
            for s, t in combinations(terms, 2)
            if any(s.ydeg[i] != t.ydeg[i] for i in lam)
        ]
        for terms in survivors
    ]
    out = set()
    for choice in product(*pair_lists):
        a_rows = [[s.ydeg[i] - t.ydeg[i] for i in lam] for s, t in choice]
        b_rows = [[q - p for p, q in zip(s.xexp, t.xexp)] for s, t in choice]
        gamma = _unique_solution(a_rows, b_rows)
        if gamma is None:
            continue
        eta = dict(zip(lam, (_times(w_rows, row) for row in gamma)))

        def value(t):
            v = _times(w_rows, t.xexp)
            for i in lam:
                v = tuple(a + t.ydeg[i] * b for a, b in zip(v, eta[i]))
            return v

        if all(
            value(s) == min(value(t) for t in terms)
            for (s, _), terms in zip(choice, survivors)
        ):
            out.add(tuple(eta.get(i) for i in range(ny)))
    return out


def brute_underdetermined(lowers, nl) -> int:
    """The number of full pair choices whose tie system is consistent and
    positive-dimensional.

    ``lowers`` holds one list of ``(term, W.xexp, lam-degrees)`` entries per
    surviving generator, as ``tropical._lower_terms`` gives them, and ``nl``
    is the number of unknown weights.  Every choice takes one pair of
    entries from each list.
    """
    count = 0
    for choice in product(*[list(combinations(lower, 2)) for lower in lowers]):
        a_rows = [[p - q for p, q in zip(ds, dt)] for (_, _, ds), (_, _, dt) in choice]
        b_rows = [[q - p for p, q in zip(s.xexp, t.xexp)] for (s, _, _), (t, _, _) in choice]
        solved = _eliminate(a_rows, b_rows, nl)
        if solved is not None and len(solved[1]) < nl:
            count += 1
    return count
