"""The benchmark's workloads: seeded inputs, oracle references and output checks.

Each workload turns a seed into a list of problems, writes the problem (and
solution) files the program reads, computes the references its checks need,
and judges every output the program printed.  Nothing here calls the
package under test (run as a set-up child, it imports it only to time the
import): references come from the independent Newton-polygon expander in
``tests/oracle_newton.py`` and, for the multi-y system, from a residual
recomputed with sympy.

Workloads, and why each was chosen:

- ``deep_multi``: a 3-y surface system expanded to 4 terms.  Recentered
  generators grow every step, so nearly all time goes to candidate
  enumeration (``tropical``).  Its sibling, whose branches all die, rides
  along as the dead-branch path of the same system.  At 5 terms one pass
  takes about 5 s, too few passes in a run for a steady median of the
  sibling's latency; each added term costs about four times the last.
- ``deep_plane``: smooth plane branches expanded to 17 terms.  Exact
  coefficients grow with depth, so the rational root finder (``solver``)
  dominates; enumeration is a small share.
- ``random_plane``: a few hundred small random plane curves at 3-6 terms,
  compared branch for branch with the oracle.  Many small problems, dead
  branches and irrational roots make per-call overhead, rendering and the
  dead-branch path visible.
- ``certify``: ``puiseux check`` on every prefix of every oracle branch of
  random plane curves.  Only the residual certificate and parsing run: the
  control workload that enumeration and root-finding changes must not move.

The seed renames the variables in every workload.  The random curves come
from a fixed pool, and the seed applies a sign symmetry to each and shuffles
their order (see ``pool_curves``), so every seed gets the same work and the
same failures.  Fresh draws of 256 curves per seed failed on 25 to 42 curves
over seeds 1-10 (one pass each, CPython 3.11, 2 cores): the failed fraction's
interquartile range was 0.044 of its median, against a bound of 0.05.  Their
cost did not vary beyond the machine's noise: over seeds 1-5 the fastest of
three passes took 3.56-4.02 s, and the pool, whose work is the same at every
seed, 3.86-4.58 s.
"""

from __future__ import annotations

import itertools
import json
import pickle
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

MAX_BRANCHES = 100000


@dataclass
class Problem:
    """One call of the program: its argv and what its output is checked against."""

    name: str
    argv: list[str]
    ref: object = None
    terms: int = 0  # series terms certified by a check call, known at setup


@dataclass
class Verdict:
    """The check of one problem's output.

    ``ok`` is false for any mismatch with the reference.  ``wrong`` is true
    when the program printed something false (an extra or altered branch, a
    residual order that disagrees, an error), as opposed to only leaving out
    branches the reference has.
    """

    ok: bool
    wrong: bool
    terms: int
    detail: str = ""


# ---------------------------------------------------------------- inputs


def var_names(rng: random.Random, nx: int, ny: int) -> tuple[list[str], list[str]]:
    """Seeded variable names; the program must not depend on them."""
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvw") for _ in range(2))
    return (
        ["x%s%d" % (tag, i + 1) for i in range(nx)],
        ["y%s%d" % (tag, i + 1) for i in range(ny)],
    )


def _fill(template: str, xs: list[str], ys: list[str]) -> str:
    return template.format(**{"x%d" % (i + 1): n for i, n in enumerate(xs)},
                           **{"y%d" % (i + 1): n for i, n in enumerate(ys)})


def random_curve(rng: random.Random, max_ydeg: int) -> list[tuple[int, int, int]]:
    """Support of a random plane curve: (x-exponent, y-degree, coefficient).

    2-6 distinct terms, x-degree at most 5, y-degree at most ``max_ydeg``,
    coefficients in [-3, 3] without zero, and at least one term with y.
    """
    while True:
        n = rng.randint(2, 6)
        support: dict = {}
        while len(support) < n:
            support[(rng.randint(0, 5), rng.randint(0, max_ydeg))] = rng.choice(
                (-3, -2, -1, 1, 2, 3)
            )
        if any(i > 0 for _, i in support):
            return sorted((a, i, c) for (a, i), c in support.items())


def curve_text(support, x: str, y: str) -> str:
    """The curve as a generator expression in the problem-file syntax."""
    parts = []
    for a, i, c in support:
        factors = ([] if a == 0 else [x if a == 1 else "%s^%d" % (x, a)]) + (
            [] if i == 0 else [y if i == 1 else "%s^%d" % (y, i)]
        )
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def problem_file(xs, ys, weights, gens, max_terms) -> str:
    lines = ["vars " + " ".join(xs + ys)]
    lines += ["weight " + " ".join(str(e) for e in row) for row in weights]
    lines += ["gen " + g for g in gens]
    lines += ["opt max_terms %d" % max_terms, "opt max_branches %d" % MAX_BRANCHES]
    return "\n".join(lines) + "\n"


class OracleCache:
    """Oracle branches per (curve, depth), computed once per set-up."""

    def __init__(self):
        self._memo: dict = {}

    def branches(self, support, depth: int):
        key = (tuple(support), depth)
        if key not in self._memo:
            import oracle_newton  # from tests/, put on sys.path by the caller

            f = oracle_newton.curve(support)
            self._memo[key] = oracle_newton.expand_curve(f, depth)[0]
        return self._memo[key]


# Copies of problems/coupled_pair_{a,b}.txt with seeded names and more depth.
COUPLED_WEIGHTS = ((1, 1), (0, 1))
COUPLED_GENS = {
    "coupled_pair_a": ("{x1} + {y1} - {y2} + {y1}*{y2} + {y3}",
                       "{x2} - {y1} + {y2} + 2*{y1}*{y2}", "{y3}"),
    "coupled_pair_b": ("{x1} + {y1} - {y2} + {y1}*{y2} + {y3}",
                       "{x2} - {y1} - {y2} + 2*{y1}*{y2}", "{y3}"),
}
DEEP_MULTI_TERMS = 4

# problems/nodal_cubic.txt and problems/sqrt_factor.txt: one curve, two spellings.
NODAL = [(0, 2, 1), (2, 0, -1), (3, 0, -1)]
DEEP_PLANE = {"nodal_cubic": "{y1}^2 - {x1}^2 - {x1}^3",
              "sqrt_factor": "{y1}^2 - {x1}^2*(1 + {x1})"}
DEEP_PLANE_TERMS = 17

POOL_SEED = 1
RANDOM_PLANE_CURVES = 256
CERTIFY_CURVES = 48
CERTIFY_TERMS = 6


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def setup_deep_multi(seed: int, workdir: Path, oracle: OracleCache) -> list[Problem]:
    xs, ys = var_names(random.Random(seed), 2, 3)
    out = []
    for name, gens in COUPLED_GENS.items():
        texts = [_fill(g, xs, ys) for g in gens]
        path = _write(workdir / (name + ".txt"),
                      problem_file(xs, ys, COUPLED_WEIGHTS, texts, DEEP_MULTI_TERMS))
        ref = {"x": xs, "y": ys, "gens": texts, "expect_solutions": name == "coupled_pair_b"}
        out.append(Problem(name, ["run", path, "--json"], ref))
    return out


def setup_deep_plane(seed: int, workdir: Path, oracle: OracleCache) -> list[Problem]:
    xs, ys = var_names(random.Random(seed), 1, 1)
    out = []
    for name, gen in DEEP_PLANE.items():
        path = _write(workdir / (name + ".txt"),
                      problem_file(xs, ys, [(1,)], [_fill(gen, xs, ys)], DEEP_PLANE_TERMS))
        out.append(Problem(name, ["run", path, "--json"],
                           oracle.branches(NODAL, DEEP_PLANE_TERMS)))
    return out


def pool_curves(rng: random.Random, max_ydeg: int):
    """Pool curves as (pool index, support, depth), each under seeded symmetries.

    The pool is the same for every seed.  The seed picks, per curve, the
    substitution y -> -y and the overall sign: the coefficients and branches
    change, the Newton polygon and coefficient sizes do not, so every seed
    asks for the same amount of work.
    """
    pool = random.Random(POOL_SEED + max_ydeg)
    for k in itertools.count():
        support = random_curve(pool, max_ydeg)
        depth = pool.randint(3, 6)
        sy, sf = rng.choice((1, -1)), rng.choice((1, -1))
        yield k, [(a, i, sf * sy**i * c) for a, i, c in support], depth


def setup_random_plane(seed: int, workdir: Path, oracle: OracleCache) -> list[Problem]:
    rng = random.Random(seed)
    xs, ys = var_names(rng, 1, 1)
    out = []
    for k, support, depth in itertools.islice(pool_curves(rng, 3), RANDOM_PLANE_CURVES):
        name = "curve%03d" % k
        path = _write(workdir / (name + ".txt"),
                      problem_file(xs, ys, [(1,)], [curve_text(support, xs[0], ys[0])], depth))
        out.append(Problem(name, ["run", path, "--json"], oracle.branches(support, depth)))
    rng.shuffle(out)
    return out


def setup_certify(seed: int, workdir: Path, oracle: OracleCache) -> list[Problem]:
    """Pool curves with a rational branch; one solution file per curve."""
    rng = random.Random(seed)
    xs, ys = var_names(rng, 1, 1)
    out = []
    for k, support, _ in pool_curves(rng, 4):
        if len(out) == CERTIFY_CURVES:
            break
        branches = [b for b in oracle.branches(support, CERTIFY_TERMS) if b[0]]
        if not branches:
            continue  # the branch y = 0 alone has no prefix to certify
        name = "curve%03d" % k
        chains, entries = [], []
        for terms, exact in branches:
            chain = []
            for n in range(1, len(terms) + 1):
                chain.append(len(entries))
                entries.append({
                    "coordinates": [{
                        "name": ys[0],
                        "terms": [{"coefficient": str(c), "exponent": [str(e)]}
                                  for e, c in terms[:n]],
                    }],
                })
            chains.append((chain, exact))
        prob = _write(workdir / (name + ".txt"),
                      problem_file(xs, ys, [(1,)], [curve_text(support, xs[0], ys[0])],
                                   CERTIFY_TERMS))
        sols = _write(workdir / (name + ".json"),
                      json.dumps({"solutions": entries}, indent=2) + "\n")
        terms = sum(len(e["coordinates"][0]["terms"]) for e in entries)
        out.append(Problem(name, ["check", prob, sols], chains, terms))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- checks


def _doc(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _series_terms(doc: dict) -> int:
    return sum(len(c["terms"]) for s in doc["solutions"] for c in s["coordinates"])


def _certificate_consistent(doc: dict) -> bool:
    return all(s["exact"] == (s["residual_order"] == "inf") for s in doc["solutions"])


def check_plane(p: Problem, rc, out: str) -> Verdict:
    """Branch-for-branch equality with the oracle, plus exact iff residual is inf."""
    doc = _doc(out) if rc in (0, 2) else None
    if doc is None:
        return Verdict(False, True, 0, "exit code %s" % rc)
    got = sorted(
        (tuple((Fraction(t["exponent"][0]), Fraction(t["coefficient"]))
               for t in s["coordinates"][0]["terms"]), s["exact"])
        for s in doc["solutions"]
    )
    want = list(p.ref)
    extra = [b for b in got if b not in want]
    missing = [b for b in want if b not in got]
    consistent = _certificate_consistent(doc) and rc == (0 if got else 2)
    ok = not extra and not missing and consistent
    detail = "" if ok else "missing %d, extra %d branches" % (len(missing), len(extra))
    return Verdict(ok, bool(extra) or not consistent, _series_terms(doc), detail)


def _order_key(v):
    return (1,) if v == "inf" else (0,) + tuple(Fraction(e) for e in v)


def sympy_residual_order(ref: dict, weights, sol: dict):
    """Residual order of a document's solution, recomputed with sympy.

    Each ``x_i`` becomes ``t_i^R`` for the solution's ramification R, so the
    substituted generators are polynomials in the ``t_i``; the order is the
    lexicographic minimum of ``W . (a / R)`` over their terms, or ``"inf"``
    when every residual vanishes.
    """
    import sympy

    R = sol["ramification"]
    ts = sympy.symbols("t0:%d" % len(ref["x"]))
    env = {n: sympy.Symbol(n) for n in ref["x"] + ref["y"]}
    subs = {env[n]: t**R for n, t in zip(ref["x"], ts)}
    for name, coord in zip(ref["y"], sol["coordinates"]):
        series = 0
        for term in coord["terms"]:
            mono = sympy.Rational(term["coefficient"])
            for t, e in zip(ts, term["exponent"]):
                a = Fraction(e) * R
                if a.denominator != 1:
                    raise ValueError("exponent outside the ramified lattice")
                mono *= t ** int(a)
            series += mono
        subs[env[name]] = series
    best = None
    for g in ref["gens"]:
        expr = sympy.expand(sympy.sympify(g.replace("^", "**"), locals=env).xreplace(subs))
        if expr == 0:
            continue
        for mono in sympy.Poly(expr, *ts).monoms():
            val = tuple(sum(Fraction(w) * Fraction(a, R) for w, a in zip(row, mono))
                        for row in weights)
            if best is None or val < best:
                best = val
    return "inf" if best is None else [str(v) for v in best]


def check_deep_multi(p: Problem, rc, out: str) -> Verdict:
    doc = _doc(out) if rc in (0, 2) else None
    if doc is None:
        return Verdict(False, True, 0, "exit code %s" % rc)
    if not p.ref["expect_solutions"]:
        ok = rc == 2 and not doc["solutions"]
        return Verdict(ok, not ok, 0, "" if ok else "expected no solutions")
    if not doc["solutions"] or not _certificate_consistent(doc):
        return Verdict(False, bool(doc["solutions"]), _series_terms(doc),
                       "no solution, or an exact flag that disagrees with its residual")
    for s in doc["solutions"]:
        want = sympy_residual_order(p.ref, COUPLED_WEIGHTS, s)
        if _order_key(want) != _order_key(s["residual_order"]):
            return Verdict(False, True, _series_terms(doc),
                           "residual order %s, sympy says %s" % (s["residual_order"], want))
    return Verdict(True, False, _series_terms(doc))


def parse_check_output(out: str) -> list:
    """Residual orders from ``puiseux check`` output lines, in entry order."""
    orders = []
    for line in out.splitlines():
        head, sep, text = line.partition(": residual order ")
        if not sep or not head.startswith("solution "):
            continue
        orders.append("inf" if text == "infinity" else text.strip("()").split(", "))
    return orders


def check_certify(p: Problem, rc, out: str) -> Verdict:
    """Orders grow strictly along each branch and are inf exactly on exact ones."""
    orders = parse_check_output(out) if rc == 0 else []
    if len(orders) != sum(len(chain) for chain, _ in p.ref):
        return Verdict(False, True, 0, "exit code %s, %d orders" % (rc, len(orders)))
    for chain, exact in p.ref:
        keys = [_order_key(orders[i]) for i in chain]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return Verdict(False, True, p.terms, "residual orders do not grow")
        if any(k == (1,) for k in keys[:-1]) or (keys[-1] == (1,)) != exact:
            return Verdict(False, True, p.terms, "infinite order does not match exactness")
    return Verdict(True, False, p.terms)


class Workload(NamedTuple):
    setup: Callable[[int, Path, OracleCache], list[Problem]]
    check: Callable[[Problem, object, str], Verdict]


WORKLOADS = {
    "deep_multi": Workload(setup_deep_multi, check_deep_multi),
    "deep_plane": Workload(setup_deep_plane, check_plane),
    "random_plane": Workload(setup_random_plane, check_plane),
    "certify": Workload(setup_certify, check_certify),
}


def set_up(name: str, seed: int, workdir: Path):
    """One set-up of a workload: (seconds, problems)."""
    start = perf_counter()
    problems = WORKLOADS[name].setup(seed, workdir, OracleCache())
    return perf_counter() - start, problems


if __name__ == "__main__":
    # python3 perfbench/workloads.py NAME SEED WORKDIR
    # Times the import of the package and one set-up in this fresh interpreter,
    # and writes the pickled (seconds, speed factor, problems) to standard
    # output; the factor comes from reference units around them (speed.py).
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import speed
    import workloads  # this file as a module, so the pickle names workloads.Problem

    gauge = speed.Gauge()
    start = perf_counter()
    import puiseux.cli  # noqa: F401  (only timed: the import is part of set-up)

    import_s = perf_counter() - start
    name, seed, workdir = sys.argv[1:]
    setup_s, problems = workloads.set_up(name, int(seed), Path(workdir))
    gauge.add(import_s + setup_s)
    pickle.dump((import_s + setup_s, gauge.factor(), problems), sys.stdout.buffer)
