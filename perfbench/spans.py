"""Spans and counters at the layer boundaries of the puiseux package.

The program is traced from outside.  ``instrument`` replaces the module
attributes that the program's call sites look up at call time with wrappers
that record one span per call and feed counters from the call's arguments
and result, and it puts every original back on exit.  ``expansion`` and
``cli`` import their helpers by name, so the hooks sit on those modules'
attributes: a wrapper on ``puiseux.tropical.candidate_etas`` would see no
call from ``expand``.

Counters run in a span of their own, named ``trace.count``, so their cost
is charged to no layer of the program and left out of the time inside it.
The JSON document of ``puiseux run --json`` is serialised by ``cli`` itself,
so that ``json.dumps`` counts as ``cli`` self time, not as rendering; so does
the ``json.load`` of the solution file on the check path.

Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter


class Span:
    __slots__ = ("name", "problem", "parent", "start", "end")

    def __init__(self, name, problem, parent, start):
        self.name = name
        self.problem = problem
        self.parent = parent
        self.start = start
        self.end = start

    def as_dict(self, idx: int) -> dict:
        return {"id": idx, "name": self.name, "problem": self.problem,
                "parent": self.parent, "start": self.start, "end": self.end}


class Recorder:
    """The spans and counters of one traced run.

    Span ids are indices into ``spans``; ``problem`` is the id shared by every
    span of the problem being run, set by the caller of the program.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.problem = None
        self.counts: Counter = Counter()
        self.maxima: dict = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.problem, parent, perf_counter()))
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx].end = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, key: str, n=1):
        self.counts[key] += n

    def peak(self, key: str, n):
        if n > self.maxima.get(key, 0):
            self.maxima[key] = n


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are recorded by one thread in stack order, so the children of a
    span never overlap and the part they cover is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


# ------------------------------------------------------------ counters


def _count_tropical(rec, args, out):
    rec.add("tropical.candidates", len(out.candidates))
    rec.add("tropical.underdetermined", out.underdetermined)
    rec.peak("tropical.in_terms_max", max(len(g.terms) for g in args[0]))


def _count_solver(rec, args, out):
    rec.add("solver.empty", not out.solutions)


def _count_roots(rec, args, out):
    """Bit length of the integer coefficients after clearing denominators and content."""
    cs = [Fraction(c) for c in args[0] if c != 0]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = gcd(*ints)
    rec.peak("solver.roots.max_coeff_bits", max((a // g).bit_length() for a in ints))


def _count_recenter(rec, args, out):
    for g in out.gens:
        rec.add("recenter.out_gens")
        rec.add("recenter.out_terms", len(g.terms))
        rec.peak("recenter.out_terms_max", len(g.terms))


def _count_expand(rec, args, out):
    rec.add("expansion.solutions", len(out.solutions))
    rec.add("expansion.dead_branches", len(out.dead_branches))


def _count_substitute(rec, args, out):
    rec.peak("residual.poly_terms_max", len(out.terms))


COUNT_SPAN = "trace.count"

# (module, attribute, span name, counter).  A span name's first component is
# its layer; the rest names a part of that layer.
HOOKS = (
    ("puiseux.cli", "parse_problem", "problem.parse", None),
    ("puiseux.cli", "coords_from_obj", "problem.coords", None),
    ("puiseux.cli", "run_document", "problem.render", None),
    ("puiseux.cli", "format_plain", "problem.render", None),
    ("puiseux.cli", "expand", "expansion.expand", _count_expand),
    ("puiseux.cli", "verify_residual", "residual", None),
    ("puiseux.expansion", "starting_data", "expansion.scan", None),
    ("puiseux.expansion", "candidate_etas", "tropical", _count_tropical),
    ("puiseux.expansion", "torus_solutions", "solver", _count_solver),
    ("puiseux.solver", "rational_roots", "solver.roots", _count_roots),
    ("puiseux.expansion", "recenter", "recenter", _count_recenter),
    ("puiseux.expansion", "shift_y", "recenter.shift_y", None),
    ("puiseux.expansion", "ramify", "recenter.ramify", None),
    ("puiseux.expansion", "verify_residual", "residual", None),
    ("puiseux.expansion", "substitute_y", "residual.substitute", _count_substitute),
    ("puiseux.expansion", "weighted_order", "residual.order", None),
)


def _wrap(rec: Recorder, fn, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if count is not None:
            with rec.span(COUNT_SPAN):
                count(rec, args, out)
        return out

    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Patch every hook for the duration of the block; restore them on exit."""
    saved = []
    try:
        for modname, attr, name, count in HOOKS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(rec, fn, name, count))
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "tropical.calls": "count", "tropical.self_s": "s", "tropical.share": "ratio",
    "tropical.candidates": "count", "tropical.underdetermined": "count",
    "tropical.in_terms_max": "terms", "tropical.yield": "ratio",
    "solver.calls": "count", "solver.self_s": "s", "solver.share": "ratio",
    "solver.empty_ratio": "ratio", "solver.roots.calls": "count",
    "solver.roots.self_s": "s", "solver.roots.max_coeff_bits": "bits",
    "recenter.calls": "count", "recenter.self_s": "s", "recenter.share": "ratio",
    "recenter.shift_y_s": "s", "recenter.out_terms_max": "terms",
    "recenter.out_terms_mean": "terms",
    "expansion.self_s": "s", "expansion.share": "ratio", "expansion.scan_self_s": "s",
    "expansion.solutions": "count", "expansion.dead_branches": "count",
    "residual.calls": "count", "residual.self_s": "s", "residual.share": "ratio",
    "residual.substitute_s": "s", "residual.poly_terms_max": "terms",
    "problem.parse_s": "s", "problem.render_s": "s", "problem.check_parse_s": "s",
    "problem.doc_bytes": "bytes", "problem.share": "ratio",
    "cli.self_s": "s", "cli.share": "ratio",
}


def layer_metrics(rec: Recorder, passes: int, doc_bytes: int):
    """Per-pass layer metrics from a recorder, and the base of every ratio.

    Times and counts are totals divided by ``passes``; maxima are over the
    whole run.  A layer's self time is the self time of all its spans, so it
    leaves out the time spent in other layers it calls.  Shares are of the
    time inside the program: the sum of the root spans less the counters'
    own spans.
    """
    selfs = self_times(rec.spans)
    calls: Counter = Counter()
    name_self: Counter = Counter()
    layer_self: Counter = Counter()
    root_of: list[int] = []
    parse_by_root: Counter = Counter()
    for i, s in enumerate(rec.spans):
        root_of.append(i if s.parent is None else root_of[s.parent])
        calls[s.name] += 1
        name_self[s.name] += selfs[i]
        layer_self[s.name.split(".", 1)[0]] += selfs[i]
        if s.name in ("problem.parse", "problem.coords"):
            parse_by_root[rec.spans[root_of[i]].name] += s.end - s.start
    roots = sum(s.end - s.start for s in rec.spans if s.parent is None)
    inside = roots - name_self[COUNT_SPAN]
    n = rec.counts
    bases: dict = {}

    def ratio(name, num, base, base_name):
        bases[name] = "%s = %.6g over %d traced passes" % (base_name, base, passes)
        return num / base if base else 0.0

    m = {
        "tropical.calls": calls["tropical"],
        "tropical.candidates": n["tropical.candidates"],
        "tropical.underdetermined": n["tropical.underdetermined"],
        "tropical.in_terms_max": rec.maxima.get("tropical.in_terms_max", 0),
        "tropical.yield": ratio("tropical.yield", calls["solver"] - n["solver.empty"],
                                n["tropical.candidates"], "tropical.candidates"),
        "solver.calls": calls["solver"],
        "solver.empty_ratio": ratio("solver.empty_ratio", n["solver.empty"],
                                    calls["solver"], "solver.calls"),
        "solver.roots.calls": calls["solver.roots"],
        "solver.roots.self_s": name_self["solver.roots"],
        "solver.roots.max_coeff_bits": rec.maxima.get("solver.roots.max_coeff_bits", 0),
        "recenter.calls": calls["recenter"],
        "recenter.shift_y_s": name_self["recenter.shift_y"],
        "recenter.out_terms_max": rec.maxima.get("recenter.out_terms_max", 0),
        "recenter.out_terms_mean": ratio("recenter.out_terms_mean", n["recenter.out_terms"],
                                         n["recenter.out_gens"], "recenter output generators"),
        "expansion.scan_self_s": name_self["expansion.scan"],
        "expansion.solutions": n["expansion.solutions"],
        "expansion.dead_branches": n["expansion.dead_branches"],
        "residual.calls": calls["residual"],
        "residual.substitute_s": name_self["residual.substitute"],
        "residual.poly_terms_max": rec.maxima.get("residual.poly_terms_max", 0),
        "problem.parse_s": parse_by_root["cli.run"],
        "problem.render_s": name_self["problem.render"],
        "problem.check_parse_s": parse_by_root["cli.check"],
        "problem.doc_bytes": doc_bytes,
    }
    for layer in ("tropical", "solver", "recenter", "expansion", "residual", "problem", "cli"):
        m[layer + ".self_s"] = layer_self[layer]
        m[layer + ".share"] = ratio(layer + ".share", layer_self[layer], inside,
                                    "wall seconds inside the program")
    per_pass = {k for k, unit in LAYER_METRICS.items() if unit in ("s", "count", "bytes")}
    out = {k: (m[k] / passes if k in per_pass else m[k]) for k in LAYER_METRICS}
    return out, bases
