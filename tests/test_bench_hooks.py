"""The benchmark traces the program by replacing module attributes.

``perfbench/spans.py`` lists them in ``HOOKS``; a rename or a removed import
in the package would make the traced benchmark fail, so every hooked
attribute must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

from puiseux import LPoly, expand, expansion, parse_problem

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for modname, attr, *_ in spans.HOOKS:
        mod = importlib.import_module(modname)
        assert callable(getattr(mod, attr)), "%s.%s" % (modname, attr)


def test_verify_residual_makes_the_hooked_calls_once_per_generator(monkeypatch):
    """``residual.substitute`` and ``residual.order`` time these calls; a path
    around them would read as a residual layer that costs nothing."""
    spec = parse_problem((ROOT / "problems" / "coupled_pair_b.txt").read_text())
    (sol,) = expand(spec.gens, spec.weights, spec.options).solutions
    calls = {"substitute_y": [], "weighted_order": []}

    def recording(fn, outs):
        def wrapper(*args):
            outs.append(fn(*args))
            return outs[-1]

        return wrapper

    for name, outs in calls.items():
        monkeypatch.setattr(expansion, name, recording(getattr(expansion, name), outs))
    expansion.verify_residual(spec.gens, sol.coords, spec.weights)
    assert len(spec.gens) == 3
    assert [len(outs) for outs in calls.values()] == [3, 3]
    assert all(isinstance(out, LPoly) for out in calls["substitute_y"])
