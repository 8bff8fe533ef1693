"""The benchmark traces the program by replacing module attributes.

``perfbench/spans.py`` lists them in ``HOOKS``; a rename or a removed import
in the package would make the traced benchmark fail, so every hooked
attribute must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for modname, attr, *_ in spans.HOOKS:
        mod = importlib.import_module(modname)
        assert callable(getattr(mod, attr)), "%s.%s" % (modname, attr)
