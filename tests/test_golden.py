"""Every corpus document is pinned byte for byte.

``tests/golden/<stem>.json`` and ``<stem>.txt`` hold the output of
``puiseux run --json`` and ``--plain`` on ``problems/<stem>.txt``.  A change
that moves any document, in content, order or number formatting, fails
here with a diff.  After an intended change, regenerate them with

    PYTHONPATH=src python -c "import tests.test_golden as g; g.regenerate()"
"""

import contextlib
import difflib
import io
from pathlib import Path

import pytest

from puiseux.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted((ROOT / "problems").glob("*.txt"))
GOLDEN = ROOT / "tests" / "golden"
FORMATS = {"--json": "json", "--plain": "txt"}


def _run(path: Path, flag: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", str(path), flag]) in (0, 2)
    return out.getvalue()


def regenerate():
    for path in PROBLEMS:
        for flag, ext in FORMATS.items():
            (GOLDEN / ("%s.%s" % (path.stem, ext))).write_text(_run(path, flag))


def test_every_problem_has_golden_documents():
    want = {"%s.%s" % (p.stem, ext) for p in PROBLEMS for ext in FORMATS.values()}
    assert {p.name for p in GOLDEN.iterdir()} == want


@pytest.mark.parametrize("flag", FORMATS)
@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_document_matches_golden(path, flag):
    golden = GOLDEN / ("%s.%s" % (path.stem, FORMATS[flag]))
    want = golden.read_text()
    got = _run(path, flag)
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile=str(golden.relative_to(ROOT)),
            tofile="puiseux run %s %s" % (flag, path.name),
        )
        pytest.fail("document differs from golden:\n" + "".join(diff))
