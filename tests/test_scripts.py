"""The command-line scripts under scripts/, run as a user runs them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ROOT,
        timeout=120,
    )


def test_residual_growth_rejects_a_nonpositive_max_terms():
    for value in ("0", "-2"):
        done = _script("residual_growth.py", "problems/cusp.txt", "--max-terms", value)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "--max-terms: max_terms must be at least 1" in done.stderr


def _one_error_line(done, text):
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "residual_growth: %s\n" % text


def test_residual_growth_reports_an_unreadable_file(tmp_path):
    missing = tmp_path / "missing.txt"
    done = _script("residual_growth.py", missing)
    _one_error_line(done, "cannot read %s: No such file or directory" % missing)


def test_residual_growth_reports_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"vars x1 y1\nweight 1\ngen y1 - x1 # caf\xe9\n")
    done = _script("residual_growth.py", bad)
    _one_error_line(done, "cannot read %s: not UTF-8 text" % bad)


def test_residual_growth_reports_a_problem_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars y1\nweight 1\ngen y1\n")
    done = _script("residual_growth.py", bad)
    _one_error_line(done, "%s: line 1, col 1: vars needs at least one x and one y variable" % bad)


def test_residual_growth_reports_a_run_over_its_budget():
    done = _script("residual_growth.py", "problems/nodal_cubic.txt", "--max-terms", "40")
    _one_error_line(done, "more than 64 expansion steps; raise max_branches")


def test_residual_growth_prints_the_table():
    done = _script("residual_growth.py", "problems/cusp.txt", "--max-terms", "2")
    assert done.returncode == 0
    assert done.stdout.startswith("branch 1 (")
    assert "1 term(s): residual order" in done.stdout


def test_compare_outputs_of_a_checkout_with_itself():
    done = _script("compare_outputs.py", ROOT, ROOT, "--problem", ROOT / "problems" / "cusp.txt")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["parent", "change", "identical"]
    digests = [line.split("sha256 ")[1].split()[0] for line in lines[:2]]
    assert digests[0] == digests[1] and len(digests[0]) == 64
    # 4 depths x 2 formats, and one check per JSON document
    assert "(12 runs)" in lines[0]


def test_compare_outputs_digest_does_not_depend_on_where_the_problems_live(tmp_path):
    digests = set()
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        problem = tmp_path / name / "cusp.txt"
        problem.write_text((ROOT / "problems" / "cusp.txt").read_text())
        done = _script("compare_outputs.py", ROOT, ROOT, "--problem", problem)
        assert done.returncode == 0, done.stderr
        digests.update(line.split("sha256 ")[1].split()[0] for line in done.stdout.splitlines()[:2])
    assert len(digests) == 1


def test_compare_outputs_names_the_first_differing_run():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPTS / "compare_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    a = [[["run", "p", "--json"], 0, "x", ""], [["check", "p", "<solution>"], 0, "ok", ""]]
    b = [a[0], [["check", "p", "<solution>"], 1, "ok", "bad"]]
    assert mod.first_difference(a, a) is None
    assert mod.first_difference(a, b) == "puiseux check p <solution>: exit code, stderr differs"
    assert mod.first_difference(a, a[:1]) == "run counts differ: 2 and 1"


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = (
        1,

        2,
    )

    def f(self):
        """Function
        docstring."""
        s = """not a
docstring"""
        return s


"a string statement that is not first"
'''


def test_code_lines_counts_code_not_blanks_comments_or_docstrings(tmp_path):
    # 11 code lines: import, class, the four non-blank lines of x, def, the
    # two lines of s, return, and the string statement that is no docstring
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE)
    (tmp_path / "empty.py").write_text("# nothing\n\n")
    done = _script("code_lines.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "     0 %s" % (tmp_path / "empty.py"),
        "    11 %s" % path,
        "    11 total",
    ]


def test_run_corpus_prints_one_aligned_line_per_problem():
    done = _script("run_corpus.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    names = sorted(path.name for path in (ROOT / "problems").glob("*.txt"))
    assert [line.split()[0] for line in lines] == names
    width = max(map(len, names))
    for line in lines:
        assert line[width:].startswith(" exit="), line
