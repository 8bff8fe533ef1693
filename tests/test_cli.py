import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed

from puiseux import ProblemError, expand, parse_problem, render_poly
from puiseux.cli import json_text, main
from puiseux.problem import run_document, val_str

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestParser:
    def test_minimal_problem(self):
        spec = parse_problem("vars x1 x2 y1\nweight 1 0\nweight 0 1\ngen y1^2 - x1*x2\n")
        assert spec.nx == 2 and spec.ny == 1
        from tutils import lp

        want = lp(2, 1, (1, (F(0), F(0)), (2,)), (-1, (F(1), F(1)), (0,)))
        assert spec.gens == (want,)

    def test_zero_generator_rejected(self):
        with pytest.raises(ProblemError, match="identically zero"):
            parse_problem("vars x1 y1\nweight 1\ngen 0\n")

    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(ProblemError, match="rank"):
            parse_problem("vars x1 x2 y1\nweight 1 2\nweight 2 4\ngen y1 - x1\n")

    def test_unknown_variable(self):
        with pytest.raises(ProblemError, match="unknown variable 'z1'"):
            parse_problem("vars x1 y1\nweight 1\ngen y1 - z1\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ProblemError) as err:
            parse_problem("vars x1 y1\nweight 1\ngen y1 + + x1\n")
        assert err.value.line == 3

    def test_fractional_exponents(self):
        spec = parse_problem("vars x1 y1\nweight 1\ngen y1 - x1^(1/2) - x1^(-1)\n")
        exps = sorted(t.xexp[0] for t in spec.gens[0].terms)
        assert exps == [F(-1), F(0), F(1, 2)]

    def test_rational_exponent_needs_x_variable(self):
        with pytest.raises(ProblemError, match="bare x variable"):
            parse_problem("vars x1 y1\nweight 1\ngen y1^(1/2) - x1\n")

    def test_parenthesized_products(self):
        spec = parse_problem(
            "vars x1 y1\nweight 1\ngen (y1 - x1)*(y1 - 2*x1) + x1^3\n"
        )
        direct = parse_problem(
            "vars x1 y1\nweight 1\ngen y1^2 - 3*x1*y1 + 2*x1^2 + x1^3\n"
        )
        assert spec.gens == direct.gens

    def test_options_parsed(self):
        spec = parse_problem(
            "vars x1 y1\nweight 1\ngen y1 - x1\n"
            "opt max_terms 7\nopt max_branches 9\nopt positive_only false\n"
        )
        assert spec.options.max_terms == 7
        assert spec.options.max_branches == 9
        assert spec.options.positive_only is False

    def test_comments_and_blank_lines(self):
        spec = parse_problem("# header\n\nvars x1 y1  # trailing\nweight 1\ngen y1 - x1\n")
        assert spec.nx == 1

    def test_render_round_trip(self):
        text = "vars x1 x2 y1 y2\nweight 1 0\nweight 0 1\ngen y1^2 - 3*x1^(1/2)*y2 + 2*x2^(-1)\n"
        spec = parse_problem(text)
        rendered = render_poly(spec.gens[0], spec.x_names, spec.y_names)
        again = parse_problem(
            "vars x1 x2 y1 y2\nweight 1 0\nweight 0 1\ngen %s\n" % rendered
        )
        assert again.gens == spec.gens


class TestRunCommand:
    def test_run_nodal_cubic(self, capsys):
        rc = main(["run", str(PROBLEMS / "nodal_cubic.txt"), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert len(doc["solutions"]) == 2
        for sol in doc["solutions"]:
            assert len(sol["coordinates"][0]["terms"]) == 4

    def test_run_exact_with_ramification(self, capsys):
        rc = main(["run", str(PROBLEMS / "surface_sqrt.txt"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [s["exact"] for s in doc["solutions"]] == [True, True]
        assert [s["ramification"] for s in doc["solutions"]] == [2, 2]
        assert all(s["residual_order"] == "inf" for s in doc["solutions"])

    def test_run_no_solutions_exit_code(self, capsys):
        rc = main(["run", str(PROBLEMS / "irrational_branch.txt"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert doc["status"] == "no-solutions"
        assert doc["dead_branches"]
        assert doc["notes"]["irrational_roots_detected"] is True

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("vars x1 y1\nweight 1\ngen 0\n")
        rc = main(["run", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "identically zero" in err

    def test_missing_file_exit_code(self, capsys):
        rc = main(["run", "does/not/exist.txt"])
        assert rc == 1

    def test_cli_overrides(self, capsys):
        rc = main(
            ["run", str(PROBLEMS / "nodal_cubic.txt"), "--max-terms", "2", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert all(len(s["coordinates"][0]["terms"]) == 2 for s in doc["solutions"])

    def test_positive_only_flag_unlocks_constant_terms(self, tmp_path, capsys):
        prob = tmp_path / "const.txt"
        prob.write_text("vars x1 y1\nweight 1\ngen y1^2 - 3*y1 + 2 + x1\nopt max_terms 3\n")
        rc = main(["run", str(prob), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2 and not doc["solutions"]
        rc = main(["run", str(prob), "--no-positive-only", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        heads = sorted(s["coordinates"][0]["terms"][0]["coefficient"] for s in doc["solutions"])
        assert heads == ["1", "2"]

    def test_branch_budget_is_a_usage_error(self, capsys):
        rc = main(["run", str(PROBLEMS / "nodal_cubic.txt"), "--max-branches", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "max_branches" in err

    @pytest.mark.parametrize("flag", ["--max-terms", "--max-branches"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_budget_flag_is_a_usage_error(self, capsys, flag, value):
        rc = main(["run", str(PROBLEMS / "cusp.txt"), flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert flag in captured.err and "positive integer" in captured.err

    @pytest.mark.parametrize("flag", ["--max-terms", "--max-branches"])
    @pytest.mark.parametrize("value", ["\u0663", "1\u0662", "\uff13"])
    def test_non_ascii_digits_in_a_budget_flag_are_a_usage_error(self, capsys, flag, value):
        # Arabic-Indic and fullwidth digits, which int() would read as 3 and 12
        rc = main(["run", str(PROBLEMS / "cusp.txt"), flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert flag in captured.err and "positive integer" in captured.err

    def test_determinism_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            main(["run", str(PROBLEMS / "tangent_lines.txt"), "--json"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_plain_format_mentions_solutions(self, capsys):
        rc = main(["run", str(PROBLEMS / "cusp.txt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ramification 2" in out
        assert "x1^(3/2)" in out


class TestCheckCommand:
    def test_exact_solution_checks_to_infinity(self, tmp_path, capsys):
        main(["run", str(PROBLEMS / "surface_sqrt.txt"), "--json"])
        doc = capsys.readouterr().out
        sol_file = tmp_path / "sol.json"
        sol_file.write_text(doc)
        rc = main(["check", str(PROBLEMS / "surface_sqrt.txt"), str(sol_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("residual order infinity") == 2

    def test_tampered_solution_has_smaller_residual(self, tmp_path, capsys):
        main(["run", str(PROBLEMS / "surface_sqrt.txt"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        doc["solutions"][1]["coordinates"][0]["terms"][0]["coefficient"] = "2"
        sol_file = tmp_path / "tampered.json"
        sol_file.write_text(json.dumps(doc))
        rc = main(["check", str(PROBLEMS / "surface_sqrt.txt"), str(sol_file)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("infinity")
        assert lines[1].endswith("(1, 1)")  # finite, strictly below the exact one

    def test_truncated_solution_residual_reported(self, tmp_path, capsys):
        main(["run", str(PROBLEMS / "nodal_cubic.txt"), "--json"])
        doc = capsys.readouterr().out
        sol_file = tmp_path / "sol.json"
        sol_file.write_text(doc)
        rc = main(["check", str(PROBLEMS / "nodal_cubic.txt"), str(sol_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("residual order (6)") == 2

    def test_solution_document_round_trip(self, capsys):
        main(["run", str(PROBLEMS / "linear_chain.txt"), "--json"])
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc
        assert json.dumps(doc, indent=2) + "\n" == text

    def test_a_byte_order_mark_changes_no_run_and_no_check(self, tmp_path, capsys):
        """A problem file and a solution file saved with a UTF-8 byte-order
        mark run and check exactly like the same files without it."""
        outcomes = []
        for bom in (b"", b"\xef\xbb\xbf"):
            problem = tmp_path / ("problem%d.txt" % len(bom))
            problem.write_bytes(bom + (PROBLEMS / "nodal_cubic.txt").read_bytes())
            rc = main(["run", str(problem), "--json"])
            doc = capsys.readouterr()
            sol_file = tmp_path / ("sol%d.json" % len(bom))
            sol_file.write_bytes(bom + doc.out.encode("utf-8"))
            check_rc = main(["check", str(problem), str(sol_file)])
            outcomes.append((rc, doc, check_rc, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        rc, _, check_rc, check = outcomes[1]
        assert (rc, check_rc, check.out.count("residual order (6)")) == (0, 0, 2)

    @pytest.mark.parametrize(
        "problem, solution, message",
        [
            (b"# caf\xe9\n", b"{}", "cannot read {problem}: not UTF-8 text"),
            (b"", b"\xff\xfe{}", "cannot read {solution}: not UTF-8 text"),
            (b"", b"[" * 100000 + b"]" * 100000, "{solution}: invalid JSON: nested too deeply"),
            (
                b"",
                b'{"solutions": ' + b"[" * 100000 + b"]" * 100000 + b"}",
                "{solution}: invalid JSON: nested too deeply",
            ),
        ],
        ids=["problem-not-utf8", "solution-not-utf8", "nested-list", "nested-solutions"],
    )
    def test_an_unreadable_file_is_one_error_line(self, tmp_path, capsys, problem, solution, message):
        """A file that is not UTF-8 text, or JSON nested too deeply to load,
        ends ``check`` (and, for the problem file, ``run``) with one line."""
        problem_file = tmp_path / "problem.txt"
        problem_file.write_bytes((PROBLEMS / "cusp.txt").read_bytes() + problem)
        solution_file = tmp_path / "solution.json"
        solution_file.write_bytes(solution)
        want = "puiseux: %s\n" % message.format(problem=problem_file, solution=solution_file)
        commands = [["check", str(problem_file), str(solution_file)]]
        if problem:
            commands.append(["run", str(problem_file)])
        for argv in commands:
            rc = main(argv)
            assert (rc, capsys.readouterr()) == (1, ("", want))

    def test_malformed_solution_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["check", str(PROBLEMS / "cusp.txt"), str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("text", ["[1, 2]", '{"solutions": [5]}', "{}", '{"solution": []}'])
    def test_malformed_solution_document(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["check", str(PROBLEMS / "cusp.txt"), str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("puiseux: ") and "malformed" in err

    @pytest.mark.parametrize(
        "solution, message",
        [
            (5, "5 is not an object"),
            ({}, "missing field 'coordinates'"),
            ({"coordinates": 7}, "field 'coordinates' is not a list: 7"),
            ({"coordinates": [3]}, "3 is not an object"),
            ({"coordinates": [{"terms": []}]}, "missing field 'name'"),
            ({"coordinates": [{"name": "y1"}]}, "missing field 'terms'"),
            ({"coordinates": [{"name": "y1", "terms": "1"}]}, "field 'terms' is not a list: '1'"),
            ({"coordinates": [{"name": "y1", "terms": [[1]]}]}, "[1] is not an object"),
            (
                {"coordinates": [{"name": "y1", "terms": [{"exponent": ["1"]}]}]},
                "missing field 'coefficient'",
            ),
            (
                {"coordinates": [{"name": "y1", "terms": [{"coefficient": "1"}]}]},
                "missing field 'exponent'",
            ),
        ],
        ids=repr,
    )
    def test_a_malformed_solution_names_what_is_wrong(self, tmp_path, capsys, solution, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"solutions": [solution]}))
        rc = main(["check", str(PROBLEMS / "cusp.txt"), str(bad)])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (1, "", "puiseux: solution 1 is malformed: %s\n" % message)

    def _check_edited(self, tmp_path, capsys, stem, edit):
        """``check`` on the golden ``run`` document of ``stem`` with solution 1 edited."""
        doc = json.loads((GOLDEN / (stem + ".json")).read_text())
        edit(doc["solutions"][0])
        sol_file = tmp_path / "edited.json"
        sol_file.write_text(json.dumps(doc))
        rc = main(["check", str(PROBLEMS / (stem + ".txt")), str(sol_file)])
        return rc, capsys.readouterr()

    @pytest.mark.parametrize(
        "change",
        [
            {"coefficient": True, "exponent": [True]},
            {"coefficient": 0.5},
            {"coefficient": -1},
            {"coefficient": " -1 "},
            {"coefficient": "-1.0"},
            {"coefficient": "-1e0"},
            {"coefficient": "-\u0661"},  # ARABIC-INDIC DIGIT ONE
            {"exponent": ["3/0"]},
            {"exponent": "3"},
            {"exponent": ["3/2", "0"]},
        ],
        ids=repr,
    )
    def test_numbers_are_read_only_as_run_writes_them(self, tmp_path, capsys, change):
        def edit(sol):
            sol["coordinates"][0]["terms"][0].update(change)

        rc, (out, err) = self._check_edited(tmp_path, capsys, "cusp", edit)
        assert (rc, out) == (1, "")
        assert err.startswith("puiseux: solution 1 is malformed: ")

    @pytest.mark.parametrize(
        "stem, edit",
        [
            ("cusp", lambda sol: sol["coordinates"][0].update(name="zz")),
            ("linear_chain", lambda sol: sol["coordinates"].reverse()),
            ("linear_chain", lambda sol: sol["coordinates"].pop()),
        ],
        ids=["renamed", "swapped", "missing"],
    )
    def test_coordinates_are_named_in_y_order(self, tmp_path, capsys, stem, edit):
        rc, (out, err) = self._check_edited(tmp_path, capsys, stem, edit)
        assert (rc, out) == (1, "")
        assert err.startswith("puiseux: solution 1 is malformed: ")

    def test_an_equal_rational_written_otherwise_still_checks(self, tmp_path, capsys):
        def edit(sol):
            sol["coordinates"][0]["terms"][0].update(coefficient="-2/2", exponent=["6/4"])

        rc, (out, _) = self._check_edited(tmp_path, capsys, "cusp", edit)
        assert rc == 0
        assert out.count("residual order infinity") == 2


@pytest.mark.parametrize("doc", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_check_prints_the_residual_orders_of_the_run_document(doc, capsys):
    """``run`` and ``check`` agree on every corpus document, solution by solution."""
    sols = json.loads(doc.read_text())["solutions"]
    rc = main(["check", str(PROBLEMS / (doc.stem + ".txt")), str(doc)])
    orders = [s["residual_order"] for s in sols]
    want = [
        "solution %d: residual order %s" % (i, "infinity" if v == "inf" else val_str(v))
        for i, v in enumerate(orders, start=1)
    ]
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == (want or ["no solutions in file"])


# strings with quotes, backslashes, control characters and non-ASCII
_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\U0001f600'), st.characters()))
_documents = st.recursive(
    st.one_of(_strings, st.integers(), st.integers(-(2**80), 2**80), st.booleans()),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(_strings, kids, max_size=4)
    ),
    max_leaves=25,
)


class TestJsonText:
    def test_corpus_documents_match_json_dumps(self):
        for path in sorted(PROBLEMS.glob("*.txt")):
            spec = parse_problem(path.read_text())
            doc = run_document(spec, expand(spec.gens, spec.weights, spec.options), spec.options)
            assert json_text(doc) == json.dumps(doc, indent=2), path.name

    @seed(20261018)
    @given(doc=_documents)
    def test_nested_documents_match_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc", [F(1, 2), {"a": [1, F(3)]}, [0.5], {"x": None}, {1: "a"}], ids=repr
    )
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)


MAIN_ALONE = "import sys; from puiseux.cli import main; sys.exit(main(sys.argv[1:]))"


def test_successive_main_calls_match_separate_processes(tmp_path, capsys):
    """One process reuses the parser; each call must still start from the defaults."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    problem = str(PROBLEMS / "nodal_cubic.txt")
    sol_file = tmp_path / "sol.json"
    calls = [
        ["run", problem, "--json", "--max-terms", "2", "--no-positive-only"],
        ["run", problem],
        ["check", problem, str(sol_file)],
    ]
    for argv in calls:
        rc = main(argv)
        out = capsys.readouterr().out
        if "--json" in argv:
            sol_file.write_text(out)
        alone = subprocess.run(
            [sys.executable, "-c", MAIN_ALONE, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (rc, out) == (alone.returncode, alone.stdout)


@pytest.mark.parametrize("stem, code", [("cusp", 0), ("irrational_branch", 2)])
def test_module_entry_point_matches_main(stem, code, capsys):
    """``python -m puiseux`` prints what ``main`` prints and exits with its code."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["run", str(PROBLEMS / (stem + ".txt")), "--json"]
    rc = main(argv)
    out = capsys.readouterr().out
    done = subprocess.run(
        [sys.executable, "-m", "puiseux", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert rc == code
    assert (done.returncode, done.stdout) == (rc, out)
