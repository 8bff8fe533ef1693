import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from puiseux import ProblemError, parse_problem, render_poly
from puiseux.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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

    def test_malformed_solution_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["check", str(PROBLEMS / "cusp.txt"), str(bad)])
        assert rc == 1


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
