"""Known wrong answers on multi-y systems, each pinned by a strict xfail.

The candidates and their coefficients come from the initial forms of the
given generators, not from the initial ideal of the ideal they generate.
So the answer can depend on the generating set, a false truncation can be
emitted, and a first step can retire a coordinate on which no branch lies.
Each test below states the right answer; it passes once the expansion
works with the ideal, and the strict xfail then fails to say so.  The
extension test runs on every problem file, and its strict xfails name the
problems on which a truncation does not extend today.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from puiseux import expand, parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _expand(stem, max_terms=None):
    spec = parse_problem((PROBLEMS / (stem + ".txt")).read_text())
    opts = spec.options if max_terms is None else replace(spec.options, max_terms=max_terms)
    return expand(spec.gens, spec.weights, opts)


def _solutions(res):
    return sorted((s.coords, s.exact, s.ramification) for s in res.solutions)


@pytest.mark.xfail(strict=True, reason="candidates come from the generators, not the ideal")
@pytest.mark.parametrize(
    "first, second",
    [
        ("ideal_sum_set", "ideal_simple_set"),
        ("ideal_g1g2", "ideal_g1g2_lex"),
        ("spurious_retire", "spurious_retire_mixed"),
    ],
    ids=["sum", "lex_basis", "mixed"],
)
def test_generating_sets_of_one_ideal_give_the_same_solutions(first, second):
    a, b = _solutions(_expand(first)), _solutions(_expand(second))
    assert a and a == b


# spurious_retire emits one truncated solution at 8 terms, whose step 7
# retires y3, and none at 10 terms: that branch dies at step 8 with no
# rational torus solution.
@pytest.mark.xfail(strict=True, reason="a retirement is accepted without the ideal's consent")
@pytest.mark.parametrize(
    "stem, short_terms, long_terms",
    [("false_truncation", 3, 5), ("spurious_retire", 8, 10)],
    ids=["false_truncation", "spurious_retire"],
)
def test_every_truncation_extends_two_terms_further(stem, short_terms, long_terms):
    short = _expand(stem, short_terms)
    longer = _expand(stem, long_terms)
    assert short.solutions
    for s in short.solutions:
        assert s.exact or any(
            t.trace[: len(s.trace)] == s.trace for t in longer.solutions
        ), "truncation %s is no prefix of a %d-term solution" % (s.coords, long_terms)


@pytest.mark.xfail(strict=True, reason="I + <y3> has no branch, but step 0 retires y3")
def test_no_first_step_retires_a_coordinate_without_branches():
    res = _expand("spurious_retire")
    traces = [s.trace for s in res.solutions] + [d.trace for d in res.dead_branches]
    assert all(t[0].eta[2] is not None for t in traces if t)


# Problems with a truncation that is neither exact nor the start of a
# solution two terms further: the false truncation, and a first step that
# retires a coordinate without the ideal's consent.
NO_EXTENSION = {"false_truncation", "ideal_g1g2_lex", "spurious_retire", "spurious_retire_mixed"}


@pytest.mark.parametrize(
    "stem",
    [
        pytest.param(
            p.stem,
            marks=pytest.mark.xfail(strict=True, reason="a truncation that does not extend")
            if p.stem in NO_EXTENSION
            else (),
        )
        for p in sorted(PROBLEMS.glob("*.txt"))
    ],
)
def test_every_corpus_truncation_extends_two_terms_further(stem):
    # the spurious_* systems are the slowest; 7 terms cover their failures
    for d in range(1, 6 if stem.startswith("spurious_") else 7):
        longer = _expand(stem, d + 2).solutions
        for s in _expand(stem, d).solutions:
            assert s.exact or any(t.trace[: len(s.trace)] == s.trace for t in longer), (
                "%d-term truncation %s is no prefix of a %d-term solution" % (d, s.coords, d + 2)
            )
