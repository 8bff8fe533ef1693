"""The generator parser against the plain-``Fraction`` oracle, and its errors."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from oracle_parser import parse_generator
from puiseux import ProblemError, parse_problem
from puiseux.problem import MAX_NESTING

X_NAMES = ("x1", "x2", "xb")
Y_NAMES = ("y1", "y2", "yb")


def _problem(xs, ys, expr: str) -> str:
    rows = "".join(
        "weight %s\n" % " ".join("1" if j == i else "0" for j in range(len(xs)))
        for i in range(len(xs))
    )
    return "vars %s\n%sgen %s\n" % (" ".join(xs + ys), rows, expr)


def _parse_both(xs, ys, expr: str):
    """(program, oracle) outcome of one expression: an LPoly or an error triple."""
    outcomes = []
    for parse in (
        lambda: parse_problem(_problem(xs, ys, expr)).gens[0],
        lambda: parse_generator("gen " + expr, len(xs) + 2, xs, ys),
    ):
        try:
            outcomes.append(parse())
        except ProblemError as e:
            outcomes.append((e.line, e.col, e.msg))
    return outcomes


def _exponent_types(poly):
    return [tuple(type(e) for e in t.xexp) for t in poly.terms]


_numbers = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda t: "%d/%d" % t),
)


@st.composite
def _factor(draw, xs, ys, depth):
    kind = draw(st.sampled_from(["num", "x", "y", "paren"] if depth else ["num", "x", "y"]))
    if kind == "num":
        return draw(_numbers) + draw(st.sampled_from(["", "", "^2", "^0"]))
    if kind == "x":
        exp = draw(
            st.one_of(
                st.sampled_from(["", "^0", "^3"]),
                st.tuples(st.integers(1, 5), st.integers(1, 4)).map(lambda t: "^(%d/%d)" % t),
                st.tuples(st.integers(1, 5), st.integers(1, 4)).map(lambda t: "^(-%d/%d)" % t),
                st.integers(1, 3).map(lambda k: "^(-%d)" % k),
            )
        )
        return draw(st.sampled_from(xs)) + exp
    if kind == "y":
        return draw(st.sampled_from(ys)) + draw(st.sampled_from(["", "^2", "^(3)", "^0"]))
    inner = draw(_expr(xs, ys, depth - 1))
    return "(" + inner + ")" + draw(st.sampled_from(["", "", "^2", "^0", "^(4/2)"]))


@st.composite
def _expr(draw, xs, ys, depth):
    out = draw(st.sampled_from(["", "-", "+", "- "]))
    for i in range(draw(st.integers(1, 3))):
        if i:
            out += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        out += draw(st.sampled_from(["*", " * "])).join(
            draw(_factor(xs, ys, depth)) for _ in range(draw(st.integers(1, 3)))
        )
    return out


@st.composite
def _generators(draw):
    xs = X_NAMES[: draw(st.integers(1, 3))]
    ys = Y_NAMES[: draw(st.integers(1, 3))]
    return xs, ys, draw(_expr(xs, ys, 2))


@seed(20261018)
@settings(max_examples=300)
@given(case=_generators())
def test_generators_parse_to_the_oracle_polynomial(case):
    xs, ys, expr = case
    got, want = _parse_both(xs, ys, expr)
    if not isinstance(want, tuple) and want.is_zero:
        want = (len(xs) + 2, 1, "generator is identically zero")
    assert got == want, expr
    if not isinstance(want, tuple):
        assert _exponent_types(got) == _exponent_types(want), expr
        assert all(
            type(e) is int for t in got.terms for e in t.xexp if e.denominator == 1
        ), expr


# every token kind, a stray character now and then
_SOUP = ["x1", "y1", "z1", "2", "1/2", "0", "+", "-", "*", "^", "(", ")"] * 3 + ["$", ".", "1/0"]


@st.composite
def _token_soup(draw):
    out = ""
    for tok in draw(st.lists(st.sampled_from(_SOUP), min_size=1, max_size=12)):
        gap = draw(st.sampled_from(["", " ", "\t ", "  "]))
        if out[-1:].isdigit() and tok[0].isdigit():
            gap = " "  # keep numbers small: no 2^2222
        out += gap + tok
    return out


@seed(20261018)
@settings(max_examples=400)
@given(expr=_token_soup())
def test_arbitrary_token_strings_fail_or_parse_like_the_oracle(expr):
    got, want = _parse_both(("x1",), ("y1",), expr)
    if not isinstance(want, tuple) and want.is_zero:
        want = (3, 1, "generator is identically zero")
    assert got == want, expr


HEAD = "vars x1 x2 y1 y2\nweight 1 0\nweight 0 1\n"

# (lines after HEAD, line, column, message)
ERRORS = [
    ("gen y1 $ x1", 4, 8, "unexpected character '$'"),
    ("gen y1 + 2.5*x1", 4, 11, "unexpected character '.'"),
    ("  gen\ty1 = x1", 4, 10, "unexpected character '='"),
    ("gen y1 + x1 # ok\ngen y2 ; x2", 5, 8, "unexpected character ';'"),
    ("gen y1 x1", 4, 8, "unexpected 'x1'"),
    ("gen y1)", 4, 7, "unexpected ')'"),
    ("gen x1^2^3", 4, 9, "unexpected '^'"),
    ("gen y1 - x1 x2", 4, 13, "unexpected 'x2'"),
    ("gen y1^(1/2) - x1", 4, 8, "rational or negative exponents need a bare x variable"),
    ("gen (x1)^(-1) + y1", 4, 10, "rational or negative exponents need a bare x variable"),
    ("gen y1 + 2^(1/2)", 4, 12, "rational or negative exponents need a bare x variable"),
    ("gen y2^(-1) + x1", 4, 8, "rational or negative exponents need a bare x variable"),
    ("gen x1*(y1 + x2)^(3/2)", 4, 18, "rational or negative exponents need a bare x variable"),
    ("gen y1 - x1^(y1)", 4, 14, "expected a number in the exponent"),
    ("gen y1 - x1^(-)", 4, 15, "expected a number in the exponent"),
    ("gen y1 - x1^(", 4, 1, "expected a number in the exponent"),
    ("gen y1 - x1^(--1)", 4, 15, "expected a number in the exponent"),
    ("gen y1 - x1^(1/2", 4, 14, "unclosed exponent parenthesis"),
    ("gen y1 - x1^(1 y1)", 4, 14, "unclosed exponent parenthesis"),
    ("gen y1 - x1^(-1", 4, 15, "unclosed exponent parenthesis"),
    ("gen y1 - x1^", 4, 1, "expected an exponent"),
    ("gen y1 - x1^y1", 4, 13, "expected an exponent"),
    ("gen y1 - x1^-1", 4, 13, "expected an exponent"),
    ("gen y1 - z1", 4, 10, "unknown variable 'z1'"),
    ("gen y1 + y3*x1", 4, 10, "unknown variable 'y3'"),
    ("gen (y1 + x1", 4, 5, "unclosed parenthesis"),
    ("gen (y1 x1)", 4, 9, "unclosed parenthesis"),
    ("gen ((y1) - x1", 4, 5, "unclosed parenthesis"),
    ("gen y1 + + x1", 4, 10, "expected a number, variable or parenthesis"),
    ("gen *y1", 4, 5, "expected a number, variable or parenthesis"),
    ("gen y1 +", 4, 1, "expected a number, variable or parenthesis"),
    ("gen ()", 4, 6, "expected a number, variable or parenthesis"),
    ("gen y1 * )", 4, 10, "expected a number, variable or parenthesis"),
    ("gen y1 - x1 # c\ngen y2 -  # dangling", 5, 1, "expected a number, variable or parenthesis"),
    ("gen x1 - x1", 4, 1, "generator is identically zero"),
    ("gen", 4, 1, "empty generator"),
    ("gen (y1 - y1)^2 + 0*x2", 4, 1, "generator is identically zero"),
    ("gen 0^0 - 1", 4, 1, "generator is identically zero"),
    ("gen y1 - 1/0*x1", 4, 10, "zero denominator in '1/0'"),
    ("gen y1 - x1^(1/0)", 4, 14, "zero denominator in '1/0'"),
    ("weight 1/0", 4, 8, "zero denominator in '1/0'"),
    ("gen y1 x1\nweight 1/0", 4, 8, "unexpected 'x1'"),
    ("weight 1.5 0", 4, 9, "unexpected character '.'"),
    ("vars x3 $", 4, 9, "unexpected character '$'"),
    ("opt max_terms 0", 4, 15, "max_terms needs a positive integer"),
    ("opt max_branches 0", 4, 18, "max_branches needs a positive integer"),
    ("opt max_terms 1/2", 4, 15, "max_terms needs a positive integer"),
    ("opt positive_only maybe", 4, 19, "positive_only is true or false"),
    ("opt bogus 3", 4, 5, "unknown option 'bogus'"),
    ("opt max_terms", 4, 1, "expected: opt <name> <value>"),
    ("opt max_terms 3\nopt max_terms 4", 5, 5, "duplicate option 'max_terms'"),
    ("opt positive_only true\n#\nopt  positive_only 1", 6, 6, "duplicate option 'positive_only'"),
    ("weight \u0661 0", 4, 8, "unexpected character '\u0661'"),
    ("gen y1^\u0662 - x1", 4, 8, "unexpected character '\u0662'"),
    ("gen \u0663*x1 - y1", 4, 5, "unexpected character '\u0663'"),
    ("opt max_terms \u0664", 4, 15, "unexpected character '\u0664'"),
]


@pytest.mark.parametrize("lines,line,col,msg", ERRORS)
def test_parse_errors_keep_their_position_and_message(lines, line, col, msg):
    with pytest.raises(ProblemError) as err:
        parse_problem(HEAD + lines + "\n")
    assert (err.value.line, err.value.col, err.value.msg) == (line, col, msg)


# (whole file, line, column, message): a vars line must name an x and a y
VARS_ERRORS = [
    ("vars\nvars x1 y1\nweight 1\ngen y1 - x1\n", 1, 1, "vars needs at least one x and one y variable"),
    ("vars y1\nweight 1\ngen y1 - x1\n", 1, 1, "vars needs at least one x and one y variable"),
    ("# x only\n  vars x1 x2\nweight 1 0\n", 2, 3, "vars needs at least one x and one y variable"),
    ("vars x1 y1\nvars x2 y2\n", 2, 1, "duplicate vars line"),
    ("weight 1\nvars x1 y1\n", 1, 1, "weight before vars"),
    ("gen y1 - x1\nvars x1 y1\n", 1, 1, "gen before vars"),
    ("# no vars line\n", 1, 1, "need at least one x and one y variable"),
]


@pytest.mark.parametrize("text,line,col,msg", VARS_ERRORS)
def test_a_vars_line_names_an_x_and_a_y(text, line, col, msg):
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col, err.value.msg) == (line, col, msg)


def test_one_leading_byte_order_mark_is_skipped():
    """A file saved with a UTF-8 byte-order mark parses, and fails, as without
    it; a second mark is an unexpected character."""
    text = _problem(["x1", "x2"], ["y1"], "y1^2 - x1*x2")
    assert parse_problem("\ufeff" + text) == parse_problem(text)
    for lines, want in (
        (HEAD + "gen y1 - z1\n", (4, 10, "unknown variable 'z1'")),
        ("\ufeff" + text, (1, 1, "unexpected character '\\ufeff'")),
    ):
        with pytest.raises(ProblemError) as err:
            parse_problem("\ufeff" + lines)
        assert (err.value.line, err.value.col, err.value.msg) == want


def test_a_deeply_nested_generator_is_a_problem_error():
    """Nesting too deep for the recursive evaluator is reported at its line,
    and moderate nesting still parses."""
    nested = parse_problem(HEAD + "gen " + "(" * 100 + "y1 - x1" + ")" * 100 + "\n")
    assert nested == parse_problem(HEAD + "gen y1 - x1\n")
    with pytest.raises(ProblemError) as err:
        parse_problem(HEAD + "gen " + "(" * 3000 + "y1 - x1" + ")" * 3000 + "\n")
    assert (err.value.line, err.value.col, err.value.msg) == (4, 1, "generator is nested too deeply")


def _nested(depth: int) -> str:
    return HEAD + "gen " + "(" * depth + "y1 - x1" + ")" * depth + "\n"


def _beneath(frames: int, fn):
    """``fn()`` called under ``frames`` more Python frames."""
    return fn() if frames == 0 else _beneath(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 300])
def test_the_nesting_limit_does_not_move_with_the_callers_stack(frames):
    """``MAX_NESTING`` parentheses parse and one more is an error, at the top
    level as under a deep caller."""
    want = parse_problem(HEAD + "gen y1 - x1\n")
    assert _beneath(frames, lambda: parse_problem(_nested(MAX_NESTING))) == want
    with pytest.raises(ProblemError) as err:
        _beneath(frames, lambda: parse_problem(_nested(MAX_NESTING + 1)))
    assert (err.value.line, err.value.col, err.value.msg) == (4, 1, "generator is nested too deeply")
