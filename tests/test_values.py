import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed

from puiseux import WeightMatrix
from puiseux.values import primitive_ints, sort_key
from tutils import identity, lp, small_rats, term_value, value_of


class TestValOrder:
    """Values are tuples compared lexicographically; None is infinity."""

    def test_equal(self):
        # canonical ints and their Fraction forms are one value
        assert value_of(identity(2), (1, 0)) == (F(1), F(0))
        assert sort_key((1, 0)) == sort_key((F(1), F(0)))

    def test_lex_on_second_coordinate(self):
        assert sorted([(1, 0), None, (1, -5)], key=sort_key) == [(1, -5), (1, 0), None]

    def test_inf_greater_than_everything(self):
        assert sort_key(None) > sort_key((100, 100))
        assert min([None, (100, 100)], key=sort_key) == (100, 100)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            value_of(identity(2), (1,))

    def test_addition_absorbs_inf(self):
        W = identity(2)
        t = lp(2, 2, (1, (1, 2), (1, 0))).terms[0]
        assert term_value(W, (None, (5, 5)), t) is None
        assert term_value(W, ((1, -1), None), t) == (2, 1)


class TestWeightMatrix:
    def test_identity_value(self):
        W = identity(2)
        assert value_of(W, (0, 0)) == (0, 0)
        assert value_of(W, (2, 1)) == (2, 1)

    def test_hand_product(self):
        W = WeightMatrix([[1, 1], [0, 1]])
        assert value_of(W, (1, -1)) == (0, -1)

    def test_entries_are_canonical(self):
        W = WeightMatrix([[F(2), F(1, 2)], [F(1), -1]])
        assert W.rows == ((2, F(1, 2)), (1, -1))
        assert [type(e) for row in W.rows for e in row] == [int, F, int, int]

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix([[1, 2], [2, 4]])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix([[1, 0]])


WS = [
    identity(2),
    WeightMatrix([[1, 1], [0, 1]]),
    WeightMatrix([[2, 3], [1, 1], [0, 5]]),
]


@given(
    w=st.sampled_from(WS),
    a=st.tuples(small_rats, small_rats),
    b=st.tuples(small_rats, small_rats),
)
def test_value_of_is_linear(w, a, b):
    s = tuple(x + y for x, y in zip(a, b))
    assert value_of(w, s) == tuple(p + q for p, q in zip(value_of(w, a), value_of(w, b)))


@given(
    w=st.sampled_from(WS),
    a=st.tuples(small_rats, small_rats),
    b=st.tuples(small_rats, small_rats),
)
def test_distinct_exponents_never_tie(w, a, b):
    if a != b:
        assert value_of(w, a) != value_of(w, b)


# int and Fraction entries, zeros included, with at least one nonzero entry
# unless the list is empty
_rationals = st.one_of(
    st.integers(-10**6, 10**6), st.fractions(-10**4, 10**4, max_denominator=10**4)
)
_coeff_lists = st.lists(_rationals, max_size=6).filter(lambda cs: not cs or any(cs))


@seed(20261019)
@given(coeffs=_coeff_lists)
def test_primitive_ints_is_a_positive_multiple_with_coprime_integers(coeffs):
    got = primitive_ints(coeffs)
    assert all(type(a) is int for a in got)
    assert len(got) == len(coeffs)
    if not coeffs:
        return
    assert math.gcd(*got) == 1
    # one positive ratio between the input and the output, zeros kept
    assert [a == 0 for a in got] == [c == 0 for c in coeffs]
    ratios = {F(c) / a for a, c in zip(got, coeffs) if a}
    assert len(ratios) == 1 and ratios.pop() > 0


def test_primitive_ints_examples():
    assert primitive_ints([]) == []
    assert primitive_ints([F(-1, 2), F(3, 4), 0]) == [-2, 3, 0]
    assert primitive_ints([-6, 4]) == [-3, 2]
