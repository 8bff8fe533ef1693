from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from puiseux import WeightMatrix, term_value
from puiseux.values import sort_key
from tutils import identity, lp, small_rats


class TestValOrder:
    """Values are tuples compared lexicographically; None is infinity."""

    def test_equal(self):
        # canonical ints and their Fraction forms are one value
        assert identity(2).value_of((1, 0)) == (F(1), F(0))
        assert sort_key((1, 0)) == sort_key((F(1), F(0)))

    def test_lex_on_second_coordinate(self):
        assert sorted([(1, 0), None, (1, -5)], key=sort_key) == [(1, -5), (1, 0), None]

    def test_inf_greater_than_everything(self):
        assert sort_key(None) > sort_key((100, 100))
        assert min([None, (100, 100)], key=sort_key) == (100, 100)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            identity(2).value_of((1,))

    def test_addition_absorbs_inf(self):
        W = identity(2)
        t = lp(2, 2, (1, (1, 2), (1, 0))).terms[0]
        assert term_value(W, (None, (5, 5)), t) is None
        assert term_value(W, ((1, -1), None), t) == (2, 1)


class TestWeightMatrix:
    def test_identity_value(self):
        W = identity(2)
        assert W.value_of((0, 0)) == (0, 0)
        assert W.value_of((2, 1)) == (2, 1)

    def test_hand_product(self):
        W = WeightMatrix([[1, 1], [0, 1]])
        assert W.value_of((1, -1)) == (0, -1)

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
    assert w.value_of(s) == tuple(p + q for p, q in zip(w.value_of(a), w.value_of(b)))


@given(
    w=st.sampled_from(WS),
    a=st.tuples(small_rats, small_rats),
    b=st.tuples(small_rats, small_rats),
)
def test_distinct_exponents_never_tie(w, a, b):
    if a != b:
        assert w.value_of(a) != w.value_of(b)
