from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from puiseux import INF, Val, WeightMatrix
from tutils import small_rats


class TestValOrder:
    def test_equal(self):
        assert Val((1, 0)) == Val((1, 0))

    def test_lex_on_second_coordinate(self):
        assert Val((1, -5)) < Val((1, 0))

    def test_inf_greater_than_everything(self):
        assert INF > Val((100, 100))
        assert not INF < Val((100, 100))
        assert INF == INF

    def test_total_order_helpers(self):
        assert Val((0, 1)) <= Val((1, 0))
        assert Val((1, 0)) >= Val((0, 1))
        assert Val((2,)) != Val((3,))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Val((1,)) < Val((1, 2))

    def test_addition_absorbs_inf(self):
        assert (INF + Val((1, 2))).is_inf
        assert Val((1, 2)) + Val((1, -1)) == Val((2, 1))

    def test_scale(self):
        assert Val((1, F(1, 2))).scale(2) == Val((2, 1))
        assert INF.scale(3).is_inf
        assert INF.scale(-2).is_inf
        with pytest.raises(ValueError):
            INF.scale(0)

    def test_positive(self):
        assert Val((0, 1)).is_positive()
        assert not Val((0, 0)).is_positive()
        assert not Val((0, -1)).is_positive()
        assert INF.is_positive()


class TestWeightMatrix:
    def test_identity_value(self):
        W = WeightMatrix.identity(2)
        assert W.value_of((0, 0)) == Val((0, 0))
        assert W.value_of((2, 1)) == Val((2, 1))

    def test_hand_product(self):
        W = WeightMatrix([[1, 1], [0, 1]])
        assert W.value_of((1, -1)) == Val((0, -1))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix([[1, 2], [2, 4]])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix([[1, 0]])


WS = [
    WeightMatrix.identity(2),
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
    assert w.value_of(s) == w.value_of(a) + w.value_of(b)


@given(
    w=st.sampled_from(WS),
    a=st.tuples(small_rats, small_rats),
    b=st.tuples(small_rats, small_rats),
)
def test_distinct_exponents_never_tie(w, a, b):
    if a != b:
        assert w.value_of(a) != w.value_of(b)
