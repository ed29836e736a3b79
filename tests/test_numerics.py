"""Exact rational parsing and interval arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorsq import Interval, IntervalUnion, rat
from cantorsq.numerics import (
    OpenInterval,
    box_sum_of_squares_image,
    decimal_preview,
)


class TestRat:
    def test_fraction_string(self):
        assert rat("7/13") == Fraction(7, 13)
        assert rat("-2/3") == Fraction(-2, 3)

    def test_integer_forms(self):
        assert rat(5) == Fraction(5)
        assert rat("5") == Fraction(5)
        assert rat(Fraction(2, 3)) == Fraction(2, 3)

    def test_terminating_decimal_is_exact(self):
        assert rat("0.125") == Fraction(1, 8)
        assert rat("2.5") == Fraction(5, 2)

    def test_float_rejected(self):
        # floats carry binary rounding; exactness is the whole point
        with pytest.raises(TypeError):
            rat(0.5)

    @pytest.mark.parametrize("bad", ["abc", "1/0", "", "1/2/3"])
    def test_bad_strings(self, bad):
        with pytest.raises(ValueError):
            rat(bad)


class TestDecimalPreview:
    def test_repeating(self):
        assert decimal_preview(Fraction(1, 3)) == "0." + "3" * 30

    def test_known_expansion(self):
        assert decimal_preview(Fraction(55, 81)) == (
            "0.679012345679012345679012345679"
        )

    def test_terminating(self):
        assert decimal_preview(Fraction(1, 4)) == "0.25"

    def test_digit_count(self):
        assert decimal_preview(Fraction(1, 7), digits=5) == "0.14286"


class TestInterval:
    def test_coercion_and_validation(self):
        iv = Interval("1/2", "3/4")
        assert iv.lo == Fraction(1, 2) and iv.hi == Fraction(3, 4)
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_length_and_membership(self):
        iv = Interval(Fraction(1, 3), Fraction(2, 3))
        assert iv.length() == Fraction(1, 3)
        assert iv.contains_value(Fraction(1, 3))
        assert iv.contains_value(Fraction(2, 3))
        assert not iv.contains_value(Fraction(3, 4))
        assert iv.contains(Interval(Fraction(2, 5), Fraction(1, 2)))
        assert not iv.contains(Interval(0, 1))

    def test_intersects_includes_touching(self):
        assert Interval(0, 1).intersects(Interval(1, 2))
        assert not Interval(0, 1).intersects(Interval(2, 3))

    def test_scaled_negative_swaps_endpoints(self):
        assert Interval(1, 2).scaled(-2) == Interval(-4, -2)
        assert Interval(1, 2).scaled(0) == Interval(0, 0)

    def test_translated(self):
        assert Interval(1, 2).translated(Fraction(-1, 2)) == Interval(
            Fraction(1, 2), Fraction(3, 2)
        )

    def test_json_roundtrip(self):
        iv = Interval(Fraction(8, 9), Fraction(19, 9))
        assert iv.to_json() == ["8/9", "19/9"]
        assert Interval.from_json(iv.to_json()) == iv


class TestIntervalUnion:
    def test_normalization_merges_touching(self):
        u = IntervalUnion([Interval(1, 2), Interval(0, 1)])
        assert len(u) == 1
        assert u.parts[0] == Interval(0, 2)

    def test_overlap_merge(self):
        u = IntervalUnion(
            [Interval(Fraction(8, 9), Fraction(19, 9)), Interval(Fraction(4, 3), 3)]
        )
        assert u.parts == (Interval(Fraction(8, 9), 3),)

    def test_disjoint_stay_sorted(self):
        u = IntervalUnion([Interval(2, 3), Interval(0, 1)])
        assert [p.lo for p in u] == [0, 2]

    def test_membership(self):
        u = IntervalUnion([Interval(0, 1), Interval(2, 3)])
        assert u.contains(Interval(0, 1))
        assert u.contains(Interval(Fraction(5, 2), 3))
        assert not u.contains(Interval(1, 2))  # spans the gap
        assert u.contains_value(1)
        assert not u.contains_value(Fraction(3, 2))

    def test_contains_union(self):
        big = IntervalUnion([Interval(0, 4)])
        small = IntervalUnion([Interval(1, 2), Interval(3, 4)])
        assert big.contains_union(small)
        assert not small.contains_union(big)

    def test_scale(self):
        u = IntervalUnion([Interval(0, 1), Interval(2, 3)])
        assert u.scale(-1).parts == (Interval(-3, -2), Interval(-1, 0))
        assert u.scale(0).parts == (Interval(0, 0),)
        assert IntervalUnion().scale(0).is_empty

    def test_measure_and_hull(self):
        u = IntervalUnion([Interval(0, 1), Interval(2, 4)])
        assert u.measure() == 3
        assert u.hull() == Interval(0, 4)
        assert IntervalUnion().measure() == 0

    def test_json_roundtrip(self):
        u = IntervalUnion([Interval(0, Fraction(1, 9)), Interval(Fraction(4, 9), 1)])
        data = u.to_json()
        assert data == [["0", "1/9"], ["4/9", "1"]]
        assert IntervalUnion.from_json(data).parts == u.parts
        assert IntervalUnion.from_json([]).is_empty


class TestFromMerged:
    """``IntervalUnion._from_merged``: int pairs already in normal form,
    over one denominator, checked once and never merged again."""

    def test_matches_the_normalizing_constructor(self):
        pairs = [(-3, 0), (2, 2), (4, 9)]
        union = IntervalUnion._from_merged(pairs, 6)
        assert union == IntervalUnion(
            Interval(Fraction(lo, 6), Fraction(hi, 6)) for lo, hi in pairs)
        assert union.parts[2] == Interval(Fraction(2, 3), Fraction(3, 2))
        assert union.contains_value(Fraction(1, 3))
        assert not union.contains_value(Fraction(1, 6))
        assert IntervalUnion._from_merged([], 7).is_empty

    @pytest.mark.parametrize("pairs", [
        [(2, 3), (0, 1)],          # unsorted
        [(0, 1), (1, 2)],          # touching
        [(0, 2), (1, 3)],          # overlapping
        [(0, 1), (2, 5), (4, 6)],  # overlapping further on
        [(3, 1)],                  # reversed part
    ])
    def test_rejects_parts_out_of_normal_form(self, pairs):
        with pytest.raises(ValueError):
            IntervalUnion._from_merged(pairs, 3)


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@given(st.lists(st.tuples(fractions, fractions), max_size=12))
def test_measure_is_the_sum_of_lengths(ends):
    """The integer sum over a common denominator equals the Fraction sum
    of the merged parts' lengths."""
    union = IntervalUnion(Interval(min(a, b), max(a, b)) for a, b in ends)
    assert union.measure() == sum((p.hi - p.lo for p in union), Fraction(0))


class TestBoxSumOfSquares:
    def test_three_coordinate_example(self):
        box = (
            Interval(0, Fraction(1, 3)),
            Interval(Fraction(2, 3), 1),
            Interval(Fraction(2, 3), 1),
        )
        assert box_sum_of_squares_image(box) == Interval(
            Fraction(8, 9), Fraction(19, 9)
        )

    def test_level_two_example(self):
        box = (
            Interval(Fraction(2, 9), Fraction(1, 3)),
            Interval(Fraction(2, 9), Fraction(1, 3)),
            Interval(Fraction(2, 3), Fraction(7, 9)),
        )
        assert box_sum_of_squares_image(box) == Interval(
            Fraction(44, 81), Fraction(67, 81)
        )

    def test_single_and_quadruple(self):
        assert box_sum_of_squares_image([Interval(Fraction(2, 3), 1)]) == Interval(
            Fraction(4, 9), 1
        )
        box = [Interval(0, 1)] * 4
        assert box_sum_of_squares_image(box) == Interval(0, 4)

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            box_sum_of_squares_image([])
        with pytest.raises(ValueError):
            box_sum_of_squares_image([Interval(0, 1)] * 5)
        with pytest.raises(ValueError):
            box_sum_of_squares_image([Interval(-1, 1)])


class TestOpenInterval:
    def test_emptiness(self):
        assert OpenInterval(Fraction(1, 2), Fraction(1, 2)).is_empty
        assert not OpenInterval(Fraction(1, 4), Fraction(9, 16)).is_empty

    def test_json(self):
        gap = OpenInterval(Fraction(1, 4), Fraction(9, 16))
        data = gap.to_json()
        assert data["lo"] == "1/4" and data["hi"] == "9/16"
        assert data["lo_strict"] and data["hi_strict"]
