"""Level sets, digit words, and endpoint arithmetic."""

from fractions import Fraction
from itertools import product

import pytest

from cantorsq import (
    ALL_LEFT,
    ALL_RIGHT,
    CantorPoint,
    CapExceeded,
    Interval,
    IntervalUnion,
    level_left_endpoints,
    level_set,
    make_params,
    params_from_ratio,
    word_from_left_endpoint,
    word_left_endpoint,
)

F = Fraction


class TestParams:
    def test_ratio_from_alpha(self):
        assert make_params(3).ratio == F(1, 3)
        assert make_params(4).ratio == F(3, 8)
        assert make_params(F(5, 2)).ratio == F(3, 10)
        assert make_params(2).ratio == F(1, 4)

    def test_thick_threshold(self):
        assert make_params(3).thick
        assert make_params(F(301, 100)).thick
        assert not make_params(F(299, 100)).thick

    def test_gap_fraction(self):
        assert make_params(3).gap_fraction == F(1, 3)
        assert make_params(2).gap_fraction == F(1, 2)

    def test_from_ratio(self):
        assert params_from_ratio(F(1, 3)).alpha == 3
        assert params_from_ratio(F(49, 100)).alpha == 50

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_params(1)
        with pytest.raises(ValueError):
            make_params(F(1, 2))
        with pytest.raises(ValueError):
            params_from_ratio(F(1, 2))
        with pytest.raises(ValueError):
            params_from_ratio(0)


class TestWords:
    def test_left_endpoints(self, params3):
        assert word_left_endpoint(params3, "") == 0
        assert word_left_endpoint(params3, "1") == 0
        assert word_left_endpoint(params3, "2") == F(2, 3)
        assert word_left_endpoint(params3, "12") == F(2, 9)
        assert word_left_endpoint(params3, "22") == F(8, 9)

    def test_bad_word(self, params3):
        with pytest.raises(ValueError):
            word_left_endpoint(params3, "120")

    def test_matches_enumeration(self, params3):
        for level in range(1, 5):
            from_words = sorted(
                word_left_endpoint(params3, "".join(w))
                for w in product("12", repeat=level)
            )
            assert from_words == list(level_left_endpoints(params3, level))

    def test_other_ratio(self):
        p = make_params(2)  # ratio 1/4
        assert word_left_endpoint(p, "2") == F(3, 4)
        assert word_left_endpoint(p, "22") == F(15, 16)


class TestLevelEnumeration:
    def test_small_levels(self, params3):
        assert list(level_left_endpoints(params3, 1)) == [0, F(2, 3)]
        assert list(level_left_endpoints(params3, 2)) == [
            0, F(2, 9), F(2, 3), F(8, 9),
        ]

    def test_alpha_two(self):
        p = make_params(2)
        assert list(level_left_endpoints(p, 2)) == [
            0, F(3, 16), F(3, 4), F(15, 16),
        ]

    def test_counts_and_order(self, params3):
        for level in range(0, 8):
            pts = level_left_endpoints(params3, level)
            assert len(pts) == 2 ** level
            assert all(a < b for a, b in zip(pts, pts[1:]))
            # denominators divide q^level exactly
            assert all(
                (v * 3 ** level).denominator == 1 for v in pts
            )

    def test_cap(self, params3):
        with pytest.raises(CapExceeded):
            level_left_endpoints(params3, 6, cap=32)
        assert len(level_left_endpoints(params3, 5, cap=32)) == 32
        for level, cap in ((5, 31), (0, 0), (0, -1)):
            with pytest.raises(CapExceeded):
                level_left_endpoints(params3, level, cap=cap)

    @pytest.mark.parametrize("enumerate_level", [level_left_endpoints, level_set])
    def test_huge_level(self, params3, enumerate_level):
        """Beyond CPython's 4300-digit limit on printing ints, the level
        is still refused with CapExceeded."""
        with pytest.raises(CapExceeded):
            enumerate_level(params3, 20_000)

    def test_level_set(self, params3):
        assert level_set(params3, 2) == IntervalUnion([
            Interval(0, F(1, 9)),
            Interval(F(2, 9), F(1, 3)),
            Interval(F(2, 3), F(7, 9)),
            Interval(F(8, 9), 1),
        ])
        assert level_set(params3, 2).measure() == F(4, 9)
        assert level_set(params3, 0) == IntervalUnion([Interval(0, 1)])

    def test_level_sets_nest(self, params3):
        prev = level_set(params3, 0)
        for level in range(1, 7):
            cur = level_set(params3, level)
            assert prev.contains_union(cur)
            prev = cur


class TestCantorPoint:
    def test_tail_values(self, params3):
        assert CantorPoint("", ALL_LEFT).value(params3) == 0
        assert CantorPoint("", ALL_RIGHT).value(params3) == 1
        assert CantorPoint("2", ALL_LEFT).value(params3) == F(2, 3)
        assert CantorPoint("2111", ALL_RIGHT).value(params3) == F(55, 81)

    def test_scaling_prefix(self, params3):
        pt = CantorPoint("2", ALL_LEFT)
        lifted = pt.with_scaling_prefix(2)
        assert lifted.prefix == "112"
        assert lifted.value(params3) == pt.value(params3) * F(1, 9)
        assert pt.with_scaling_prefix(0) is not None

    def test_json_roundtrip(self):
        pt = CantorPoint("2111", ALL_RIGHT)
        assert CantorPoint.from_json(pt.to_json()) == pt

    def test_validation(self):
        with pytest.raises(ValueError):
            CantorPoint("13", ALL_LEFT)
        with pytest.raises(ValueError):
            CantorPoint("", "X")


class TestWordFromLeftEndpoint:
    def test_roundtrip_all_level_three(self, params3):
        for value in level_left_endpoints(params3, 3):
            word = word_from_left_endpoint(params3, value, 3)
            assert word is not None
            assert word_left_endpoint(params3, word) == value

    def test_deeper_level_pads_left_digits(self, params3):
        assert word_from_left_endpoint(params3, F(2, 3), 2) == "21"

    def test_non_endpoints(self, params3):
        assert word_from_left_endpoint(params3, F(1, 2), 4) is None
        # 1/3 is a right endpoint, not a left one
        assert word_from_left_endpoint(params3, F(1, 3), 1) is None
        assert word_from_left_endpoint(params3, F(2, 9), 1) is None
