"""Subdivision of coordinate boxes and the image-tiling lemma.

The implementation computes child images by plain interval arithmetic.
Every endpoint also has a closed polynomial form in the coordinates,
the ratio, and the level; this module pins the two against each other,
along with the exact overlap margins that chain the eight child images
into the parent.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cantorsq import (
    Interval,
    IntervalUnion,
    ThinRegimeError,
    TripleBox,
    base_boxes,
    child_box,
    cond_invariant,
    cond_overlap,
    level_left_endpoints,
    make_params,
    overlap_chain_margins,
    refine_step,
    verify_overlap_lemma,
)
from cantorsq.lemmas import (
    CHILD_INDICES,
    base_box_condition_margins,
    child_box_images,
    invariant_condition_margin,
    overlap_condition_margin,
    triple_box,
)

F = Fraction


def closed_form_images(params, box):
    """The eight child images written out as explicit polynomials."""
    r = params.ratio
    u, v, w = box.lefts
    n = box.level
    t = u * u + v * v + w * w
    e = (1 - r) * r ** n
    rn = r ** n
    rn1 = r ** (n + 1)
    r2n = r ** (2 * n)
    r2n2 = r ** (2 * n + 2)
    return {
        (0, 0, 0): Interval(
            t,
            t + 2 * (u + v + w) * rn1 + 3 * r2n2),
        (0, 0, 1): Interval(
            t + 2 * w * e + e * e,
            t + 2 * (u + v) * rn1 + 2 * w * rn + r2n + 2 * r2n2),
        (0, 1, 0): Interval(
            t + 2 * v * e + e * e,
            t + 2 * (u + w) * rn1 + 2 * v * rn + r2n + 2 * r2n2),
        (0, 1, 1): Interval(
            t + 2 * (v + w) * e + 2 * e * e,
            t + 2 * u * rn1 + 2 * (v + w) * rn + 2 * r2n + r2n2),
        (1, 0, 0): Interval(
            t + 2 * u * e + e * e,
            t + 2 * u * rn + 2 * (v + w) * rn1 + r2n + 2 * r2n2),
        (1, 0, 1): Interval(
            t + 2 * (u + w) * e + 2 * e * e,
            t + 2 * (u + w) * rn + 2 * v * rn1 + 2 * r2n + r2n2),
        (1, 1, 0): Interval(
            t + 2 * (u + v) * e + 2 * e * e,
            t + 2 * (u + v) * rn + 2 * w * rn1 + 2 * r2n + r2n2),
        (1, 1, 1): Interval(
            t + 2 * (u + v + w) * e + 3 * e * e,
            t + 2 * (u + v + w) * rn + 3 * r2n),
    }


def chain_margin_forms(params, box):
    """Closed forms of the six adjacent-pair overlaps, descending lefts."""
    r = params.ratio
    u, v, w = box.lefts
    rn = r ** box.level
    r2n = rn * rn
    outer = 2 * (r * u + r * v + 2 * r * w - w) * rn
    mid = 2 * (r * u + 2 * r * v - v + w) * rn
    return (
        outer + (4 * r - 1) * r2n,
        mid + (4 - r) * r * r2n,
        outer + (6 * r - 2 * r * r - 1) * r2n,
        outer + (2 * r * r + 2 * r - 1) * r2n,
        mid + (r + 2) * r * r2n,
        outer + (4 * r - 1) * r2n,
    )


def grid_boxes(params, level, descending=True):
    pts = level_left_endpoints(params, level)
    for combo in combinations_with_replacement(pts, 3):
        lefts = tuple(reversed(combo)) if descending else combo
        yield TripleBox(lefts, level)


class TestTripleBox:
    def test_image_matches_direct_squares(self, params3):
        box = TripleBox((0, F(2, 3), F(2, 3)), 1)
        assert box.image(params3) == Interval(F(8, 9), F(19, 9))
        assert box.coordinate_sum() == F(4, 3)
        assert box.coordinate_max() == F(2, 3)

    def test_any_nonnegative_coordinates_allowed(self):
        # margins and images make sense off the endpoint grid too
        TripleBox((F(1, 2), 0, 0), 1)
        with pytest.raises(ValueError):
            TripleBox((F(-1, 3), 0, 0), 1)
        with pytest.raises(ValueError):
            TripleBox((0, 0), 1)

    def test_factory_enforces_grid(self, params3):
        box = triple_box(params3, (F(2, 9), F(2, 9), F(2, 3)), 2)
        assert box.level == 2
        with pytest.raises(ValueError):
            triple_box(params3, (F(1, 2), 0, 0), 1)
        with pytest.raises(ValueError):
            triple_box(params3, (F(2, 9), 0, 0), 1)  # wrong level


class TestChildBoxes:
    def test_offsets(self, params3):
        box = TripleBox((0, F(2, 3), F(2, 3)), 1)
        kid = child_box(params3, box, (1, 0, 1))
        assert kid.lefts == (F(2, 9), F(2, 3), F(8, 9))
        assert kid.level == 2

    def test_indices_are_lexicographic(self):
        assert CHILD_INDICES[0] == (0, 0, 0)
        assert CHILD_INDICES[-1] == (1, 1, 1)
        assert len(CHILD_INDICES) == 8
        assert sorted(CHILD_INDICES) == list(CHILD_INDICES)

    @pytest.mark.parametrize("alpha", [3, 4, 10])
    def test_images_match_closed_forms(self, alpha):
        params = make_params(alpha)
        for level in (1, 2):
            for box in grid_boxes(params, level):
                computed = child_box_images(params, box)
                forms = closed_form_images(params, box)
                assert computed == forms

    def test_closed_forms_off_grid_too(self, params3):
        box = TripleBox((F(5, 7), F(1, 2), F(1, 13)), 3)
        assert child_box_images(params3, box) == closed_form_images(params3, box)


class TestConditions:
    def test_overlap_margin_formula(self, params3):
        box = TripleBox((F(2, 3), F(2, 3), 0), 1)
        # 4(1-r)max - 2*sum - (1+2r)r^n
        expected = 4 * F(2, 3) * F(2, 3) - 2 * F(4, 3) - F(5, 3) * F(1, 3)
        assert overlap_condition_margin(params3, box) == expected
        assert cond_overlap(params3, box)

    def test_invariant_margin_formula(self, params3):
        box = TripleBox((F(2, 3), F(2, 3), 0), 1)
        # 2(1-r)max + (1-2r)r^n - sum
        expected = F(4, 3) * F(2, 3) + F(1, 3) * F(1, 3) - F(4, 3)
        assert invariant_condition_margin(params3, box) == expected
        assert cond_invariant(params3, box)

    def test_zero_box_not_eligible(self, params3):
        box = TripleBox((0, 0, 0), 1)
        assert not cond_overlap(params3, box)

    @pytest.mark.parametrize("alpha", [3, 4])
    def test_invariant_implies_overlap(self, alpha):
        params = make_params(alpha)
        for level in (1, 2):
            for box in grid_boxes(params, level):
                if cond_invariant(params, box):
                    assert cond_overlap(params, box)

    @pytest.mark.parametrize("alpha", [3, 4])
    def test_invariant_propagates_to_children(self, alpha):
        params = make_params(alpha)
        for level in (1, 2):
            for box in grid_boxes(params, level):
                if not cond_invariant(params, box):
                    continue
                for index in CHILD_INDICES:
                    assert cond_invariant(params, child_box(params, box, index))

    def test_thin_regime_refused(self):
        p = make_params(2)
        box = TripleBox((F(3, 4), F(3, 4), 0), 1)
        with pytest.raises(ThinRegimeError):
            cond_overlap(p, box)
        with pytest.raises(ThinRegimeError):
            base_boxes(p)


class TestOverlapLemma:
    @pytest.mark.parametrize("alpha", [3, 4])
    def test_eligible_boxes_tile(self, alpha):
        params = make_params(alpha)
        for level in (1, 2):
            for box in grid_boxes(params, level):
                if cond_overlap(params, box):
                    assert verify_overlap_lemma(params, box)

    def test_union_equals_parent_exactly(self, params3):
        box = TripleBox((F(2, 3), F(2, 3), F(2, 3)), 1)
        union = IntervalUnion(child_box_images(params3, box).values())
        assert union.parts == (box.image(params3),)

    def test_ineligible_box_rejected(self, params3):
        with pytest.raises(ValueError):
            verify_overlap_lemma(params3, TripleBox((0, 0, 0), 1))

    @pytest.mark.parametrize("alpha", [3, 4, 10])
    def test_chain_margins_match_closed_forms(self, alpha):
        params = make_params(alpha)
        r = params.ratio
        for level in (1, 2):
            for box in grid_boxes(params, level):
                margins = overlap_chain_margins(params, box)
                assert margins.chain == chain_margin_forms(params, box)
                u, v, w = box.lefts
                rn = r ** level
                assert margins.join == (
                    2 * rn * (v + w - (1 - 2 * r) * u) + (1 + 2 * r) * rn * rn
                )
                # the join is the tiling condition, rescaled
                assert margins.join == -overlap_condition_margin(params, box) * rn

    @pytest.mark.parametrize("alpha", [3, 4, 10])
    def test_chain_margins_positive_when_eligible(self, alpha):
        params = make_params(alpha)
        for level in (1, 2):
            for box in grid_boxes(params, level):
                if not cond_overlap(params, box):
                    continue
                margins = overlap_chain_margins(params, box)
                assert all(m > 0 for m in margins.chain)
                assert margins.join >= 0


class TestRefineStep:
    def test_worked_example(self, params3):
        box = TripleBox((0, F(2, 3), F(2, 3)), 1)
        index = refine_step(params3, box, 1)
        assert index == (0, 0, 0)
        kid = child_box(params3, box, index)
        assert kid.lefts == (0, F(2, 3), F(2, 3)) and kid.level == 2
        assert kid.image(params3) == Interval(F(8, 9), F(11, 9))

    def test_tie_break_maps_back_to_caller_order(self, params3):
        box = TripleBox((F(2, 3), 0, F(2, 3)), 1)
        index = refine_step(params3, box, F(131, 81))
        assert index == (0, 0, 1)
        kid = child_box(params3, box, index)
        assert kid.image(params3).contains_value(F(131, 81))

    def test_deterministic(self, params3):
        box = TripleBox((F(2, 3), F(2, 3), F(2, 3)), 1)
        target = F(5, 2)
        assert refine_step(params3, box, target) == refine_step(
            params3, box, target
        )

    def test_needs_invariant_condition(self, params3):
        with pytest.raises(ValueError):
            refine_step(params3, TripleBox((0, 0, 0), 1), F(1, 100))

    def test_needs_target_in_image(self, params3):
        box = TripleBox((F(2, 3),) * 3, 1)
        with pytest.raises(ValueError):
            refine_step(params3, box, 1)  # below the image

    def test_chain_never_loses_target(self, params3):
        box = TripleBox((0, F(2, 3), F(2, 3)), 1)
        target = F(15, 8)
        for _ in range(12):
            index = refine_step(params3, box, target)
            box = child_box(params3, box, index)
            assert box.image(params3).contains_value(target)


class TestBaseBoxes:
    def test_alpha_three(self, params3):
        boxes = base_boxes(params3)
        got = [(b.lefts, b.level, img.lo, img.hi) for b, img in boxes]
        assert got == [
            ((0, F(2, 3), F(2, 3)), 1, F(8, 9), F(19, 9)),
            ((F(2, 3), F(2, 3), F(2, 3)), 1, F(4, 3), 3),
            ((F(2, 9), F(2, 9), F(2, 3)), 2, F(44, 81), F(67, 81)),
        ]

    def test_alpha_four(self, params4):
        boxes = base_boxes(params4)
        got = [(b.lefts, b.level, img.lo, img.hi) for b, img in boxes]
        assert got == [
            ((0, F(5, 8), F(5, 8)), 1, F(25, 32), F(137, 64)),
            ((F(5, 8), F(5, 8), F(5, 8)), 1, F(75, 64), 3),
            ((F(15, 64), F(15, 64), F(5, 8)), 2, F(1025, 2048), F(3553, 4096)),
        ]

    def test_first_two_chain_into_main_band(self, params3):
        boxes = base_boxes(params3)
        union = IntervalUnion([boxes[0][1], boxes[1][1]])
        assert union.parts == (Interval(F(8, 9), 3),)

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_condition_margins(self, alpha):
        params = make_params(alpha)
        r = params.ratio
        margins = base_box_condition_margins(params)
        assert margins == (-r, -1, -2 * r**3 + 5 * r**2 - 5 * r + 1)
        assert all(m < 0 for m in margins)

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_all_satisfy_invariant(self, alpha):
        params = make_params(alpha)
        for box, img in base_boxes(params):
            assert cond_invariant(params, box)
            assert box.image(params) == img
