"""Property tests for the integer refinement kernel and the certificate
round trip, beyond alpha 3.

The reference for every refinement choice is the Fraction path: child
boxes built with ``child_box`` and their images with ``TripleBox.image``,
scanned in the canonical descending-coordinate order.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cantorsq import (
    Band,
    Certificate,
    TripleBox,
    base_boxes,
    child_box,
    cond_invariant,
    decompose_four,
    make_params,
    params_from_ratio,
    refine_step,
    verify_certificate,
    word_left_endpoint,
)
from cantorsq.decompose import decompose_three
from cantorsq.lemmas import CHILD_INDICES

F = Fraction

PARAMS = tuple(make_params(a) for a in (3, F(7, 2), 4, 10)) + (
    params_from_ratio(F(49, 100)),
)

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_step(params, box, target):
    """First child, in canonical order, whose Fraction image holds target."""
    order = sorted(range(3), key=lambda c: (-box.lefts[c], c))
    sorted_box = TripleBox(tuple(box.lefts[c] for c in order), box.level)
    for index in CHILD_INDICES:
        img = child_box(params, sorted_box, index).image(params)
        if img.lo <= target <= img.hi:
            return tuple(index[order.index(c)] for c in range(3))
    return None


@st.composite
def descent_boxes(draw):
    """A seed box followed down random children, coordinates permuted:
    the descent condition is inherited, so every such box satisfies it."""
    params = draw(st.sampled_from(PARAMS))
    box, _ = draw(st.sampled_from(base_boxes(params)))
    for index in draw(st.lists(st.sampled_from(CHILD_INDICES), max_size=12)):
        box = child_box(params, box, index)
    perm = draw(st.permutations(range(3)))
    return params, TripleBox(tuple(box.lefts[c] for c in perm), box.level)


@st.composite
def word_boxes(draw):
    """Three random level-n words, n in 1..8, as a triple box."""
    params = draw(st.sampled_from(PARAMS))
    level = draw(st.integers(1, 8))
    words = [draw(st.text("12", min_size=level, max_size=level)) for _ in range(3)]
    lefts = tuple(word_left_endpoint(params, w) for w in words)
    return params, TripleBox(lefts, level)


fractions01 = st.one_of(
    st.sampled_from((F(0), F(1))),
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
)


def point_in(img, frac):
    return img.lo + frac * (img.hi - img.lo)


class TestRefineStep:
    @SETTINGS
    @given(descent_boxes(), fractions01)
    def test_first_canonical_child(self, case, frac):
        params, box = case
        target = point_in(box.image(params), frac)
        index = refine_step(params, box, target)
        assert index == reference_step(params, box, target)
        kid = child_box(params, box, index)
        assert kid.image(params).contains_value(target)
        assert cond_invariant(params, kid)

    @SETTINGS
    @given(word_boxes(), fractions01)
    def test_random_words_satisfying_descent(self, case, frac):
        params, box = case
        assume(cond_invariant(params, box))
        target = point_in(box.image(params), frac)
        assert refine_step(params, box, target) == reference_step(params, box, target)

    @SETTINGS
    @given(word_boxes(), fractions01)
    def test_descent_failure_raises(self, case, frac):
        params, box = case
        assume(not cond_invariant(params, box))
        with pytest.raises(ValueError):
            refine_step(params, box, point_in(box.image(params), frac))

    @SETTINGS
    @given(descent_boxes(), st.fractions(min_value=0, max_value=1,
                                         max_denominator=10**4).filter(bool),
           st.booleans())
    def test_target_outside_image_raises(self, case, delta, above):
        params, box = case
        img = box.image(params)
        target = img.hi + delta if above else img.lo - delta
        with pytest.raises(ValueError):
            refine_step(params, box, target)


class TestDecomposeThree:
    @SETTINGS
    @given(st.sampled_from(PARAMS), st.sampled_from((Band.LOW, Band.MAIN)),
           fractions01, st.integers(0, 16))
    def test_trace_matches_fraction_chain(self, params, band, frac, depth):
        boxes = base_boxes(params)
        if band is Band.LOW:
            box, img = boxes[2]
        else:
            box, img = boxes[0]
        target = point_in(img, frac)
        result = decompose_three(params, target, band, depth)
        for index in result.trace:
            assert index == reference_step(params, box, target)
            box = child_box(params, box, index)
        assert result.box == box
        assert result.bound == box.image(params).hi - box.image(params).lo


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PARAMS),
           st.fractions(min_value=0, max_value=4, max_denominator=10**6),
           st.integers(0, 24))
    def test_random_x(self, params, x, depth):
        cert = decompose_four(params, x, depth)
        assert verify_certificate(params, cert).ok
        again = Certificate.from_json_dict(json.loads(cert.canonical_json()))
        assert again == cert

    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: "ratio=%s" % p.ratio)
    @pytest.mark.parametrize("which", ["4", "3+r^2", "(1-r)^2"])
    def test_boundary_inputs(self, params, which):
        r = params.ratio
        x = {"4": F(4), "3+r^2": 3 + r * r, "(1-r)^2": (1 - r) ** 2}[which]
        cert = decompose_four(params, x, 40)
        result = verify_certificate(params, cert)
        assert result.ok, result.reasons
        assert 0 <= cert.residual <= cert.bound
        if which != "(1-r)^2":
            # exact top hits of the main band: right-endpoint tails
            assert cert.residual == 0
