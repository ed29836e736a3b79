"""Subdivision lemmas for triple boxes under the sum of three squares.

A triple box at level n is a product I_u x I_v x I_w of three level-n
basic intervals, named by its left endpoints (u, v, w).  Its image under
g(x, y, z) = x^2 + y^2 + z^2 is the single interval

    [t, t + 2*(u+v+w)*r^n + 3*r^(2n)],      t = u^2 + v^2 + w^2.

Subdividing each coordinate gives 8 child boxes indexed by bits
(i, j, l), bit 1 = right child.  Two exact conditions drive everything,
both requiring the thick regime ratio >= 1/3:

  * tiling condition (cond_overlap): max(u, v, w) > 0 and
        4*(1-r)*max <= 2*(u+v+w) + (1+2r)*r^n.
    Then the 8 child images chain with no gap and tile the parent image
    exactly.

  * descent condition (cond_invariant):
        2*(1-r)*max + (1-2r)*r^n <= u + v + w.
    Strictly stronger than the tiling condition, and inherited by every
    child box, so any target in the parent image can be followed down an
    infinite chain of child boxes; the box image width contracts by
    roughly r per step.  This is what turns the tiling lemma into points
    of the attractor realizing a prescribed sum of three squares.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .errors import InternalInconsistencyError, ThinRegimeError
from .ifs import CantorParams, word_from_left_endpoint
from .numerics import (
    Frozen,
    Interval,
    IntervalUnion,
    Rational,
    _setfield,
    box_sum_of_squares_image,
    rat,
)

ChildIndex = Tuple[int, int, int]

#: All 8 child indices in lexicographic order.
CHILD_INDICES: tuple = tuple(itertools.product((0, 1), repeat=3))

#: Adjacent (hi of first, lo of second) pairs whose overlap margins chain
#: the 8 child images into the parent image, in proof order: the right
#: half-slabs first, then the left ones.  The final join between the two
#: groups is covered by the tiling condition itself.
_CHAIN_PAIRS: tuple = (
    ((1, 0, 0), (1, 0, 1)),
    ((1, 0, 1), (1, 1, 0)),
    ((1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (0, 1, 1)),
)


class TripleBox(Frozen):
    """Product of three level-``level`` basic intervals, by left endpoint."""

    __slots__ = _fields = ("lefts", "level")

    def __init__(self, lefts: tuple, level: int) -> None:
        if len(lefts) != 3:
            raise ValueError("a triple box needs exactly 3 left endpoints")
        lefts = tuple(rat(x) for x in lefts)
        if level < 0:
            raise ValueError("level must be nonnegative")
        if any(x < 0 for x in lefts):
            raise ValueError("left endpoints must be nonnegative")
        _setfield(self, "lefts", lefts)
        _setfield(self, "level", level)

    def coordinate_sum(self) -> Rational:
        return sum(self.lefts, Fraction(0))

    def coordinate_max(self) -> Rational:
        return max(self.lefts)

    def intervals(self, params: CantorParams) -> tuple:
        width = params.ratio**self.level
        return tuple(Interval(x, x + width) for x in self.lefts)

    def image(self, params: CantorParams) -> Interval:
        """Exact image under the sum of three squares."""
        return box_sum_of_squares_image(self.intervals(params))


def triple_box(params: CantorParams, lefts, level: int) -> TripleBox:
    """Validated constructor: every coordinate must be a genuine level-n
    left endpoint, checked by reconstructing its digit word."""
    box = TripleBox(tuple(lefts), level)
    for x in box.lefts:
        if word_from_left_endpoint(params, x, level) is None:
            raise ValueError(
                "%s is not a level-%d left endpoint for ratio %s"
                % (x, level, params.ratio)
            )
    return box


def overlap_condition_margin(params: CantorParams, box: TripleBox) -> Rational:
    """4*(1-r)*max - 2*sum - (1+2r)*r^n; nonpositive means the tiling
    inequality holds."""
    r = params.ratio
    return (
        4 * (1 - r) * box.coordinate_max()
        - 2 * box.coordinate_sum()
        - (1 + 2 * r) * r**box.level
    )


def invariant_condition_margin(params: CantorParams, box: TripleBox) -> Rational:
    """2*(1-r)*max + (1-2r)*r^n - sum; nonpositive means the descent
    condition holds."""
    r = params.ratio
    return (
        2 * (1 - r) * box.coordinate_max()
        + (1 - 2 * r) * r**box.level
        - box.coordinate_sum()
    )


def cond_overlap(params: CantorParams, box: TripleBox) -> bool:
    """Tiling condition: the 8 child images chain without gaps."""
    params.require_thick("the tiling condition")
    if box.coordinate_max() <= 0:
        return False
    return overlap_condition_margin(params, box) <= 0


def cond_invariant(params: CantorParams, box: TripleBox) -> bool:
    """Descent condition; implies the tiling condition and is inherited
    by all 8 child boxes."""
    params.require_thick("the descent condition")
    return invariant_condition_margin(params, box) <= 0


def child_box(params: CantorParams, box: TripleBox, index: ChildIndex) -> TripleBox:
    """The child box selected by bits (i, j, l), bit 1 = right child."""
    r = params.ratio
    step = (1 - r) * r**box.level
    lefts = tuple(
        x + step if bit else x for x, bit in zip(box.lefts, index)
    )
    return TripleBox(lefts, box.level + 1)


def child_box_images(
    params: CantorParams, box: TripleBox
) -> Dict[ChildIndex, Interval]:
    """Exact images of all 8 child boxes, keyed by index in lex order."""
    return {
        index: child_box(params, box, index).image(params)
        for index in CHILD_INDICES
    }


def verify_overlap_lemma(params: CantorParams, box: TripleBox) -> bool:
    """Check, exactly, that the 8 child images tile the parent image.

    Requires the tiling condition; the check itself is a brute-force union
    of the 8 child images compared against the parent interval.
    """
    if not cond_overlap(params, box):
        raise ValueError("tiling condition does not hold for %r" % (box,))
    union = IntervalUnion(child_box_images(params, box).values())
    return union == IntervalUnion([box.image(params)])


def scaled_box(params: CantorParams, box: TripleBox) -> tuple:
    """The integer-scaled form (lefts, width, scale) of ``box``.

    ``scale`` is the least multiple of q^n (ratio = p/q, n = box level)
    that clears every left endpoint's denominator; ``lefts`` are the
    endpoints times ``scale`` and ``width`` = r^n * scale.  For a genuine
    level-n box the scale is q^n and the width p^n.
    """
    p = params.ratio.numerator
    q = params.ratio.denominator
    scale = q**box.level
    for x in box.lefts:
        scale = math.lcm(scale, x.denominator)
    lefts = tuple(x.numerator * (scale // x.denominator) for x in box.lefts)
    return lefts, p**box.level * (scale // q**box.level), scale


def refine_scaled(
    p: int, q: int, lefts: tuple, width: int, num: int, den: int
) -> Tuple[ChildIndex, tuple]:
    """One refinement step on an integer-scaled box, ratio p/q.

    The box has left endpoints lefts[i]/S and side width/S for some
    common scale S, and the target is num/(den*S^2) with den > 0, so the
    box image scaled by S^2 is [sum U^2, sum (U + width)^2].  Checks the
    descent condition 2(q-p)*max U + (q-2p)*width <= q*sum U and that the
    target lies in the box image, then scans the 8 children in the
    canonical order of :func:`refine_step`.

    Returns the chosen index (caller's coordinate order) and the child's
    left endpoints at scale S*q: U*q + bit*(q-p)*width.  The child's
    width is width*p and its target numerator num*q*q.
    """
    if 3 * p < q:
        raise ThinRegimeError(
            "subdivision conditions need ratio >= 1/3, got %d/%d" % (p, q)
        )
    a, b, c = lefts
    if 2 * (q - p) * max(lefts) + (q - 2 * p) * width > q * (a + b + c):
        raise ValueError("descent condition does not hold")
    lo = a * a + b * b + c * c
    hi = (a + width) ** 2 + (b + width) ** 2 + (c + width) ** 2
    if not lo * den <= num <= hi * den:
        raise ValueError("target outside the box image")
    order = sorted(range(3), key=lambda i: (-lefts[i], i))
    step = (q - p) * width
    kid_width = width * p
    kid_num = num * q * q
    # Per sorted position and bit: (child left, its lo and hi squares * den).
    options = []
    for i in order:
        pair = []
        for left in (lefts[i] * q, lefts[i] * q + step):
            pair.append((left, left * left * den, (left + kid_width) ** 2 * den))
        options.append(pair)
    for index in CHILD_INDICES:
        x, y, z = (options[pos][bit] for pos, bit in enumerate(index))
        if x[1] + y[1] + z[1] <= kid_num <= x[2] + y[2] + z[2]:
            out = [0, 0, 0]
            kid = [0, 0, 0]
            for pos, original in enumerate(order):
                out[original] = index[pos]
                kid[original] = options[pos][index[pos]][0]
            return tuple(out), tuple(kid)
    raise InternalInconsistencyError(
        "no child image contains the target although the tiling condition holds"
    )


def refine_step(params: CantorParams, box: TripleBox, target) -> ChildIndex:
    """Pick the child box whose image contains ``target``.

    Requires the descent condition and target inside the parent image.
    The choice is canonical: coordinates are viewed in stable descending
    order (the largest endpoint first), children are scanned in
    lexicographic index order in that orientation, and the first hit is
    mapped back to the caller's coordinate order.  The returned child
    satisfies the descent condition again, so refinement never stalls.
    Runs :func:`refine_scaled` on the box's integer-scaled form.
    """
    target = rat(target)
    lefts, width, scale = scaled_box(params, box)
    try:
        index, _ = refine_scaled(
            params.ratio.numerator,
            params.ratio.denominator,
            lefts,
            width,
            target.numerator * scale * scale,
            target.denominator,
        )
    except ValueError as exc:
        raise ValueError("%s: box %r, target %s" % (exc, box, target)) from None
    return index


@lru_cache(maxsize=32)
def base_boxes(params: CantorParams) -> tuple:
    """The three seed boxes of the decomposition, with their exact images.

    In listed order (r = contraction ratio):

      1. level 1, lefts (0, 1-r, 1-r):        image [2*(1-r)^2, 2 + r^2]
      2. level 1, lefts (1-r, 1-r, 1-r):      image [3*(1-r)^2, 3]
      3. level 2, lefts (r-r^2, r-r^2, 1-r):  image [a, b] with
         a = 2r^4 - 4r^3 + 3r^2 - 2r + 1,  b = r^4 - 2r^3 + 5r^2 - 2r + 1.

    The first two chain into [2*(1-r)^2, 3]; the third supplies the lower
    band that the fourth-coordinate scan needs.  Every seed satisfies the
    descent condition throughout the thick regime; violation would mean a
    bug, not bad input.  Memoised per parameters: the result is immutable
    and every decomposition needs it several times.
    """
    params.require_thick("the seed boxes")
    r = params.ratio
    boxes = (
        triple_box(params, (Fraction(0), 1 - r, 1 - r), 1),
        triple_box(params, (1 - r, 1 - r, 1 - r), 1),
        triple_box(params, (r - r * r, r - r * r, 1 - r), 2),
    )
    out = []
    for box in boxes:
        if not cond_invariant(params, box):
            raise InternalInconsistencyError(
                "seed box %r fails the descent condition at ratio %s" % (box, r)
            )
        out.append((box, box.image(params)))
    return tuple(out)


def base_box_condition_margins(params: CantorParams) -> tuple:
    """Descent-condition margins of the three seed boxes (all negative).

    Closed forms in r: -r, -1, and -2r^3 + 5r^2 - 5r + 1; the polynomial
    identities are pinned down in the test suite.
    """
    return tuple(
        invariant_condition_margin(params, box) for box, _ in base_boxes(params)
    )


class OverlapMargins(Frozen):
    """Exact overlap amounts that chain the 8 child images together.

    ``chain`` holds the six adjacent-pair margins (strictly positive for
    any box with coordinate_max > 0 in the thick regime); ``join`` is the
    margin splicing the two groups of four, nonnegative exactly when the
    tiling condition holds.
    """

    __slots__ = _fields = ("chain", "join")

    def __init__(self, chain: tuple, join: Rational) -> None:
        self._set_fields(chain, join)


def overlap_chain_margins(params: CantorParams, box: TripleBox) -> OverlapMargins:
    """Compute the margins in the canonical descending orientation."""
    params.require_thick("the overlap margins")
    order = sorted(range(3), key=lambda c: (-box.lefts[c], c))
    sorted_box = TripleBox(tuple(box.lefts[c] for c in order), box.level)
    images = child_box_images(params, sorted_box)
    chain = tuple(
        images[first].hi - images[second].lo for first, second in _CHAIN_PAIRS
    )
    join = images[(0, 1, 1)].hi - images[(1, 0, 0)].lo
    return OverlapMargins(chain, join)
