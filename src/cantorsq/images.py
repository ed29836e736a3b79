"""Exact images of level-set powers under the maps we care about.

For a level-n set F with 2^n basic intervals, computes the exact interval
union covered by

  * sq:   (x_1, ..., x_k) -> x_1^2 + ... + x_k^2     over F^k,
  * sum:  (x_1, ..., x_k) -> x_1 + ... + x_k         over F^k,
  * diff: (x_1, x_2)      -> x_1 - x_2               over F^2.

Sum and diff follow the level set's self-similarity
F_n = r*F_(n-1) | (r*F_(n-1) + 1-r): each level maps the merged image U
to the union of r*U + j*(1-r) over the top split's shifts j, so the work
grows with level times parts, not with the number of boxes.  The sum of
squares is separable, so its image is the Minkowski fold S + ... + S of
S = {x^2 : x in F}, merged after each addition.

All of it runs on integers: with ratio p/q the level-n endpoints scale by
q^n (by q^(2n) after squaring) to exact ints, and rationals are only
materialized for the few merged output intervals.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import CapExceeded, InternalInconsistencyError
from .ifs import CantorParams, _level_ints
from .numerics import Frozen, IntervalUnion, OpenInterval, _sweep, brief

#: Refuse requests that enumerate more boxes (multisets, or ordered pairs
#: for diff) than this.
DEFAULT_BOX_CAP = 1 << 22

#: Sweep a growing Minkowski pair list once it holds this many pairs more
#: than at its last sweep, so memory stays bounded by the merged result
#: plus one block however many pairs a request adds.
_SWEEP_BLOCK = 1 << 16


class MapKind(enum.Enum):
    SUM_OF_SQUARES = "sq"
    SUM = "sum"
    DIFFERENCE = "diff"


class ImageRequest(Frozen):
    """Which image to compute: (params, level, arity, map kind)."""

    __slots__ = _fields = ("params", "level", "arity", "map_kind")

    def __init__(
        self, params: CantorParams, level: int, arity: int, map_kind: MapKind
    ) -> None:
        if level < 0:
            raise ValueError("level must be nonnegative")
        if not 1 <= arity <= 4:
            raise ValueError("arity must be between 1 and 4, got %d" % arity)
        if map_kind is MapKind.DIFFERENCE and arity != 2:
            raise ValueError("difference images are defined for arity 2 only")
        self._set_fields(params, level, arity, map_kind)


def enumeration_count(request: ImageRequest) -> int:
    """Boxes of the request: multisets for the symmetric maps
    (C(2^n + k - 1, k) after symmetry reduction), ordered pairs for diff.

    This count gates :class:`CapExceeded`.  It is the size of the request,
    not the work done: the recursion and the fold work on merged unions.
    """
    pieces = 1 << request.level
    if request.map_kind is MapKind.DIFFERENCE:
        return pieces * pieces
    return math.comb(pieces + request.arity - 1, request.arity)


def _self_similar(
    base: tuple, shifts: range, p: int, q: int, level: int
) -> list:
    """Merged image, scaled by q^level, of a map that commutes with the
    level set's top split F_n = r*F_(n-1) | (r*F_(n-1) + 1-r).

    ``base`` is the image of [0, 1] as one int pair, and ``shifts`` lists
    the multiples j of 1-r that the split can add (0..k for a k-fold sum,
    -1..1 for the difference).  Each level maps the union U to the union
    over j of r*U + j*(1-r); in ints scaled by q^(i+1) at level i, that is
    p*U + j*(q-p)*q^i.
    """
    union = [base]
    for i in range(level):
        step = (q - p) * q**i
        moved = [
            (p * lo + j * step, p * hi + j * step) for j in shifts for lo, hi in union
        ]
        moved.sort()
        union = _sweep(moved)
    return union


def _minkowski(left: list, right: list, multisets: bool = False) -> list:
    """Merged union of u + v over the merged closed int pairs u in ``left``
    and v in ``right``; with ``multisets`` (left is right) only pairs with
    v at or after u, since the sum is symmetric.

    Each row u + right is sorted in both endpoints, so against the union
    M merged so far a row splits into runs: a run that ends inside one
    part of M adds nothing and is skipped with one bisect on right's his,
    and the run up to M's next part is pending as a whole, found with one
    bisect on right's los.  Rows go u descending, widest first for
    squares, so M soon covers most of each row; pending pairs merge into
    M once they outnumber its parts.  A row then costs about one step per
    part of M it meets, which loses to plain appending on thin unions:
    once M has more parts than ``right`` has pairs, :func:`_plain_rows`
    takes the remaining rows.
    """
    los = [lo for lo, _ in right]
    his = [hi for _, hi in right]
    width = len(right)
    merged: list = []
    mlos: list = []
    mhis: list = []
    pending: list = []
    for i in range(len(left) - 1, -1, -1):
        if len(merged) > width:
            return _plain_rows(left[:i + 1], los, his, multisets, pending + merged)
        ulo, uhi = left[i]
        j = i if multisets else 0
        while j < width:
            lo = ulo + los[j]
            k = bisect_right(mlos, lo)
            if k and lo <= mhis[k - 1]:
                j = bisect_right(his, mhis[k - 1] - uhi, j)
            end = bisect_left(los, mlos[k] - ulo, j) if k < len(mlos) else width
            if j < end:
                pending.extend(zip(map(ulo.__add__, los[j:end]),
                                   map(uhi.__add__, his[j:end])))
                j = end
        if len(pending) > len(merged):
            merged = _sweep(sorted(pending + merged))
            mlos = [lo for lo, _ in merged]
            mhis = [hi for _, hi in merged]
            pending = []
    return _sweep(sorted(pending + merged))


def _plain_rows(
    left: list, los: list, his: list, multisets: bool, pairs: list
) -> list:
    """Merged union of ``pairs`` and the rows u + right over u in
    ``left``, with right given by its endpoint lists ``los`` and ``his``
    (each row from u's index on, with ``multisets``).  The list is swept
    each time it grows by _SWEEP_BLOCK pairs, so memory stays bounded by
    the merged result plus one block."""
    limit = len(pairs) + _SWEEP_BLOCK
    for i, (ulo, uhi) in enumerate(left):
        start = i if multisets else 0
        pairs.extend(zip(map(ulo.__add__, los[start:]),
                         map(uhi.__add__, his[start:])))
        if len(pairs) >= limit:
            pairs.sort()
            pairs = _sweep(pairs)
            limit = len(pairs) + _SWEEP_BLOCK
    pairs.sort()
    return _sweep(pairs)


@lru_cache(maxsize=128)
def _image_core(
    params: CantorParams, level: int, arity: int, map_kind: MapKind
) -> IntervalUnion:
    p = params.ratio.numerator
    q = params.ratio.denominator
    if map_kind is MapKind.SUM_OF_SQUARES:
        den = q ** (2 * level)
        width = p**level
        squares = [(a * a, (a + width) ** 2) for a in _level_ints(params, level)]
        pairs = squares if arity == 1 else _minkowski(squares, squares, True)
        for _ in range(arity - 2):
            pairs = _minkowski(pairs, squares)
    elif map_kind is MapKind.SUM:
        den = q**level
        pairs = _self_similar((0, arity), range(arity + 1), p, q, level)
    else:
        den = q**level
        pairs = _self_similar((-1, 1), range(-1, 2), p, q, level)
    return IntervalUnion._from_merged(pairs, den)


def image(request: ImageRequest, box_cap: Optional[int] = None) -> IntervalUnion:
    """Exact image of the level set power under the requested map.

    The 128 most recent results are cached per (params, level, arity,
    map kind).  The cap gates the request by its box count
    (:func:`enumeration_count`), not by the work done, and never changes
    the value.
    """
    cap = DEFAULT_BOX_CAP if box_cap is None else box_cap
    if cap < 1:
        raise ValueError("box cap must be positive")
    # Every request has at least 2^level boxes, and 2^level > cap exactly
    # when level >= cap.bit_length(): a huge level is refused by its size
    # before its count is built.
    if request.level >= cap.bit_length():
        raise CapExceeded(
            "image request enumerates at least 2^%d boxes, above the cap %s"
            % (request.level, brief(cap))
        )
    count = enumeration_count(request)
    if count > cap:
        raise CapExceeded(
            "image request enumerates %s boxes, above the cap %s"
            % (brief(count), brief(cap))
        )
    return _image_core(request.params, request.level, request.arity, request.map_kind)


def nestedness_check(
    params: CantorParams,
    level: int,
    arity: int,
    map_kind: MapKind = MapKind.SUM_OF_SQUARES,
    box_cap: Optional[int] = None,
) -> bool:
    """True iff the image at level+1 is contained in the image at level.

    Level sets decrease, so images must decrease as well; this is the
    finite-level sanity check of that monotonicity.
    """
    finer = image(ImageRequest(params, level + 1, arity, map_kind), box_cap)
    coarser = image(ImageRequest(params, level, arity, map_kind), box_cap)
    return coarser.contains_union(finer)


def gap_check(
    params: CantorParams, box_cap: Optional[int] = None
) -> Optional[OpenInterval]:
    """The open gap (4r^2, (1-r)^2) missed by four squares when r < 1/3.

    For ratio >= 1/3 the two endpoints close up (they coincide at r = 1/3)
    and there is no gap: returns None.  Otherwise returns the open gap
    after verifying, exactly, that the level-1 four-square image misses it;
    a nonempty intersection would mean this package is wrong somewhere, so
    it raises InternalInconsistencyError rather than returning quietly.
    """
    r = params.ratio
    if r >= Fraction(1, 3):
        return None
    gap = OpenInterval(4 * r * r, (1 - r) ** 2)
    img = image(ImageRequest(params, 1, 4, MapKind.SUM_OF_SQUARES), box_cap)
    for part in img.parts:
        # Closed part meets open gap iff it enters the interior.
        if part.lo < gap.hi and part.hi > gap.lo:
            raise InternalInconsistencyError(
                "level-1 four-square image meets the gap (%s, %s) at %r"
                % (gap.lo, gap.hi, part)
            )
    return gap


class CoverReport(Frozen):
    """Per-level containment of a claimed union inside computed images."""

    __slots__ = _fields = ("claimed", "arity", "map_kind", "rows")

    def __init__(
        self, claimed: IntervalUnion, arity: int, map_kind: MapKind, rows: tuple
    ) -> None:
        # rows: ((level, contained), ...)
        self._set_fields(claimed, arity, map_kind, rows)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.rows)

    def to_json(self) -> dict:
        return {
            "claimed": self.claimed.to_json(),
            "arity": self.arity,
            "map": self.map_kind.value,
            "rows": [[level, ok] for level, ok in self.rows],
            "pass": self.passed,
        }


def cover_report(
    params: CantorParams,
    claimed: IntervalUnion,
    arity: int,
    max_level: int,
    map_kind: MapKind = MapKind.SUM_OF_SQUARES,
    box_cap: Optional[int] = None,
) -> CoverReport:
    """Check claimed <= image at every level 1..max_level."""
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    rows = []
    for level in range(1, max_level + 1):
        img = image(ImageRequest(params, level, arity, map_kind), box_cap)
        rows.append((level, img.contains_union(claimed)))
    return CoverReport(claimed, arity, map_kind, tuple(rows))
