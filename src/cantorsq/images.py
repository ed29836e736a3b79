"""Exact images of level-set powers under the maps we care about.

For a level-n set F with 2^n basic intervals, computes the exact interval
union covered by

  * sq:   (x_1, ..., x_k) -> x_1^2 + ... + x_k^2     over F^k,
  * sum:  (x_1, ..., x_k) -> x_1 + ... + x_k         over F^k,
  * diff: (x_1, x_2)      -> x_1 - x_2               over F^2.

Each map is coordinatewise monotone, so the image of a box of basic
intervals is a single closed interval computed at two corners, and the
image of F^k is the finite union over all boxes.  The symmetric maps
(sq, sum) only need multisets of basic intervals; diff is not symmetric
and enumerates ordered pairs.

All enumeration runs on integers: with ratio p/q the level-n endpoints
scale by q^n (by q^(2n) after squaring) to exact ints, and rationals are
only materialized for the few merged output intervals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional


from .errors import CapExceeded, InternalInconsistencyError
from .ifs import CantorParams, _level_ints
from .numerics import Interval, IntervalUnion, OpenInterval, Rational

#: Refuse to enumerate more boxes (multisets, or ordered pairs for diff)
#: than this per image request.
DEFAULT_BOX_CAP = 1 << 22

_MERGE_BLOCK = 1 << 16

#: Largest integer magnitude we allow into int64 vector arithmetic.
_INT64_LIMIT = 1 << 62


class MapKind(enum.Enum):
    SUM_OF_SQUARES = "sq"
    SUM = "sum"
    DIFFERENCE = "diff"


@dataclass(frozen=True)
class ImageRequest:
    """Which image to compute: (params, level, arity, map kind)."""

    params: CantorParams
    level: int
    arity: int
    map_kind: MapKind

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not 1 <= self.arity <= 4:
            raise ValueError("arity must be between 1 and 4, got %d" % self.arity)
        if self.map_kind is MapKind.DIFFERENCE and self.arity != 2:
            raise ValueError("difference images are defined for arity 2 only")


def enumeration_count(request: ImageRequest) -> int:
    """Boxes the request enumerates: multisets for the symmetric maps
    (C(2^n + k - 1, k) after symmetry reduction), ordered pairs for diff."""
    pieces = 1 << request.level
    if request.map_kind is MapKind.DIFFERENCE:
        return pieces * pieces
    return math.comb(pieces + request.arity - 1, request.arity)


def _sweep(sorted_pairs: list) -> list:
    """Merge a lo-sorted list of closed (lo, hi) int pairs in place."""
    merged: list = []
    for lo, hi in sorted_pairs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _merge_normalized(a: list, b: list) -> list:
    if not a:
        return b
    if not b:
        return a
    combined = a + b
    combined.sort()
    return _sweep(combined)


def _sq_image_pairs(ints: list, width: int, arity: int) -> list:
    """Normalized (lo, hi) int pairs for all multiset sum-of-squares boxes.

    Partial sums are hoisted per loop level and blocks are merged as they
    fill, so memory stays bounded by the (small) merged result plus one
    block regardless of how many boxes are enumerated.
    """
    lo_sq = [a * a for a in ints]
    hi_sq = [(a + width) ** 2 for a in ints]
    count = len(ints)
    acc: list = []
    block: list = []

    def flush() -> None:
        nonlocal acc
        if block:
            block.sort()
            acc = _merge_normalized(acc, _sweep(block))
            block.clear()

    if arity == 1:
        block.extend(zip(lo_sq, hi_sq))
    elif arity == 2:
        for i in range(count):
            li, hi_i = lo_sq[i], hi_sq[i]
            block.extend((li + lo_sq[j], hi_i + hi_sq[j]) for j in range(i, count))
            if len(block) >= _MERGE_BLOCK:
                flush()
    elif arity == 3:
        for i in range(count):
            li, hi_i = lo_sq[i], hi_sq[i]
            for j in range(i, count):
                lij, hij = li + lo_sq[j], hi_i + hi_sq[j]
                block.extend(
                    (lij + lo_sq[k], hij + hi_sq[k]) for k in range(j, count)
                )
                if len(block) >= _MERGE_BLOCK:
                    flush()
    else:
        for i in range(count):
            li, hi_i = lo_sq[i], hi_sq[i]
            for j in range(i, count):
                lij, hij = li + lo_sq[j], hi_i + hi_sq[j]
                for k in range(j, count):
                    lijk, hijk = lij + lo_sq[k], hij + hi_sq[k]
                    block.extend(
                        (lijk + lo_sq[m], hijk + hi_sq[m]) for m in range(k, count)
                    )
                    if len(block) >= _MERGE_BLOCK:
                        flush()
    flush()
    return acc


def _distinct_sums(ints: tuple, arity: int) -> list:
    """Sorted distinct k-fold sums of ``ints`` (with repetition), exact."""
    if arity == 1:
        return list(ints)
    if ints[-1] * arity < _INT64_LIMIT:
        import numpy as np  # deferred: only image requests need numpy

        arr = np.fromiter(ints, dtype=np.int64, count=len(ints))
        acc = arr
        for _ in range(arity - 1):
            acc = np.unique(np.add.outer(acc, arr).ravel())
        return [int(v) for v in acc]
    # Fallback for endpoints too large for int64; same values, slower.
    sums = set(ints)
    for _ in range(arity - 1):
        sums = {s + a for s in sums for a in ints}
    return sorted(sums)


def _distinct_diffs(ints: tuple) -> list:
    """Sorted distinct ordered-pair differences of ``ints``, exact."""
    if ints[-1] < _INT64_LIMIT:
        import numpy as np  # deferred: only image requests need numpy

        arr = np.fromiter(ints, dtype=np.int64, count=len(ints))
        return [int(v) for v in np.unique(np.subtract.outer(arr, arr).ravel())]
    return sorted({a - b for a in ints for b in ints})


@lru_cache(maxsize=None)
def _image_core(
    params: CantorParams, level: int, arity: int, map_kind: MapKind
) -> IntervalUnion:
    ints = _level_ints(params, level)
    p = params.ratio.numerator
    q = params.ratio.denominator
    width = p**level
    if map_kind is MapKind.SUM_OF_SQUARES:
        den = q ** (2 * level)
        pairs = _sq_image_pairs(list(ints), width, arity)
    elif map_kind is MapKind.SUM:
        den = q**level
        total_width = arity * width
        pairs = _sweep([(s, s + total_width) for s in _distinct_sums(ints, arity)])
    else:
        den = q**level
        pairs = _sweep([(d - width, d + width) for d in _distinct_diffs(ints)])
    return IntervalUnion(
        Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs
    )


def image(request: ImageRequest, box_cap: Optional[int] = None) -> IntervalUnion:
    """Exact image of the level set power under the requested map.

    Results are cached per (params, level, arity, map kind) for the life
    of the process; the cap only gates enumeration and never changes the
    value.
    """
    cap = DEFAULT_BOX_CAP if box_cap is None else box_cap
    if cap < 1:
        raise ValueError("box cap must be positive")
    count = enumeration_count(request)
    if count > cap:
        raise CapExceeded(
            "image request enumerates %d boxes, above the cap %d" % (count, cap)
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


@dataclass(frozen=True)
class CoverReport:
    """Per-level containment of a claimed union inside computed images."""

    claimed: IntervalUnion
    arity: int
    map_kind: MapKind
    rows: tuple  # ((level, contained), ...)

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
