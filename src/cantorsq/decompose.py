"""Four-square decompositions over the attractor.

In the thick regime (alpha >= 3) every x in [0, 4] is a sum of four
squares of attractor points.  This module makes that effective: it
produces a :class:`~cantorsq.certificate.Certificate` pinning down four
explicit points, their exact values, and the exact residual left after
subtracting their squares from x, together with the trace of choices
that found them.  :func:`~cantorsq.certificate.verify_certificate`
re-derives everything from the words in the certificate, without this
module's arithmetic.

The pipeline, all exact:

  1. scaling_reduce: divide x by r^2 until it lands in ((1-r)^2, 4];
     multiplying every coordinate of a decomposition by r (one extra
     left-map digit per point) scales the decomposed value by r^2, so a
     decomposition of the reduced value lifts back to x.
  2. choose_fourth: scan a fixed list of fourth-coordinate candidates
     (1, 0, and three witnesses near the right-half edge 1-r at
     increasing depth) until y - x4^2 lands in a known interval: a scaled
     copy of the lower band [a, b] or of the main band [2*(1-r)^2, 3]
     (see :func:`cantorsq.lemmas.base_boxes`).
  3. decompose_three: follow the target down a chain of child boxes from
     the band's seed box; after ``depth`` subdivisions the three left
     endpoints (right endpoints on an exact top hit) are attractor points
     whose squares sum to within ``bound`` of the target.

``Band``, ``band_interval``, ``Certificate`` and ``verify_certificate``
are importable from here as well as from :mod:`cantorsq.certificate`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .certificate import (
    _ZERO_CASE,
    Band,
    Certificate,
    _edge_candidates,
    _select_base,
    band_interval,
)
from .certificate import verify_certificate  # noqa: F401 (re-exported)
from .errors import InternalInconsistencyError, SearchExhausted
from .ifs import (
    ALL_LEFT,
    ALL_RIGHT,
    CantorParams,
    CantorPoint,
    word_from_left_endpoint,
)
from .lemmas import TripleBox, refine_scaled, scaled_box
from .numerics import Frozen, Interval, Rational, RationalLike, rat

#: Hard budget for the fourth-coordinate scan depth.
MAX_SCAN_WINDOW = 4096


class KnownInterval(Frozen):
    """One member of the known family: band scaled by r^(2*scale_power)."""

    __slots__ = _fields = ("scale_power", "band", "interval")

    def __init__(self, scale_power: int, band: Band, interval: Interval) -> None:
        self._set_fields(scale_power, band, interval)


def scaling_reduce(params: CantorParams, x: RationalLike) -> Tuple[int, Rational]:
    """Smallest s >= 0 with x / r^(2s) in ((1-r)^2, 4], plus that value.

    Needs 0 < x <= 4.  Termination: each step multiplies by 1/r^2 > 4.
    The result stays <= 4 because (1-r)^2 / r^2 <= 4 in the thick regime.
    """
    params.require_thick("scaling reduction")
    x = rat(x)
    if not 0 < x <= 4:
        raise ValueError("scaling reduction needs 0 < x <= 4, got %s" % (x,))
    r = params.ratio
    floor = (1 - r) ** 2
    step = r * r
    power = 0
    y = x
    while y <= floor:
        y = y / step
        power += 1
    if y > 4:
        raise InternalInconsistencyError(
            "reduced value %s escaped (%s, 4]" % (y, floor)
        )
    return power, y


class FourthChoice(Frozen):
    """A successful fourth-coordinate pick: the point, its exact value,
    the known interval hit by y - value^2, and a diagnostic case tag."""

    __slots__ = _fields = ("kind", "point", "value", "target", "tag")

    def __init__(self, kind: str, point: CantorPoint, value: Rational,
                 target: KnownInterval, tag: str) -> None:
        self._set_fields(kind, point, value, target, tag)


def choose_fourth(
    params: CantorParams, y: RationalLike, max_window: int
) -> Optional[FourthChoice]:
    """First fourth coordinate (in canonical scan order) that works for y.

    Scan order: 1 then 0 against the main band at scale 0; then for each
    depth n = 1..max_window the three edge witnesses, each against the
    low band at scale n-1 and then the main band at scale n.  Returns
    None when no depth up to max_window hits.
    """
    params.require_thick("the fourth-coordinate scan")
    y = rat(y)
    r = params.ratio
    if not (1 - r) ** 2 < y <= 4:
        raise ValueError(
            "fourth-coordinate scan needs y in ((1-r)^2, 4], got %s" % (y,)
        )
    low = band_interval(params, Band.LOW)
    main = band_interval(params, Band.MAIN)

    def hit(kind, point, value, band, base, power):
        t = y - value * value
        scaled = base.scaled(r ** (2 * power))
        if scaled.lo <= t <= scaled.hi:
            tag = "%s:%s:%d" % (kind, band.value, power)
            return FourthChoice(
                kind, point, value, KnownInterval(power, band, scaled), tag
            )
        return None

    found = hit("one", CantorPoint("", ALL_RIGHT), Fraction(1), Band.MAIN, main, 0)
    if found:
        return found
    found = hit("zero", CantorPoint("", ALL_LEFT), Fraction(0), Band.MAIN, main, 0)
    if found:
        return found
    for n in range(1, max_window + 1):
        for kind, point, value in _edge_candidates(params, n):
            found = hit(kind, point, value, Band.LOW, low, n - 1)
            if found:
                return found
            found = hit(kind, point, value, Band.MAIN, main, n)
            if found:
                return found
    return None


def _box_words(params: CantorParams, box: TripleBox) -> tuple:
    words = []
    for left in box.lefts:
        word = word_from_left_endpoint(params, left, box.level)
        if word is None:
            raise InternalInconsistencyError(
                "box coordinate %s is not a level-%d endpoint" % (left, box.level)
            )
        words.append(word)
    return tuple(words)


class ThreeSquareResult(Frozen):
    """Outcome of following a target down ``depth`` subdivisions."""

    __slots__ = _fields = ("points", "box", "bound", "trace")

    def __init__(self, points: tuple, box: TripleBox, bound: Rational,
                 trace: tuple) -> None:
        # points: three CantorPoints; trace: a ChildIndex per refinement step
        self._set_fields(points, box, bound, trace)


def decompose_three(
    params: CantorParams, target: RationalLike, band: Band, depth: int
) -> ThreeSquareResult:
    """Three attractor points whose squares sum to within bound of target.

    The target must lie in the (unscaled) band.  Points are the left
    endpoints of the final box, except on an exact hit of the final box
    image's upper endpoint, where the right endpoints realize the target
    with residual zero.  Either way 0 <= target - sum of squares <= bound.
    """
    params.require_thick("three-square decomposition")
    target = rat(target)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    box, _ = _select_base(params, band, target)
    words = _box_words(params, box)
    p = params.ratio.numerator
    q = params.ratio.denominator
    lefts, width, scale = scaled_box(params, box)
    num = target.numerator * scale * scale
    den = target.denominator
    trace = []
    for _ in range(depth):
        index, lefts = refine_scaled(p, q, lefts, width, num, den)
        trace.append(index)
        width *= p
        num *= q * q
        scale *= q
    box = TripleBox(tuple(Fraction(u, scale) for u in lefts), box.level + depth)
    img = box.image(params)
    tail = ALL_RIGHT if target == img.hi else ALL_LEFT
    points = tuple(
        CantorPoint(word + "".join("2" if index[pos] else "1" for index in trace),
                    tail)
        for pos, word in enumerate(words)
    )
    return ThreeSquareResult(points, box, img.hi - img.lo, tuple(trace))


def decompose_four(
    params: CantorParams, x: RationalLike, depth: int = 40
) -> Certificate:
    """Decompose x in [0, 4] into four squares of attractor points.

    Deterministic: the same (params, x, depth) always yields the same
    certificate.  The fourth coordinate comes from one scan over edge
    depths 1..MAX_SCAN_WINDOW; finding nothing there means x sits
    pathologically close to a scaled (1-r)^2 boundary and is reported
    with diagnostics instead of looping.
    """
    params.require_thick("four-square decomposition")
    x = rat(x)
    if not 0 <= x <= 4:
        raise ValueError("decomposition needs x in [0, 4], got %s" % (x,))
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    zero = Fraction(0)
    if x == 0:
        point = CantorPoint("", ALL_LEFT)
        return Certificate(
            alpha=params.alpha,
            x=zero,
            points=(point,) * 4,
            values=(zero,) * 4,
            residual=zero,
            bound=zero,
            depth=depth,
            scaling=0,
            case=_ZERO_CASE,
            trace=(),
        )
    scaling, y = scaling_reduce(params, x)
    r = params.ratio
    choice = choose_fourth(params, y, MAX_SCAN_WINDOW)
    if choice is None:
        raise SearchExhausted(
            "fourth-coordinate scan exhausted at window %d: y=%s sits "
            "within %s of the boundary %s"
            % (MAX_SCAN_WINDOW, y, y - (1 - r) ** 2, (1 - r) ** 2)
        )
    power = choice.target.scale_power
    t = y - choice.value * choice.value
    t_base = t / r ** (2 * power)
    three = decompose_three(params, t_base, choice.target.band, depth)
    lift = scaling + power
    points = tuple(p.with_scaling_prefix(lift) for p in three.points)
    points = points + (choice.point.with_scaling_prefix(scaling),)
    values = tuple(p.value(params) for p in points)
    residual = x - sum((v * v for v in values), zero)
    bound = r ** (2 * lift) * three.bound
    if not 0 <= residual <= bound:
        raise InternalInconsistencyError(
            "residual %s escaped [0, %s] for x=%s" % (residual, bound, x)
        )
    return Certificate(
        alpha=params.alpha,
        x=x,
        points=points,
        values=values,
        residual=residual,
        bound=bound,
        depth=depth,
        scaling=scaling,
        case=choice.tag,
        trace=three.trace,
    )


def fourth_window_margins(params: CantorParams, n: int) -> dict:
    """Exact margins behind the fourth-coordinate scan's coverage, depth n.

    Names the quantities whose positivity (negativity for the two glue
    entries' counterparts) makes consecutive candidate windows overlap:

      * low_pair_overlap / low_window_slack: the two low-band windows at
        depth n overlap, and together they span the full scaled low band.
      * main_pair_overlap_lo / main_pair_overlap_hi / main_window_slack:
        same for the three main-band windows.
      * band_glue_low (negative) / band_glue_high (positive): the scaled
        low band extends past both ends of the gap between successive
        main-band windows, so the families interleave with no seam.

    The test suite pins each entry to its closed polynomial form and its
    sign over the whole thick regime.
    """
    params.require_thick("the scan-window margins")
    if n < 1:
        raise ValueError("window depth must be at least 1")
    r = params.ratio
    low = band_interval(params, Band.LOW)
    a, b = low.lo, low.hi
    edge = 1 - r
    e2n = r ** (2 * n)
    e2n1 = r ** (2 * n - 1)
    w0, w1, w2 = edge, edge + e2n, edge + e2n1 - e2n
    return {
        "low_pair_overlap": (b - a) * r ** (2 * n - 2)
        - 2 * edge * e2n
        - r ** (4 * n),
        "low_window_slack": b * r ** (2 * n - 2)
        + w1 * w1
        - (edge * edge + (b + 2 * r * r - 2 * r**3) * r ** (2 * n - 2)),
        "main_pair_overlap_lo": 3 * e2n
        + w0 * w0
        - (2 * edge * edge * e2n + w1 * w1),
        "main_pair_overlap_hi": 3 * e2n
        + w1 * w1
        - (2 * edge * edge * e2n + w2 * w2),
        "main_window_slack": 3 * e2n
        + w2 * w2
        - (edge * edge + (2 - r + 2 * r * r) * e2n1),
        "band_glue_low": a - (2 - r + 2 * r * r) * r,
        "band_glue_high": (b + 2 * r * r - 2 * r**3) - 2 * edge * edge,
    }
