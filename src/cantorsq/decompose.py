"""Four-square decompositions over the attractor, with checkable receipts.

In the thick regime (alpha >= 3) every x in [0, 4] is a sum of four
squares of attractor points.  This module makes that effective: it
produces a :class:`Certificate` pinning down four explicit points, their
exact values, and the exact residual left after subtracting their squares
from x, together with the trace of choices that found them.  A separate
verifier re-derives everything from the words in the certificate.

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

Certificates: residual = x - sum of squares is always in [0, bound],
with bound = 2*(u+v+w)*r^N + 3*r^(2N) for the final box, rescaled.  The
JSON rendering is canonical, so equal certificates serialize to
byte-identical files.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InternalInconsistencyError, SearchExhausted
from .ifs import (
    ALL_LEFT,
    ALL_RIGHT,
    CantorParams,
    CantorPoint,
    word_from_left_endpoint,
)
from .lemmas import (
    TripleBox,
    base_boxes,
    child_box,
    refine_scaled,
    scaled_box,
)
from .numerics import Interval, Rational, RationalLike, brief, rat

CERTIFICATE_SCHEMA = "cantor-four-squares/1"

#: Hard budget for the fourth-coordinate scan depth.
MAX_SCAN_WINDOW = 4096

_ZERO_CASE = "x=0"


class Band(enum.Enum):
    """The two interval families known to be filled by three squares."""

    LOW = "low"
    MAIN = "main"


def band_interval(params: CantorParams, band: Band) -> Interval:
    """Unscaled band: [a, b] for LOW, [2*(1-r)^2, 3] for MAIN."""
    boxes = base_boxes(params)
    if band is Band.LOW:
        return boxes[2][1]
    return Interval(boxes[0][1].lo, Fraction(3))


@dataclass(frozen=True)
class KnownInterval:
    """One member of the known family: band scaled by r^(2*scale_power)."""

    scale_power: int
    band: Band
    interval: Interval


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


def _edge_candidates(params: CantorParams, n: int) -> tuple:
    """The three depth-n fourth-coordinate witnesses near the edge 1-r.

    All are attractor points: the edge itself, the right endpoint of the
    leftmost depth-2n descendant of the right half, and the left endpoint
    of its depth-(2n-1) sibling one rung up.  Values:
    1-r, 1-r + r^(2n), and 1-r + r^(2n-1) - r^(2n).
    """
    r = params.ratio
    edge = 1 - r
    return (
        ("edge0", CantorPoint("2", ALL_LEFT), edge),
        ("edge1", CantorPoint("2" + "1" * (2 * n - 1), ALL_RIGHT), edge + r ** (2 * n)),
        (
            "edge2",
            CantorPoint("2" + "1" * (2 * n - 2) + "2", ALL_LEFT),
            edge + r ** (2 * n - 1) - r ** (2 * n),
        ),
    )


@dataclass(frozen=True)
class FourthChoice:
    """A successful fourth-coordinate pick: the point, its exact value,
    the known interval hit by y - value^2, and a diagnostic case tag."""

    kind: str
    point: CantorPoint
    value: Rational
    target: KnownInterval
    tag: str


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


def _base_candidates(params: CantorParams, band: Band) -> tuple:
    boxes = base_boxes(params)
    if band is Band.LOW:
        return (boxes[2],)
    return (boxes[0], boxes[1])


def _select_base(params: CantorParams, band: Band, target: Rational):
    for box, img in _base_candidates(params, band):
        if img.lo <= target <= img.hi:
            return box, img
    raise ValueError(
        "target %s outside the %s band image" % (target, band.value)
    )


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


@dataclass(frozen=True)
class ThreeSquareResult:
    """Outcome of following a target down ``depth`` subdivisions."""

    points: tuple  # three CantorPoints
    box: TripleBox
    bound: Rational
    trace: tuple  # ChildIndex per refinement step


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


@dataclass(frozen=True)
class Certificate:
    """A verifiable four-square decomposition of x.

    points/values order: the three band points first, the fourth
    coordinate last.  ``scaling`` is the reduction exponent s, ``case``
    records the fourth-coordinate pick as "kind:band:scale_power" (or
    "x=0"), and ``trace`` lists the child-box choices at the band level.
    Rebuilding with the same inputs reproduces the certificate bit for
    bit, and :func:`Certificate.canonical_json` is byte-stable.
    """

    alpha: Rational
    x: Rational
    points: tuple
    values: tuple
    residual: Rational
    bound: Rational
    depth: int
    scaling: int
    case: str
    trace: tuple

    def to_json_dict(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "alpha": str(self.alpha),
            "x": str(self.x),
            "points": [p.to_json() for p in self.points],
            "values": [str(v) for v in self.values],
            "residual": str(self.residual),
            "bound": str(self.bound),
            "depth": self.depth,
            "scaling": self.scaling,
            "case": self.case,
            "trace": ["".join(str(bit) for bit in idx) for idx in self.trace],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        """Parse a certificate, strictly: counts must be JSON integers
        (not booleans), rationals and the case tag strings, and points,
        values and trace lists; anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("certificate JSON must be an object")
        if data.get("schema") != CERTIFICATE_SCHEMA:
            raise ValueError(
                "unsupported certificate schema %r" % (data.get("schema"),)
            )
        try:
            points = tuple(
                CantorPoint.from_json(p) for p in _json_field(data, "points", list)
            )
            values = tuple(
                _json_rational(v, "values") for v in _json_field(data, "values", list)
            )
            trace = []
            for item in _json_field(data, "trace", list):
                if not isinstance(item, str) or len(item) != 3 or any(
                    ch not in "01" for ch in item
                ):
                    raise ValueError("bad trace entry %r" % (item,))
                trace.append(tuple(int(ch) for ch in item))
            return cls(
                alpha=_json_rational(data["alpha"], "alpha"),
                x=_json_rational(data["x"], "x"),
                points=points,
                values=values,
                residual=_json_rational(data["residual"], "residual"),
                bound=_json_rational(data["bound"], "bound"),
                depth=_json_field(data, "depth", int),
                scaling=_json_field(data, "scaling", int),
                case=_json_field(data, "case", str),
                trace=tuple(trace),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed certificate: %s" % (exc,)) from exc


_JSON_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _json_field(data: dict, key: str, kind: type):
    """``data[key]``, required to be of JSON type ``kind``; booleans are
    refused where an integer is expected."""
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            "certificate field %r must be %s, got %r"
            % (key, _JSON_TYPE_NAMES[kind], value)
        )
    return value


def _json_rational(value, key: str) -> Rational:
    if not isinstance(value, str):
        raise ValueError(
            "certificate field %r must hold rationals as strings, got %r"
            % (key, value)
        )
    return rat(value)


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


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reasons: tuple

    def __bool__(self) -> bool:
        return self.ok


_EDGE_KINDS = ("edge0", "edge1", "edge2")


def _expected_fourth_point(
    params: CantorParams, kind: str, band: Band, power: int
) -> Optional[CantorPoint]:
    """Unscaled fourth point demanded by a case tag, or None if the tag
    combination is invalid."""
    if kind == "one":
        return CantorPoint("", ALL_RIGHT) if (band, power) == (Band.MAIN, 0) else None
    if kind == "zero":
        return CantorPoint("", ALL_LEFT) if (band, power) == (Band.MAIN, 0) else None
    if kind in _EDGE_KINDS:
        n = power + 1 if band is Band.LOW else power
        if n < 1:
            return None
        for cand_kind, point, _ in _edge_candidates(params, n):
            if cand_kind == kind:
                return point
        return None
    return None


def _verify_zero_case(cert: Certificate) -> VerificationResult:
    """The ``x=0`` certificate: x, every value, the residual and the bound
    are zero, the trace is empty, and every point is zero, which for an
    attractor point means a prefix of left-map digits only (each right-map
    digit adds a positive term) and the all-left tail."""
    reasons = []
    if cert.x != 0:
        reasons.append("zero case with x=%s" % (brief(cert.x),))
    for pos, point in enumerate(cert.points):
        if point.tail != ALL_LEFT or point.prefix.strip("1"):
            reasons.append("point %d is not zero in the zero case" % (pos,))
    if (any(v != 0 for v in cert.values) or cert.residual != 0
            or cert.bound != 0 or cert.trace):
        reasons.append("zero case must have zero values, zero residual, "
                       "zero bound and an empty trace")
    return VerificationResult(not reasons, tuple(reasons))


def verify_certificate(params: CantorParams, cert: Certificate) -> VerificationResult:
    """Re-derive a certificate's claims from its words alone.

    Recomputes every value from its digit word, the residual from the
    values, and the bound and band membership by replaying the trace from
    the seed box.  Shares none of the decomposer's arithmetic: this is
    the independent audit path for certificates from untrusted sources.
    The case tag, the prefix lengths and the trace length are checked
    before any value is recomputed, and a failure never raises: reasons
    describe rationals too long to print by their size.
    """
    reasons = []

    def fail(msg: str) -> VerificationResult:
        reasons.append(msg)
        return VerificationResult(False, tuple(reasons))

    if cert.alpha != params.alpha:
        return fail("alpha mismatch: certificate %s, parameters %s"
                    % (brief(cert.alpha), brief(params.alpha)))
    if not 0 <= cert.x <= 4:
        return fail("x=%s outside [0, 4]" % (brief(cert.x),))
    if len(cert.points) != 4 or len(cert.values) != 4:
        return fail("certificate must list exactly 4 points and 4 values")
    if cert.depth < 0 or cert.scaling < 0:
        return fail("negative depth or scaling")
    if cert.case == _ZERO_CASE:
        return _verify_zero_case(cert)

    if not params.thick:
        return fail("nonzero certificates require alpha >= 3")

    pieces = cert.case.split(":")
    if len(pieces) != 3:
        return fail("malformed case tag %r" % (cert.case,))
    kind, band_name, power_text = pieces
    try:
        band = Band(band_name)
        power = int(power_text)
    except ValueError:
        return fail("malformed case tag %r" % (cert.case,))
    if power < 0:
        return fail("negative scale power in case tag")

    # Structural checks first, so that no work below grows with a number
    # the certificate merely states: every prefix length follows from the
    # scaling, the case tag and the depth, and the trace has one entry
    # per subdivision.  The fourth point's prefix is the scaling prefix
    # plus the digits its case tag implies; a band point's prefix is the
    # lift (scaling + power) plus its seed box's level plus the depth.
    n = power + 1 if band is Band.LOW else power
    tag_digits = {"one": 0, "zero": 0, "edge0": 1, "edge1": 2 * n, "edge2": 2 * n}
    if kind not in tag_digits:
        return fail("invalid case combination %r" % (cert.case,))
    if len(cert.points[3].prefix) != cert.scaling + tag_digits[kind]:
        return fail("fourth point does not match case tag %r" % (cert.case,))
    seed_level = 2 if band is Band.LOW else 1
    band_digits = cert.scaling + power + seed_level + cert.depth
    for pos, point in enumerate(cert.points[:3]):
        if len(point.prefix) != band_digits:
            return fail("point %d prefix has %d digits; scaling, case tag and "
                        "depth give %d" % (pos, len(point.prefix), band_digits))
    if len(cert.trace) != cert.depth:
        return fail("trace length %d does not match depth %d"
                    % (len(cert.trace), cert.depth))

    for pos, (point, value) in enumerate(zip(cert.points, cert.values)):
        recomputed = point.value(params)
        if recomputed != value:
            reasons.append(
                "point %d value mismatch: word gives %s, certificate says %s"
                % (pos, brief(recomputed), brief(value))
            )
    residual = cert.x - sum((v * v for v in cert.values), Fraction(0))
    if residual != cert.residual:
        reasons.append(
            "residual mismatch: recomputed %s, certificate says %s"
            % (brief(residual), brief(cert.residual))
        )
    if not 0 <= residual <= cert.bound:
        reasons.append(
            "residual %s outside [0, bound=%s]"
            % (brief(residual), brief(cert.bound))
        )
    if reasons:
        return VerificationResult(False, tuple(reasons))

    r = params.ratio
    y = cert.x / r ** (2 * cert.scaling)
    if not (1 - r) ** 2 < y <= 4:
        return fail("scaling %d does not reduce x into ((1-r)^2, 4]"
                    % (cert.scaling,))
    if kind == "edge0":
        # t = y - (1-r)^2 must satisfy t / r^(2*power) <= 3 with r < 1/2,
        # so 4^power < 3/t, which bounds power by the bit lengths of t.
        t = y - (1 - r) ** 2
        if 2 * power > t.denominator.bit_length() - t.numerator.bit_length() + 3:
            return fail("scale power %d too large for case tag %r"
                        % (power, cert.case))

    expected = _expected_fourth_point(params, kind, band, power)
    if expected is None:
        return fail("invalid case combination %r" % (cert.case,))
    if cert.points[3] != expected.with_scaling_prefix(cert.scaling):
        return fail("fourth point does not match case tag %r" % (cert.case,))
    t_base = (y - expected.value(params) ** 2) / r ** (2 * power)
    base = band_interval(params, band)
    if not base.contains_value(t_base):
        return fail("reduced target %s outside the %s band"
                    % (brief(t_base), band.value))

    try:
        box, img = _select_base(params, band, t_base)
    except ValueError as exc:
        return fail(str(exc))
    for step, index in enumerate(cert.trace):
        if len(index) != 3 or any(bit not in (0, 1) for bit in index):
            return fail("malformed trace entry %r at step %d" % (index, step))
        box = child_box(params, box, index)
        img = box.image(params)
        if not img.contains_value(t_base):
            return fail("target leaves the box image at step %d" % (step,))

    lift = cert.scaling + power
    prefix = "1" * lift
    tails = {p.tail for p in cert.points[:3]}
    if len(tails) != 1:
        return fail("band points must share one tail")
    tail = tails.pop()
    if tail == ALL_RIGHT and t_base != img.hi:
        return fail("right-endpoint tails without an exact top hit")
    if tail == ALL_LEFT and t_base == img.hi:
        return fail("exact top hit must use right-endpoint tails")
    for pos, (point, left) in enumerate(zip(cert.points[:3], box.lefts)):
        if not point.prefix.startswith(prefix):
            return fail("point %d is missing the scaling prefix" % (pos,))
        word = point.prefix[len(prefix):]
        if word != word_from_left_endpoint(params, left, box.level):
            return fail("point %d word does not match the replayed box" % (pos,))

    bound = r ** (2 * lift) * (img.hi - img.lo)
    if bound != cert.bound:
        return fail("bound mismatch: replay gives %s, certificate says %s"
                    % (brief(bound), brief(cert.bound)))
    return VerificationResult(True, ())


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
