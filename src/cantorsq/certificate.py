"""Four-square certificates: what they claim, their JSON form, and
their independent verifier.

A :class:`Certificate` lists four attractor points as digit words with
constant tails, their exact values, and the exact residual left after
subtracting their squares from x, together with the choices that found
them: the scaling exponent, the fourth-coordinate case tag and the trace
of child boxes below the band's seed box.  The residual is always in
[0, bound], with bound = 2*(u+v+w)*r^N + 3*r^(2N) for the final box,
rescaled.  The JSON rendering is canonical, so equal certificates
serialize to byte-identical files.

This module also defines what the case tags and traces refer to (the
two bands, their seed boxes and the fourth-coordinate witnesses near
the edge 1-r), and :func:`verify_certificate`, which re-derives every
claim from the words alone.  It uses none of the decomposer's
arithmetic (:mod:`cantorsq.decompose` and
:func:`cantorsq.lemmas.refine_scaled`).
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from typing import Optional

from .ifs import (
    ALL_LEFT,
    ALL_RIGHT,
    CantorParams,
    CantorPoint,
    word_from_left_endpoint,
)
from .lemmas import base_boxes
from .numerics import Frozen, Interval, Rational, brief, rat

CERTIFICATE_SCHEMA = "cantor-four-squares/1"

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


class Certificate(Frozen):
    """A verifiable four-square decomposition of x.

    points/values order: the three band points first, the fourth
    coordinate last.  ``scaling`` is the reduction exponent s, ``case``
    records the fourth-coordinate pick as "kind:band:scale_power" (or
    "x=0"), and ``trace`` lists the child-box choices at the band level.
    Rebuilding with the same inputs reproduces the certificate bit for
    bit, and :func:`Certificate.canonical_json` is byte-stable.
    """

    __slots__ = _fields = ("alpha", "x", "points", "values", "residual",
                           "bound", "depth", "scaling", "case", "trace")

    def __init__(self, alpha: Rational, x: Rational, points: tuple,
                 values: tuple, residual: Rational, bound: Rational,
                 depth: int, scaling: int, case: str, trace: tuple) -> None:
        self._set_fields(alpha, x, points, values, residual, bound, depth,
                         scaling, case, trace)

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


class VerificationResult(Frozen):
    __slots__ = _fields = ("ok", "reasons")

    def __init__(self, ok: bool, reasons: tuple) -> None:
        self._set_fields(ok, reasons)

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
    digit adds a positive term) and the all-left tail.  Zero needs no
    scaling, and the decomposer writes scaling 0, so any other value is
    rejected: x = 0 has one certificate per depth."""
    reasons = []
    if cert.x != 0:
        reasons.append("zero case with x=%s" % (brief(cert.x),))
    if cert.scaling != 0:
        reasons.append("zero case with scaling %d, not 0" % (cert.scaling,))
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

    Recomputes every value from its digit word and the residual from the
    values, then checks the band membership, the band points' words and
    the bound against the box that the trace reaches from its seed box.
    A child box lies inside its parent and squares are monotone on
    [0, inf), so each step's box image contains the next one's: the
    target lies in the image at every step exactly when it lies in the
    final image, and only that one is checked (:func:`_trace_image`
    builds it in one integer pass).  Only on a failure does a binary
    search over trace prefixes find the first step whose image misses
    the target.  Shares none of the decomposer's arithmetic (no descent
    condition, no child scan, no per-step rescale as in
    :func:`cantorsq.lemmas.refine_scaled`): this is the independent
    audit path for certificates from untrusted sources.  The case tag,
    the prefix lengths and the trace length are checked before any value
    is recomputed, the trace costs a few integer multiply-adds per step,
    and a failure never raises: reasons describe rationals too long to
    print by their size.
    """
    claims = _check_claims(params, cert)
    if isinstance(claims, VerificationResult):
        return claims
    return _check_final_box(params, cert, *claims)


def _check_claims(params: CantorParams, cert: Certificate):
    """Everything :func:`verify_certificate` checks before the trace.

    Returns a failed (or, for the zero case, final) VerificationResult,
    or the band, the lift (scaling + case power) and the reduced target
    that the trace must follow.
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

    return band, cert.scaling + power, t_base


def _trace_image(p: int, q: int, level: int, seed: tuple, trace) -> tuple:
    """Image of the box that ``trace`` reaches from a level-``level``
    seed box, as ints (lo, hi, scale): the image is [lo/scale, hi/scale].

    ``seed`` holds the seed's left endpoints times q^level (ratio p/q).
    A step moves a left endpoint U at level k, scaled by q^k, to
    U*q + bit*(q-p)*p^k at level k+1: Horner's rule over the bits, so the
    final lefts come out times q^n, n = level + len(trace), in one pass.
    The final side is p^n, so lo = sum U^2 and hi = sum (U + p^n)^2 over
    scale = q^(2n).
    """
    a, b, c = seed
    step = (q - p) * p**level
    for i, j, k in trace:
        a = a * q + step if i else a * q
        b = b * q + step if j else b * q
        c = c * q + step if k else c * q
        step *= p
    n = level + len(trace)
    width = p**n
    return (
        a * a + b * b + c * c,
        (a + width) ** 2 + (b + width) ** 2 + (c + width) ** 2,
        q ** (2 * n),
    )


def _check_final_box(
    params: CantorParams, cert: Certificate, band: Band, lift: int,
    t_base: Rational,
) -> VerificationResult:
    """The trace half of :func:`verify_certificate`: the target in the
    final box image, the band points' tails and words, and the bound."""

    def fail(msg: str) -> VerificationResult:
        return VerificationResult(False, (msg,))

    try:
        box, _ = _select_base(params, band, t_base)
    except ValueError as exc:
        return fail(str(exc))
    trace = cert.trace
    valid = len(trace)  # length of the well-formed prefix
    for step, index in enumerate(trace):
        if len(index) != 3 or any(bit not in (0, 1) for bit in index):
            valid = step
            break
    p = params.ratio.numerator
    q = params.ratio.denominator
    seed = tuple(x.numerator * (q**box.level // x.denominator) for x in box.lefts)
    num, den = t_base.numerator, t_base.denominator

    def image(steps: int) -> tuple:
        lo, hi, scale = _trace_image(p, q, box.level, seed, trace[:steps])
        return lo, hi, scale, lo * den <= num * scale <= hi * den

    lo, hi, scale, inside = image(valid)
    if not inside:
        # The seed image holds the target (it was selected for it), and
        # nesting makes "the image after k steps holds it" monotone in k.
        good, bad = 0, valid
        while bad - good > 1:
            mid = (good + bad) // 2
            if image(mid)[3]:
                good = mid
            else:
                bad = mid
        return fail("target leaves the box image at step %d" % (bad - 1,))
    if valid < len(trace):
        return fail("malformed trace entry %r at step %d" % (trace[valid], valid))

    tails = {point.tail for point in cert.points[:3]}
    if len(tails) != 1:
        return fail("band points must share one tail")
    tail = tails.pop()
    top = num * scale == hi * den
    if tail == ALL_RIGHT and not top:
        return fail("right-endpoint tails without an exact top hit")
    if tail == ALL_LEFT and top:
        return fail("exact top hit must use right-endpoint tails")
    prefix = "1" * lift
    for pos, (point, left) in enumerate(zip(cert.points[:3], box.lefts)):
        if not point.prefix.startswith(prefix):
            return fail("point %d is missing the scaling prefix" % (pos,))
        word = word_from_left_endpoint(params, left, box.level) + "".join(
            "2" if index[pos] else "1" for index in trace
        )
        if point.prefix[len(prefix):] != word:
            return fail("point %d word does not match the replayed box" % (pos,))

    bound = params.ratio ** (2 * lift) * Fraction(hi - lo, scale)
    if bound != cert.bound:
        return fail("bound mismatch: replay gives %s, certificate says %s"
                    % (brief(bound), brief(cert.bound)))
    return VerificationResult(True, ())
