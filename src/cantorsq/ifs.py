"""Middle-1/alpha Cantor sets as an iterated function system.

For a parameter alpha > 1 put r = (1 - 1/alpha)/2 and contract the unit
interval by the two affine maps

    left(x)  = r*x,
    right(x) = r*x + (1 - r),

which keep the middle open 1/alpha-fraction out.  Applying all words of
length n to [0, 1] yields the level-n set: 2^n closed basic intervals of
length r^n whose left endpoints we enumerate exactly.  The attractor is
the decreasing intersection of the level sets; alpha = 3 gives the
classical middle-thirds set.

Digit convention: words are strings over {1, 2}, digit 1 = left map,
digit 2 = right map.  The left endpoint of the basic interval addressed
by a word sigma is

    value(sigma) = ((1 - r)/r) * sum_k (sigma_k - 1) * r^k.

Points of the attractor are addressed by a finite prefix word plus an
infinite constant tail: tail "L" (all-left) pins the left endpoint of the
prefix's basic interval, tail "R" (all-right) its right endpoint.  Both
endpoints of every basic interval belong to the attractor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import CapExceeded, ThinRegimeError
from .numerics import (
    Frozen,
    Interval,
    IntervalUnion,
    Rational,
    RationalLike,
    _setfield,
    rat,
)

#: Refuse to enumerate a level with more than this many basic intervals.
DEFAULT_LEVEL_CAP = 1 << 20

ALL_LEFT = "L"
ALL_RIGHT = "R"

_DIGITS = frozenset("12")


def check_word(word: str) -> str:
    """Validate a digit word over {1, 2} and return it unchanged."""
    if not isinstance(word, str):
        raise TypeError("word must be a string of digits over {1, 2}")
    if not _DIGITS.issuperset(word):
        raise ValueError("word %r has digits outside {1, 2}" % (word,))
    return word


class CantorParams(Frozen):
    """Validated parameter pair (alpha, ratio) with ratio = (1 - 1/alpha)/2."""

    __slots__ = _fields = ("alpha", "ratio")

    def __init__(self, alpha: RationalLike, ratio: RationalLike) -> None:
        alpha = rat(alpha)
        ratio = rat(ratio)
        if alpha <= 1:
            raise ValueError("alpha must exceed 1, got %s" % (alpha,))
        if ratio != (1 - 1 / alpha) / 2:
            raise ValueError(
                "inconsistent parameters: ratio %s does not match alpha %s"
                % (ratio, alpha)
            )
        self._set_fields(alpha, ratio)

    @property
    def thick(self) -> bool:
        """True when alpha >= 3, i.e. ratio >= 1/3."""
        return self.alpha >= 3

    def require_thick(self, operation: str) -> None:
        """Refuse ``operation`` outside the thick regime: the subdivision
        conditions and the decomposition cover are only sound there."""
        if not self.thick:
            raise ThinRegimeError(
                "%s needs alpha >= 3 (ratio >= 1/3), got alpha %s (ratio %s)"
                % (operation, self.alpha, self.ratio)
            )

    @property
    def gap_fraction(self) -> Rational:
        """Relative length 1/alpha of the gap removed from each interval."""
        return 1 / self.alpha


def make_params(alpha: RationalLike) -> CantorParams:
    """Build parameters from alpha > 1."""
    a = rat(alpha)
    if a <= 1:
        raise ValueError("alpha must exceed 1, got %s" % (a,))
    return CantorParams(a, (1 - 1 / a) / 2)


def params_from_ratio(ratio: RationalLike) -> CantorParams:
    """Build parameters from the contraction ratio, 0 < ratio < 1/2."""
    r = rat(ratio)
    if not 0 < r < Fraction(1, 2):
        raise ValueError("ratio must lie in (0, 1/2), got %s" % (r,))
    return CantorParams(1 / (1 - 2 * r), r)


def word_left_endpoint(params: CantorParams, word: str) -> Rational:
    """Left endpoint of the basic interval addressed by ``word``.

    With ratio = p/q the value times q^len(word) is an integer; Horner's
    rule builds it left to right as acc -> acc*q + [digit 2]*(q-p)*p^k
    for the k-th digit, reproducing ((1 - r)/r) * sum_k (sigma_k - 1) r^k
    with a single reduction to lowest terms at the end.
    """
    check_word(word)
    p = params.ratio.numerator
    q = params.ratio.denominator
    step = q - p
    acc = 0
    for digit in word:
        acc *= q
        if digit == "2":
            acc += step
        step *= p
    return Fraction(acc, q ** len(word))


@lru_cache(maxsize=64)
def _level_ints(params: CantorParams, level: int) -> tuple:
    """Level-``level`` left endpoints scaled by q**level, as sorted ints.

    With ratio = p/q in lowest terms every level-n left endpoint times q^n
    is an integer; the recurrence a -> (a*q, a*q + (q-p)*p^k) mirrors the
    two children of each basic interval and preserves sorted order.
    """
    p = params.ratio.numerator
    q = params.ratio.denominator
    vals = [0]
    for k in range(level):
        step = (q - p) * p**k
        vals = [a * q + child for a in vals for child in (0, step)]
    return tuple(vals)


def _checked_level_ints(
    params: CantorParams, level: int, cap: Optional[int]
) -> tuple:
    """:func:`_level_ints` once the level is nonnegative and its 2**level
    basic intervals fit under ``cap`` (default :data:`DEFAULT_LEVEL_CAP`).

    The cap is compared through its bit length, 2**level > cap exactly
    when level >= cap.bit_length() for cap >= 1, so a huge level is
    refused without building 2**level.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    cap = DEFAULT_LEVEL_CAP if cap is None else cap
    if cap < 1 or level >= cap.bit_length():
        raise CapExceeded(
            "level %d has 2^%d basic intervals, above the cap %d"
            % (level, level, cap)
        )
    return _level_ints(params, level)


def level_left_endpoints(
    params: CantorParams, level: int, cap: Optional[int] = None
) -> tuple:
    """All 2**level left endpoints of the level set, sorted ascending."""
    ints = _checked_level_ints(params, level, cap)
    den = params.ratio.denominator ** level
    return tuple(Fraction(a, den) for a in ints)


def level_set(
    params: CantorParams, level: int, cap: Optional[int] = None
) -> IntervalUnion:
    """The level set: the union of all 2**level basic intervals."""
    ints = _checked_level_ints(params, level, cap)
    den = params.ratio.denominator ** level
    width = params.ratio.numerator ** level
    return IntervalUnion(
        Interval(Fraction(a, den), Fraction(a + width, den)) for a in ints
    )


class CantorPoint(Frozen):
    """An attractor point: finite prefix word plus constant infinite tail."""

    __slots__ = _fields = ("prefix", "tail")

    def __init__(self, prefix: str, tail: str) -> None:
        check_word(prefix)
        if tail not in (ALL_LEFT, ALL_RIGHT):
            raise ValueError("tail must be %r or %r" % (ALL_LEFT, ALL_RIGHT))
        _setfield(self, "prefix", prefix)
        _setfield(self, "tail", tail)

    def value(self, params: CantorParams) -> Rational:
        """Exact coordinate: the all-left tail pins the left endpoint of
        the prefix interval, the all-right tail its right endpoint."""
        base = word_left_endpoint(params, self.prefix)
        if self.tail == ALL_RIGHT:
            return base + params.ratio ** len(self.prefix)
        return base

    def with_scaling_prefix(self, count: int) -> "CantorPoint":
        """Prepend ``count`` left-map digits, scaling the value by r**count."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return CantorPoint("1" * count + self.prefix, self.tail)

    def to_json(self) -> dict:
        return {"prefix": self.prefix, "tail": self.tail}

    @classmethod
    def from_json(cls, data: dict) -> "CantorPoint":
        return cls(data["prefix"], data["tail"])


def word_from_left_endpoint(
    params: CantorParams, value: RationalLike, level: int
) -> Optional[str]:
    """Greedy digit extraction: recover the level-``level`` word whose basic
    interval starts at ``value``, or None if there is no such word.

    At each step the level-1 split decides the digit: left-child endpoints
    live in [0, r), right-child endpoints in [1 - r, 1), and r < 1 - r,
    so the threshold 1 - r separates them exactly.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    r = params.ratio
    offset = 1 - r
    x = rat(value)
    if x < 0 or x >= 1:
        return None
    digits = []
    for _ in range(level):
        if x >= offset:
            digits.append("2")
            x = (x - offset) / r
        else:
            digits.append("1")
            x = x / r
        if x < 0 or x >= 1:
            return None
    return "".join(digits) if x == 0 else None
