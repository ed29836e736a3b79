"""Exact rational scalars, closed intervals, and normalized interval unions.

Everything downstream (level sets, set images, decomposition certificates)
reduces to arithmetic on finite unions of closed intervals with rational
endpoints, so this module stays small and exact: no floating point enters
any computation.  The only concession to human eyes is
:func:`decimal_preview`, which rounds a rational to a fixed number of
significant digits for display.

``fractions.Fraction`` already provides the exact scalar we need
(lowest terms, positive denominator, arbitrary precision, exact field
arithmetic and total order), so it is used directly as the ``Rational``
type rather than wrapped.

:class:`Frozen` is the base of every value class in the package:
hand-written ``__slots__`` classes rather than ``dataclasses``, whose import
chain (``inspect``, ``ast``, ``dis``) costs resident memory and whose
generated ``__init__`` is slower than a written one.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from operator import ge, gt
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Rational:
    """Coerce ``value`` to an exact Rational.

    Accepts Fractions, ints, and strings of the forms ``"p/q"``, ``"n"``,
    or a terminating decimal such as ``"0.25"`` (parsed exactly).  Floats
    are rejected: they carry binary rounding error and have no place here.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing float %r: pass an int, Fraction, or exact string" % (value,)
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("not an exact rational: %r" % (value,)) from exc
    raise TypeError("cannot interpret %r as a rational" % (value,))


#: Numbers with a numerator or denominator longer than this many bits are
#: described by their size in messages: by default CPython refuses to
#: convert an int of more than 4300 digits (~14,300 bits) to text.
_BRIEF_BITS = 10_000


def brief(value: Rational) -> str:
    """``str(value)``, or its size when its digits are too long to print."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > _BRIEF_BITS:
        return "<number of %d bits>" % bits
    return str(value)


def decimal_preview(value: RationalLike, digits: int = 30) -> str:
    """Round ``value`` to ``digits`` significant digits, for display only."""
    q = rat(value)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


_setfield = object.__setattr__
_new = object.__new__


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, stores them in
    ``__slots__`` and sets them once in ``__init__``, with
    :meth:`_set_fields` or, where construction is hot, one ``_setfield``
    call per field.  Instances compare and hash as the tuple of their
    fields, equal only instances of the same class, print as
    ``Name(field=value, ...)`` and refuse to assign or delete attributes.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setfield(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), self._astuple()


class Interval(Frozen):
    """A closed interval [lo, hi] with rational endpoints, lo <= hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        lo = rat(lo)
        hi = rat(hi)
        if lo > hi:
            raise ValueError("empty interval: lo=%s > hi=%s" % (lo, hi))
        _setfield(self, "lo", lo)
        _setfield(self, "hi", hi)

    def __repr__(self) -> str:
        return "Interval(%s, %s)" % (self.lo, self.hi)

    def length(self) -> Rational:
        return self.hi - self.lo

    def contains_value(self, x: RationalLike) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        # Closed intervals: touching at a single point counts.
        return self.lo <= other.hi and other.lo <= self.hi

    def scaled(self, factor: RationalLike) -> "Interval":
        t = rat(factor)
        if t >= 0:
            return Interval(self.lo * t, self.hi * t)
        return Interval(self.hi * t, self.lo * t)

    def translated(self, offset: RationalLike) -> "Interval":
        d = rat(offset)
        return Interval(self.lo + d, self.hi + d)

    def to_json(self) -> list:
        return [str(self.lo), str(self.hi)]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Interval":
        if len(data) != 2:
            raise ValueError("interval JSON must be a [lo, hi] pair")
        return cls(rat(data[0]), rat(data[1]))


def _sweep(sorted_pairs: Iterable[tuple]) -> list:
    """Merge closed (lo, hi) pairs, sorted by lo, into the normal form of
    their union: overlapping or touching pairs merge, so the parts are
    separated by strict gaps.  Works on ints and Fractions alike."""
    pairs = iter(sorted_pairs)
    first = next(pairs, None)
    if first is None:
        return []
    lo, hi = first
    merged: list = []
    for next_lo, next_hi in pairs:
        if next_lo > hi:
            merged.append((lo, hi))
            lo, hi = next_lo, next_hi
        elif next_hi > hi:
            hi = next_hi
    merged.append((lo, hi))
    return merged


def _interval(lo: Rational, hi: Rational) -> Interval:
    """An Interval of checked Fractions lo <= hi, without re-checking."""
    iv = _new(Interval)
    _setfield(iv, "lo", lo)
    _setfield(iv, "hi", hi)
    return iv


class IntervalUnion(Frozen):
    """A finite union of closed intervals, kept in normal form.

    Normal form: parts sorted by left endpoint and pairwise separated by
    strict gaps.  Overlapping or touching inputs are merged on
    construction, so two unions describe the same point set iff they
    compare equal.
    """

    __slots__ = ("parts", "_los")
    _fields = ("parts",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        merged = _sweep(sorted([(iv.lo, iv.hi) for iv in intervals]))
        _setfield(self, "parts", tuple([_interval(lo, hi) for lo, hi in merged]))
        _setfield(self, "_los", tuple([lo for lo, _ in merged]))

    @classmethod
    def _from_merged(cls, pairs: Sequence[tuple], den: int) -> "IntervalUnion":
        """The union of [lo/den, hi/den] over int pairs already in normal
        form: lo <= hi, and each part ends strictly before the next starts.

        Checks that order once, on the ints, instead of sorting and merging
        again; raises ValueError if it does not hold.
        """
        los = [lo for lo, _ in pairs]
        his = [hi for _, hi in pairs]
        if any(map(gt, los, his)) or any(map(ge, his, los[1:])):
            raise ValueError("parts are not sorted and separated by gaps")
        los = [Fraction(lo, den) for lo in los]
        his = [Fraction(hi, den) for hi in his]
        union = _new(cls)
        _setfield(union, "parts", tuple(map(_interval, los, his)))
        _setfield(union, "_los", tuple(los))
        return union

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        if not self.parts:
            return "IntervalUnion()"
        body = " | ".join("[%s, %s]" % (p.lo, p.hi) for p in self.parts)
        return "IntervalUnion(%s)" % body

    def _part_at(self, x: Rational):
        idx = bisect_right(self._los, x) - 1
        if idx < 0:
            return None
        return self.parts[idx]

    def contains(self, target: Interval) -> bool:
        """Whole-interval membership: target inside a single part.

        Parts are separated by strict gaps, so a connected target either
        fits inside one part or is not contained at all.
        """
        part = self._part_at(target.lo)
        return part is not None and target.hi <= part.hi

    def contains_value(self, x: RationalLike) -> bool:
        x = rat(x)
        part = self._part_at(x)
        return part is not None and x <= part.hi

    def contains_union(self, other: "IntervalUnion") -> bool:
        return all(self.contains(p) for p in other.parts)

    def scale(self, factor: RationalLike) -> "IntervalUnion":
        """Pointwise scaling {t*x : x in self}; t = 0 collapses to {0}."""
        t = rat(factor)
        if self.is_empty:
            return IntervalUnion()
        if t == 0:
            return IntervalUnion([Interval(0, 0)])
        return IntervalUnion(p.scaled(t) for p in self.parts)

    def measure(self) -> Rational:
        """Total length (Lebesgue measure) of the union."""
        # One integer sum over a common denominator rather than a
        # Fraction sum, which takes a gcd per part.
        den = lcm(*{end.denominator for p in self.parts for end in (p.lo, p.hi)})
        return Fraction(sum([
            p.hi.numerator * (den // p.hi.denominator)
            - p.lo.numerator * (den // p.lo.denominator)
            for p in self.parts
        ]), den)

    def hull(self):
        if self.is_empty:
            return None
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def to_json(self) -> list:
        return [p.to_json() for p in self.parts]

    @classmethod
    def from_json(cls, data: Iterable[Sequence[str]]) -> "IntervalUnion":
        return cls(Interval.from_json(item) for item in data)


def box_sum_of_squares_image(box: Sequence[Interval]) -> Interval:
    """Exact image of a box under (x_1, ..., x_k) -> sum of squares.

    Requires 1 <= k <= 4 and every interval inside [0, inf).  On such a
    box the map is coordinatewise monotone, so the image is the closed
    interval between the all-lo and all-hi corners.
    """
    if not 1 <= len(box) <= 4:
        raise ValueError("box must have 1 to 4 coordinates, got %d" % len(box))
    for iv in box:
        if iv.lo < 0:
            raise ValueError("sum-of-squares box must be nonnegative, got %r" % (iv,))
    lo = sum((iv.lo * iv.lo for iv in box), Fraction(0))
    hi = sum((iv.hi * iv.hi for iv in box), Fraction(0))
    return Interval(lo, hi)


class OpenInterval(Frozen):
    """The closure of an interval plus strictness flags for each endpoint.

    Used to report open gaps exactly: the point set is (lo, hi) when both
    flags are set, with the closed variants available by clearing them.
    """

    __slots__ = _fields = ("lo", "hi", "lo_strict", "hi_strict")

    def __init__(self, lo: RationalLike, hi: RationalLike,
                 lo_strict: bool = True, hi_strict: bool = True) -> None:
        self._set_fields(rat(lo), rat(hi), lo_strict, hi_strict)

    @property
    def is_empty(self) -> bool:
        if self.lo_strict or self.hi_strict:
            return self.lo >= self.hi
        return self.lo > self.hi

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "lo_strict": self.lo_strict,
            "hi_strict": self.hi_strict,
        }
