"""Output checks that share no arithmetic with cantorsq.

Every function here recomputes what it needs from first principles
(digit words, corner formulas, integer Horner sums) and returns a list
of problems; an empty list means the output passed.  Nothing here calls
into the package, so a fault in the program cannot hide itself by also
corrupting its own check.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement, product

CERTIFICATE_KEYS = {
    "schema", "alpha", "x", "points", "values", "residual", "bound",
    "depth", "scaling", "case", "trace",
}


def ratio_of(alpha: Fraction) -> Fraction:
    """Contraction ratio r = (1 - 1/alpha) / 2."""
    return (1 - 1 / alpha) / 2


def word_value(ratio: Fraction, prefix: str, tail: str) -> Fraction:
    """Value of the point addressed by ``prefix`` plus a constant tail.

    With r = p/q the left endpoint times q^n is the integer
    sum_k (d_k - 1) (q - p) p^(k-1) q^(n-k), built here by Horner's rule;
    the all-right tail adds the interval width p^n / q^n.
    """
    p, q = ratio.numerator, ratio.denominator
    acc, pk = 0, 1
    for digit in prefix:
        acc = acc * q + (q - p) * pk if digit == "2" else acc * q
        pk *= p
    if tail == "R":
        acc += pk
    return Fraction(acc, q ** len(prefix))


def certificate_bound_cap(ratio: Fraction, depth: int) -> Fraction:
    """6 r^N + 3 r^(2N): no depth-N certificate may claim a larger bound."""
    rn = ratio ** depth
    return 6 * rn + 3 * rn * rn


def check_certificate(text: str, alpha: Fraction, x: Fraction, depth: int) -> list:
    """Check a canonical certificate against the decomposition it claims.

    Requires the echoed inputs, four points with words over {1, 2} and
    L/R tails (every such point lies in the Cantor set), listed values
    equal to the word values, x - sum v^2 equal to the stated residual,
    0 <= residual <= bound, and bound <= 6 r^N + 3 r^(2N).
    """
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return ["not JSON: %s" % exc]
    if not isinstance(cert, dict) or not CERTIFICATE_KEYS <= set(cert):
        return ["missing keys"]
    problems = []
    try:
        if Fraction(cert["alpha"]) != alpha:
            problems.append("alpha %s, expected %s" % (cert["alpha"], alpha))
        if Fraction(cert["x"]) != x:
            problems.append("x %s, expected %s" % (cert["x"], x))
        if cert["depth"] != depth:
            problems.append("depth %r, expected %d" % (cert["depth"], depth))
        points, listed = cert["points"], cert["values"]
        if len(points) != 4 or len(listed) != 4:
            return problems + ["need four points and four values"]
        ratio = ratio_of(alpha)
        values = []
        for pos, point in enumerate(points):
            prefix, tail = point["prefix"], point["tail"]
            if not set(prefix) <= {"1", "2"} or tail not in ("L", "R"):
                problems.append("point %d is not a Cantor-set address" % pos)
                continue
            value = word_value(ratio, prefix, tail)
            values.append(value)
            if Fraction(listed[pos]) != value:
                problems.append("point %d listed value differs from its word" % pos)
        if problems:
            return problems
        residual = Fraction(cert["residual"])
        bound = Fraction(cert["bound"])
        if x - sum(v * v for v in values) != residual:
            problems.append("x - sum of squares differs from the residual")
        if not 0 <= residual <= bound:
            problems.append("residual outside [0, bound]")
        if bound > certificate_bound_cap(ratio, depth):
            problems.append("bound above 6 r^N + 3 r^(2N)")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append("malformed field: %r" % (exc,))
    return problems


def check_verdict(accepted: bool, expect_valid: bool) -> list:
    """A valid certificate must be accepted and a mutated one rejected."""
    if accepted == expect_valid:
        return []
    return ["valid certificate rejected" if expect_valid else "mutant accepted"]


# --- images ---------------------------------------------------------------


def level_words(level: int) -> list:
    return ["".join(w) for w in product("12", repeat=level)]


def box_image(kind: str, lefts: tuple, width: Fraction) -> tuple:
    """Corner formula for one box of basic intervals [a, a + width].

    Each map is monotone in every coordinate on nonnegative boxes, so its
    image is the interval between two corners.
    """
    if kind == "sq":
        return (sum(a * a for a in lefts), sum((a + width) ** 2 for a in lefts))
    if kind == "sum":
        low = sum(lefts)
        return (low, low + len(lefts) * width)
    first, second = lefts
    return (first - second - width, first - second + width)


def merge(intervals) -> list:
    """Normal form of a union of closed intervals: sorted, strictly apart."""
    parts: list = []
    for lo, hi in sorted(intervals):
        if parts and lo <= parts[-1][1]:
            if hi > parts[-1][1]:
                parts[-1] = (parts[-1][0], hi)
        else:
            parts.append((lo, hi))
    return parts


def oracle_box_count(kind: str, arity: int, level: int) -> int:
    pieces = 1 << level
    if kind == "diff":
        return pieces * pieces
    return math.comb(pieces + arity - 1, arity)


def brute_image(alpha: Fraction, kind: str, arity: int, level: int) -> list:
    """The exact image by enumerating every box; small levels only."""
    ratio = ratio_of(alpha)
    width = ratio ** level
    lefts = [word_value(ratio, w, "L") for w in level_words(level)]
    boxes = (
        product(lefts, repeat=2)
        if kind == "diff"
        else combinations_with_replacement(lefts, arity)
    )
    return merge(box_image(kind, box, width) for box in boxes)


def _covers(parts: list, los: list, lo: Fraction, hi: Fraction) -> bool:
    idx = bisect_right(los, lo) - 1
    return idx >= 0 and hi <= parts[idx][1]


def check_image(parts: list, alpha: Fraction, kind: str, arity: int,
                level: int, sample_boxes, oracle=None) -> list:
    """Properties every correct image has, plus exact equality with the
    brute-force ``oracle`` when one is given.

    ``parts`` is the union as (lo, hi) pairs; ``sample_boxes`` lists
    tuples of digit words, one word per coordinate, whose corner-formula
    images must lie inside the union.
    """
    if not parts:
        return ["empty image"]
    problems = []
    if any(lo > hi for lo, hi in parts) or any(
            hi >= next_lo for (_, hi), (next_lo, _) in zip(parts, parts[1:])):
        problems.append("parts not sorted and strictly apart")
    hull = (-1, 1) if kind == "diff" else (0, arity)
    if (parts[0][0], parts[-1][1]) != hull:
        problems.append("hull %s, expected %s" % ((parts[0][0], parts[-1][1]), hull))
    ratio = ratio_of(alpha)
    if alpha >= 3:
        full = {("sq", 4): (0, 4), ("sum", 2): (0, 2), ("diff", 2): (-1, 1)}
        if (kind, arity) in full and parts != [full[kind, arity]]:
            problems.append("thick-regime image is not the full interval")
    elif kind == "sq" and arity == 4 and level >= 1:
        gap_lo, gap_hi = 4 * ratio * ratio, (1 - ratio) ** 2
        if any(lo < gap_hi and hi > gap_lo for lo, hi in parts):
            problems.append("thin-regime image enters the gap (4r^2, (1-r)^2)")
    los = [lo for lo, _ in parts]
    width = ratio ** level
    for words in sample_boxes:
        lefts = tuple(word_value(ratio, w, "L") for w in words)
        if not _covers(parts, los, *box_image(kind, lefts, width)):
            problems.append("box %s lies outside the image" % (words,))
            break
    if oracle is not None and parts != oracle:
        problems.append("differs from the brute-force image")
    return problems


def check_nested(finer: list, coarser: list) -> list:
    """The level-(n+1) image must lie inside the level-n image."""
    los = [lo for lo, _ in coarser]
    if all(_covers(coarser, los, lo, hi) for lo, hi in finer):
        return []
    return ["level n+1 image not inside the level n image"]
