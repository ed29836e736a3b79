"""Exact images of level sets under sums, differences, and sums of squares.

The implementation folds merged integer unions (self-similar recursion
for sum and diff, Minkowski folding for squares); the reference route
here enumerates every box of Fraction endpoints, multisets for the
symmetric maps and ordered pairs for diff.  Agreement of the two is the
point of the module.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorsq
from cantorsq import (
    CapExceeded,
    Interval,
    IntervalUnion,
    ImageRequest,
    MapKind,
    cover_report,
    enumeration_count,
    gap_check,
    image,
    level_left_endpoints,
    make_params,
    nestedness_check,
    params_from_ratio,
)
from cantorsq.ifs import _level_ints
from cantorsq.images import _minkowski

F = Fraction

#: Thick (ratio >= 1/3) and thin ratios every oracle sweep includes.
ORACLE_RATIOS = (F(1, 3), F(5, 14), F(3, 8), F(9, 20), F(49, 100), F(1, 4))

#: (map kind, arity) pairs the oracle sweeps cover.
ORACLE_MAPS = tuple(
    (kind, arity)
    for kind in (MapKind.SUM_OF_SQUARES, MapKind.SUM)
    for arity in (1, 2, 3, 4)
) + ((MapKind.DIFFERENCE, 2),)


def brute_image(params, level, arity, kind):
    pts = level_left_endpoints(params, level)
    width = params.ratio ** level
    pieces = []
    if kind is MapKind.SUM_OF_SQUARES:
        for combo in combinations_with_replacement(pts, arity):
            pieces.append(Interval(
                sum(v * v for v in combo),
                sum((v + width) ** 2 for v in combo),
            ))
    elif kind is MapKind.SUM:
        for combo in combinations_with_replacement(pts, arity):
            total = sum(combo)
            pieces.append(Interval(total, total + arity * width))
    else:
        for a in pts:
            for b in pts:
                pieces.append(Interval(a - b - width, a - b + width))
    return IntervalUnion(pieces)


def plain_rows_spy(monkeypatch):
    """Patch ``images._plain_rows`` to record how many rows it takes."""
    calls = []
    plain = cantorsq.images._plain_rows

    def spy(*args):
        calls.append(len(args[0]))
        return plain(*args)

    monkeypatch.setattr(cantorsq.images, "_plain_rows", spy)
    return calls


class TestRequestValidation:
    def test_bad_level(self, params3):
        with pytest.raises(ValueError):
            ImageRequest(params3, -1, 2, MapKind.SUM)

    @pytest.mark.parametrize("arity", [0, 5])
    def test_bad_arity(self, params3, arity):
        with pytest.raises(ValueError):
            ImageRequest(params3, 1, arity, MapKind.SUM_OF_SQUARES)

    def test_difference_needs_two(self, params3):
        with pytest.raises(ValueError):
            ImageRequest(params3, 1, 3, MapKind.DIFFERENCE)
        ImageRequest(params3, 1, 2, MapKind.DIFFERENCE)


class TestEnumerationCount:
    def test_symmetric_multisets(self, params3):
        assert enumeration_count(ImageRequest(params3, 1, 4, MapKind.SUM_OF_SQUARES)) == 5
        assert enumeration_count(ImageRequest(params3, 2, 3, MapKind.SUM_OF_SQUARES)) == 20
        assert enumeration_count(ImageRequest(params3, 3, 1, MapKind.SUM)) == 8

    def test_difference_is_ordered(self, params3):
        assert enumeration_count(ImageRequest(params3, 2, 2, MapKind.DIFFERENCE)) == 16


class TestFrozenImages:
    def test_squares_arity_one(self, params3):
        img = image(ImageRequest(params3, 1, 1, MapKind.SUM_OF_SQUARES))
        assert img.parts == (Interval(0, F(1, 9)), Interval(F(4, 9), 1))

    def test_squares_arity_two(self, params3):
        img = image(ImageRequest(params3, 1, 2, MapKind.SUM_OF_SQUARES))
        assert img.parts == (Interval(0, F(2, 9)), Interval(F(4, 9), 2))

    def test_squares_arity_four_fills(self, params3):
        for level in (1, 2, 3):
            img = image(ImageRequest(params3, level, 4, MapKind.SUM_OF_SQUARES))
            assert img.parts == (Interval(0, 4),)

    def test_sum_and_difference_thick(self, params3):
        assert image(ImageRequest(params3, 1, 2, MapKind.SUM)).parts == (
            Interval(0, 2),
        )
        assert image(ImageRequest(params3, 1, 2, MapKind.DIFFERENCE)).parts == (
            Interval(-1, 1),
        )

    def test_thin_regime_breaks_up(self):
        p = make_params(2)
        assert image(ImageRequest(p, 1, 2, MapKind.SUM)).parts == (
            Interval(0, F(1, 2)),
            Interval(F(3, 4), F(5, 4)),
            Interval(F(3, 2), 2),
        )
        assert image(ImageRequest(p, 1, 2, MapKind.DIFFERENCE)).parts == (
            Interval(-1, F(-1, 2)),
            Interval(F(-1, 4), F(1, 4)),
            Interval(F(1, 2), 1),
        )
        assert image(ImageRequest(p, 1, 4, MapKind.SUM_OF_SQUARES)).parts == (
            Interval(0, F(1, 4)),
            Interval(F(9, 16), 4),
        )


class TestAgainstBruteForce:
    @pytest.mark.parametrize("alpha", [3, 4, F(5, 2)])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_squares(self, alpha, level):
        params = make_params(alpha)
        for arity in (1, 2, 3):
            got = image(ImageRequest(params, level, arity, MapKind.SUM_OF_SQUARES))
            want = brute_image(params, level, arity, MapKind.SUM_OF_SQUARES)
            assert got.parts == want.parts

    @pytest.mark.parametrize("alpha", [3, 4, F(5, 2)])
    def test_sum_and_difference(self, alpha):
        params = make_params(alpha)
        for level in (1, 2, 3):
            for arity in (2, 3, 4):
                got = image(ImageRequest(params, level, arity, MapKind.SUM))
                assert got.parts == brute_image(
                    params, level, arity, MapKind.SUM
                ).parts
            got = image(ImageRequest(params, level, 2, MapKind.DIFFERENCE))
            assert got.parts == brute_image(
                params, level, 2, MapKind.DIFFERENCE
            ).parts


class TestOracleSweep:
    @pytest.mark.parametrize("ratio", ORACLE_RATIOS, ids=str)
    def test_fixed_ratios(self, ratio):
        params = params_from_ratio(ratio)
        for level in range(5):
            for kind, arity in ORACLE_MAPS:
                got = image(ImageRequest(params, level, arity, kind))
                want = brute_image(params, level, arity, kind)
                assert got.parts == want.parts, (ratio, level, arity, kind)

    @settings(max_examples=40, deadline=None)
    @given(
        ratio=st.one_of(
            st.sampled_from(ORACLE_RATIOS),
            st.integers(3, 60).flatmap(
                lambda q: st.integers(1, (q - 1) // 2).map(lambda p: F(p, q))
            ),
        ),
        level=st.integers(0, 4),
        kind_arity=st.sampled_from(ORACLE_MAPS),
    )
    def test_random_ratios(self, ratio, level, kind_arity):
        kind, arity = kind_arity
        params = params_from_ratio(ratio)
        got = image(ImageRequest(params, level, arity, kind))
        assert got.parts == brute_image(params, level, arity, kind).parts

    @pytest.mark.parametrize("ratio", [F(1, 3), F(1, 4)], ids=str)
    def test_blocked_sweeps(self, monkeypatch, ratio):
        """Sweeping the pair list every few pairs gives the same union.  At
        ratio 1/4 the union outgrows a row, so the fold reaches the plain
        path that sweeps in blocks; at 1/3 it keeps skipping."""
        monkeypatch.setattr(cantorsq.images, "_SWEEP_BLOCK", 5)
        calls = plain_rows_spy(monkeypatch)
        cantorsq.images._image_core.cache_clear()
        params = params_from_ratio(ratio)
        try:
            for arity in (2, 3, 4):
                request = ImageRequest(params, 3, arity, MapKind.SUM_OF_SQUARES)
                assert image(request).parts == brute_image(
                    params, 3, arity, MapKind.SUM_OF_SQUARES).parts
        finally:
            cantorsq.images._image_core.cache_clear()
        assert bool(calls) == (ratio == F(1, 4))

    @pytest.mark.parametrize("kind", [MapKind.SUM, MapKind.DIFFERENCE])
    def test_endpoints_beyond_int64(self, kind):
        """At ratio 499/1000 and level 7 the scaled endpoints pass 2^62."""
        params = params_from_ratio(F(499, 1000))
        assert params.ratio.denominator ** 7 > 1 << 62
        got = image(ImageRequest(params, 7, 2, kind))
        assert got.parts == brute_image(params, 7, 2, kind).parts


def squares_at(ratio, level):
    """The level's squared basic intervals as int pairs scaled by q^(2n)."""
    params = params_from_ratio(ratio)
    width = ratio.numerator ** level
    return [(a * a, (a + width) ** 2) for a in _level_ints(params, level)]


def all_pairs_fold(left, right, multisets):
    """Every pair u + v, sorted and swept: the fold without any skipping."""
    pairs = sorted(
        (ulo + vlo, uhi + vhi)
        for i, (ulo, uhi) in enumerate(left)
        for vlo, vhi in (right[i:] if multisets else right)
    )
    merged = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(part) for part in merged]


def folds_alike(ratio, level, arity, multisets):
    """Fold ``arity`` copies of the squares both ways, addition by
    addition; returns the last union."""
    squares = squares_at(ratio, level)
    union = squares
    for step in range(arity - 1):
        symmetric = multisets and step == 0
        got = _minkowski(union, squares, symmetric)
        assert got == all_pairs_fold(union, squares, symmetric), (
            ratio, level, arity, multisets, step)
        union = got
    return union


class TestMinkowskiFold:
    """The output-sensitive fold against the plain sweep of every pair."""

    #: Thick and thin ratios: at 1/4 and 1/5 the union outgrows a row, so
    #: later rows take the plain path.
    RATIOS = (F(1, 3), F(1, 4), F(2, 5), F(49, 100), F(1, 5), F(3, 7))

    @settings(max_examples=100, deadline=None)
    @given(
        ratio=st.one_of(
            st.sampled_from(RATIOS),
            st.integers(3, 40).flatmap(
                lambda q: st.integers(1, (q - 1) // 2).map(lambda p: F(p, q))
            ),
        ),
        level=st.integers(0, 6),
        arity=st.integers(2, 4),
        multisets=st.booleans(),
    )
    def test_random_folds(self, ratio, level, arity, multisets):
        folds_alike(ratio, level, arity, multisets)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 6)), max_size=12),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 6)), max_size=12),
           st.booleans())
    def test_small_integer_unions(self, left, right, multisets):
        """Any merged unions fold alike, and at this scale an endpoint off
        by one changes the union."""
        # Adding {0} merges the drawn pairs.
        left = all_pairs_fold([(lo, lo + w) for lo, w in left], [(0, 0)], False)
        right = all_pairs_fold([(lo, lo + w) for lo, w in right], [(0, 0)], False)
        if multisets:
            left = right
        assert _minkowski(left, right, multisets) == all_pairs_fold(
            left, right, multisets)

    @pytest.mark.parametrize("ratio, falls_back", [
        (F(1, 3), False), (F(49, 100), False), (F(1, 4), True), (F(1, 5), True),
    ], ids=str)
    def test_both_sides_of_the_fallback(self, monkeypatch, ratio, falls_back):
        """Thick unions stay below a row's length and keep skipping; thin
        ones outgrow it and finish on the plain path."""
        calls = plain_rows_spy(monkeypatch)
        for multisets in (True, False):
            folds_alike(ratio, 6, 2, multisets)
        assert bool(calls) == falls_back

    def test_work_is_output_sensitive(self, monkeypatch):
        """At alpha 10, sq arity 2 at level 9 has one output part: the fold
        passes fewer than 8 * 2^9 pairs to the merge routine (3,536: 2,441
        pending, the rest the merged union at each re-merge), where the
        all-pairs fold forms all 131,328 pairs i <= j."""
        swept = []
        sweep = cantorsq.images._sweep

        def spy(pairs):
            swept.append(len(pairs))
            return sweep(pairs)

        monkeypatch.setattr(cantorsq.images, "_sweep", spy)
        cantorsq.images._image_core.cache_clear()
        try:
            request = ImageRequest(make_params(10), 9, 2, MapKind.SUM_OF_SQUARES)
            assert image(request).parts == (Interval(0, 2),)
        finally:
            cantorsq.images._image_core.cache_clear()
        assert 0 < sum(swept) < 8 * 2**9


#: The ``image`` benchmark's requests: (kind, arity) -> levels for thick
#: alphas 3, 4, 10 and thin alphas 2, 5/2.
PINNED_THICK = {("sq", 2): range(6, 10), ("sq", 3): range(4, 7),
                ("sq", 4): range(3, 6), ("sum", 2): range(7, 11),
                ("sum", 3): range(5, 8), ("diff", 2): range(7, 11)}
PINNED_THIN = {("sq", 2): range(6, 9), ("sq", 3): range(4, 7),
               ("sq", 4): range(3, 6), ("sum", 2): range(6, 9),
               ("sum", 3): range(5, 8), ("diff", 2): range(6, 9)}
PINNED_PLAN = ((F(3), PINNED_THICK), (F(4), PINNED_THICK), (F(10), PINNED_THICK),
               (F(2), PINNED_THIN), (F(5, 2), PINNED_THIN))
PINNED_SHA256 = "13493f81420162e9e3ea8ba7274da6067b7807a7afcda704f498ee530717a2cb"


def test_pinned_image_outputs():
    """The SHA-256 of ``[[alpha, kind, arity, level, union JSON], ...]``
    over the plan, as compact JSON, is the one of the all-pairs fold that
    the output-sensitive fold replaced."""
    records = []
    for alpha, plan in PINNED_PLAN:
        params = make_params(alpha)
        for (kind, arity), levels in plan.items():
            for level in levels:
                union = image(ImageRequest(params, level, arity, MapKind(kind)))
                records.append([str(alpha), kind, arity, level, union.to_json()])
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


class TestNestedness:
    @pytest.mark.parametrize("kind", list(MapKind))
    def test_successive_levels_shrink(self, params3, kind):
        arity = 2 if kind is MapKind.DIFFERENCE else 3
        for level in range(0, 4):
            assert nestedness_check(params3, level, arity, kind)

    def test_thin_regime_too(self):
        p = make_params(F(5, 2))
        assert nestedness_check(p, 2, 4, MapKind.SUM_OF_SQUARES)


class TestGapCheck:
    def test_thick_has_no_gap(self, params3):
        assert gap_check(params3) is None
        assert gap_check(make_params(F(7, 2))) is None

    def test_alpha_two(self):
        gap = gap_check(make_params(2))
        assert (gap.lo, gap.hi) == (F(1, 4), F(9, 16))

    def test_alpha_five_halves(self):
        gap = gap_check(make_params(F(5, 2)))
        assert (gap.lo, gap.hi) == (F(9, 25), F(49, 100))

    def test_near_threshold(self):
        gap = gap_check(make_params(F(29, 10)))
        assert (gap.lo, gap.hi) == (F(361, 841), F(1521, 3364))


class TestCaps:
    def test_box_cap(self, params3):
        with pytest.raises(CapExceeded):
            image(ImageRequest(params3, 1, 4, MapKind.SUM_OF_SQUARES), box_cap=4)
        # Arity-1 sums have exactly 2^level boxes: the level's bit-length
        # check and the box count agree at cap = 2^level.
        request = ImageRequest(params3, 5, 1, MapKind.SUM)
        assert len(image(request, box_cap=32)) == 32
        with pytest.raises(CapExceeded):
            image(request, box_cap=31)

    def test_bad_cap(self, params3):
        with pytest.raises(ValueError):
            image(ImageRequest(params3, 1, 2, MapKind.SUM), box_cap=0)

    @pytest.mark.parametrize("arity, kind", [
        (4, MapKind.SUM_OF_SQUARES), (2, MapKind.SUM), (2, MapKind.DIFFERENCE),
    ])
    def test_huge_level(self, params3, arity, kind):
        """Beyond CPython's 4300-digit limit on printing ints, the request
        is still refused with CapExceeded."""
        with pytest.raises(CapExceeded):
            image(ImageRequest(params3, 20_000, arity, kind))

    def test_huge_count_and_cap(self):
        """A count or cap past CPython's 4300-digit limit on printing ints
        is described by its size."""
        with pytest.raises(CapExceeded, match="bits"):
            image(ImageRequest(make_params(3), 3600, 4, MapKind.SUM_OF_SQUARES),
                  box_cap=10**1100)
        with pytest.raises(CapExceeded, match="bits"):
            image(ImageRequest(make_params(3), 20_000, 4, MapKind.SUM_OF_SQUARES),
                  box_cap=10**5000)


class TestCoverReport:
    def test_true_claim(self, params3):
        claimed = IntervalUnion([Interval(0, 4)])
        report = cover_report(params3, claimed, 4, 3)
        assert report.passed
        assert report.rows == ((1, True), (2, True), (3, True))
        data = report.to_json()
        assert data["pass"] and data["arity"] == 4

    def test_false_claim(self, params3):
        claimed = IntervalUnion([Interval(0, 5)])
        report = cover_report(params3, claimed, 4, 2)
        assert not report.passed
        assert all(not ok for _, ok in report.rows)


#: Modules that ``cantorsq`` must not load: numpy is not needed, and the
#: dataclasses chain (dataclasses -> inspect, ast, dis) added about 0.4 MB
#: to the resident size of ``import cantorsq`` for no behaviour.
UNWANTED_MODULES = ("numpy", "dataclasses", "inspect", "ast", "dis")


def test_import_leaves_numpy_unloaded():
    """A fresh process that imports the package and the CLI and runs a
    decomposition, a verification and image requests loads none of
    UNWANTED_MODULES."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cantorsq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, cantorsq, cantorsq.cli\n"
        "from cantorsq import (ImageRequest, MapKind, decompose_four, image,\n"
        "                      make_params, verify_certificate)\n"
        "p = make_params(3)\n"
        "assert verify_certificate(p, decompose_four(p, '7/13')).ok\n"
        "image(ImageRequest(p, 3, 4, MapKind.SUM_OF_SQUARES))\n"
        "image(ImageRequest(p, 4, 3, MapKind.SUM))\n"
        "image(ImageRequest(p, 10, 2, MapKind.DIFFERENCE))\n"
        "print(' '.join(m for m in %r if m in sys.modules))\n" % (UNWANTED_MODULES,)
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
