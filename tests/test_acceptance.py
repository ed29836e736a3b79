"""Acceptance criteria, one test per criterion.

Everything here is exact rational arithmetic, so every tolerance is
pinned to zero except where a criterion names an explicit cap:

  1. difference/sum images equal [-1, 1] and [0, 2] exactly (alpha 3,
     levels 1..10);
  2. the four-square image equals [0, 4] exactly (alpha 3, levels 1..5);
  3. both bands lie inside the three-square image exactly (alpha 3 and
     4, levels 1..5);
  4. every eligible box tiles exactly, child endpoints equal their
     closed forms exactly (exhaustive to level 3 at alpha 3/4/10, plus
     10^4 seeded random boxes);
  5. thin-regime gaps equal (4r^2, (1-r)^2) exactly at alpha 2, 5/2,
     29/10; no gap at alpha 3;
  6. 1000 seeded random x (denominator <= 10^6) at depth 40 all verify,
     with residual <= 6 * 3^-40; boundary inputs decompose exactly;
  7. the six chain margins are positive on swept eligible boxes, the
     seed-box margins and the scan-window margins equal their closed
     forms with the stated signs (ratios 1/3, 2/5, 49/100, depths
     1..10);
  8. two full seeded re-runs of the criterion-6 sweep, with caches
     cleared in between, produce byte-identical certificate files, and
     those bytes match a pinned golden SHA-256.

The summary hook in conftest.py prints one PASS/FAIL line per criterion
at the end of the run.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from cantorsq import (
    Band,
    ImageRequest,
    Interval,
    IntervalUnion,
    MapKind,
    TripleBox,
    band_interval,
    base_boxes,
    cond_invariant,
    cond_overlap,
    decompose_four,
    gap_check,
    image,
    level_left_endpoints,
    make_params,
    overlap_chain_margins,
    params_from_ratio,
    verify_certificate,
    verify_overlap_lemma,
)
from cantorsq.decompose import fourth_window_margins
from cantorsq.lemmas import (
    base_box_condition_margins,
    child_box_images,
    overlap_condition_margin,
)
import cantorsq.ifs
import cantorsq.images
import cantorsq.lemmas

F = Fraction

SWEEP_SEED = 20260819
SWEEP_COUNT = 1000
SWEEP_DEPTH = 40
RESIDUAL_CAP = 6 * F(1, 3) ** 40

#: SHA-256 and size of the concatenated canonical JSON of the sweep's
#: certificates: any change to the arithmetic that alters a certificate
#: shows up here.
GOLDEN_SHA256 = "8408f88133abb80327260dda39020179d5fe0ec0bfcd8ebde2a02333ae3e5832"
GOLDEN_BYTES = 881321

BOUNDARY_INPUTS = (
    F(0), F(4), F(4, 9), F(8, 9), F(17, 9),
    F(44, 81), F(44, 729), F(44, 6561), F(44, 59049),
)


def sweep_inputs():
    rng = random.Random(SWEEP_SEED)
    xs = []
    for _ in range(SWEEP_COUNT):
        den = rng.randint(1, 10**6)
        num = rng.randint(0, 4 * den)
        xs.append(F(num, den))
    return xs


def closed_form_child_images(params, box):
    r = params.ratio
    u, v, w = box.lefts
    n = box.level
    t = u * u + v * v + w * w
    e = (1 - r) * r ** n
    rn = r ** n
    rn1 = r ** (n + 1)
    r2n = r ** (2 * n)
    r2n2 = r ** (2 * n + 2)
    return {
        (0, 0, 0): Interval(
            t,
            t + 2 * (u + v + w) * rn1 + 3 * r2n2),
        (0, 0, 1): Interval(
            t + 2 * w * e + e * e,
            t + 2 * (u + v) * rn1 + 2 * w * rn + r2n + 2 * r2n2),
        (0, 1, 0): Interval(
            t + 2 * v * e + e * e,
            t + 2 * (u + w) * rn1 + 2 * v * rn + r2n + 2 * r2n2),
        (0, 1, 1): Interval(
            t + 2 * (v + w) * e + 2 * e * e,
            t + 2 * u * rn1 + 2 * (v + w) * rn + 2 * r2n + r2n2),
        (1, 0, 0): Interval(
            t + 2 * u * e + e * e,
            t + 2 * u * rn + 2 * (v + w) * rn1 + r2n + 2 * r2n2),
        (1, 0, 1): Interval(
            t + 2 * (u + w) * e + 2 * e * e,
            t + 2 * (u + w) * rn + 2 * v * rn1 + 2 * r2n + r2n2),
        (1, 1, 0): Interval(
            t + 2 * (u + v) * e + 2 * e * e,
            t + 2 * (u + v) * rn + 2 * w * rn1 + 2 * r2n + r2n2),
        (1, 1, 1): Interval(
            t + 2 * (u + v + w) * e + 3 * e * e,
            t + 2 * (u + v + w) * rn + 3 * r2n),
    }


def clear_caches():
    cantorsq.ifs._level_ints.cache_clear()
    cantorsq.images._image_core.cache_clear()
    cantorsq.lemmas.base_boxes.cache_clear()


def test_criterion_1_sum_and_difference_images():
    params = make_params(3)
    for level in range(1, 11):
        diff = image(ImageRequest(params, level, 2, MapKind.DIFFERENCE))
        assert diff.parts == (Interval(-1, 1),), "level %d difference" % level
        total = image(ImageRequest(params, level, 2, MapKind.SUM))
        assert total.parts == (Interval(0, 2),), "level %d sum" % level


def test_criterion_2_four_squares_fill():
    params = make_params(3)
    for level in range(1, 6):
        img = image(ImageRequest(params, level, 4, MapKind.SUM_OF_SQUARES))
        assert img.parts == (Interval(0, 4),), "level %d" % level


def test_criterion_3_bands_inside_three_square_images():
    for alpha in (3, 4):
        params = make_params(alpha)
        bands = IntervalUnion([
            band_interval(params, Band.LOW),
            band_interval(params, Band.MAIN),
        ])
        for level in range(1, 6):
            img = image(ImageRequest(params, level, 3, MapKind.SUM_OF_SQUARES))
            assert img.contains_union(bands), "alpha %s level %d" % (alpha, level)


def test_criterion_4_subdivision_closure():
    # exhaustive part
    for alpha in (3, 4, 10):
        params = make_params(alpha)
        for level in (1, 2, 3):
            pts = level_left_endpoints(params, level)
            for combo in combinations_with_replacement(pts, 3):
                box = TripleBox(tuple(reversed(combo)), level)
                if not cond_overlap(params, box):
                    continue
                assert verify_overlap_lemma(params, box), (
                    "alpha %s box %s" % (alpha, box)
                )
    # random part: closed forms against computed child images
    rng = random.Random(SWEEP_SEED)
    alphas = [make_params(a) for a in (3, 4, 10)]
    for _ in range(10**4):
        params = rng.choice(alphas)
        level = rng.randint(1, 8)
        pts = level_left_endpoints(params, level)
        box = TripleBox(tuple(rng.choice(pts) for _ in range(3)), level)
        assert child_box_images(params, box) == closed_form_child_images(
            params, box
        )


def test_criterion_5_thin_regime_gap():
    expected = {
        F(2): (F(1, 4), F(9, 16)),
        F(5, 2): (F(9, 25), F(49, 100)),
        F(29, 10): (F(361, 841), F(1521, 3364)),
    }
    for alpha, (lo, hi) in expected.items():
        params = make_params(alpha)
        r = params.ratio
        gap = gap_check(params)
        assert (gap.lo, gap.hi) == (lo, hi), "alpha %s" % alpha
        assert gap.lo_strict and gap.hi_strict
        assert (gap.lo, gap.hi) == (4 * r * r, (1 - r) ** 2)
        assert gap.lo < gap.hi
        # independent route: the level-1 image itself avoids the open
        # gap but attains both endpoints, so the miss is exact
        img = image(ImageRequest(params, 1, 4, MapKind.SUM_OF_SQUARES))
        for part in img.parts:
            assert part.hi <= gap.lo or part.lo >= gap.hi
        assert img.contains_value(gap.lo) and img.contains_value(gap.hi)
    params = make_params(3)
    assert gap_check(params) is None
    assert 4 * params.ratio ** 2 == (1 - params.ratio) ** 2 == F(4, 9)


def test_criterion_6_certificate_sweep(request):
    params = make_params(3)
    for x in BOUNDARY_INPUTS:
        cert = decompose_four(params, x, SWEEP_DEPTH)
        assert verify_certificate(params, cert).ok, "boundary x=%s" % x
        assert 0 <= cert.residual <= RESIDUAL_CAP
    freq = Counter()
    for pos, x in enumerate(sweep_inputs()):
        cert = decompose_four(params, x, SWEEP_DEPTH)
        result = verify_certificate(params, cert)
        assert result.ok, "input %d (x=%s): %s" % (pos, x, result.reasons)
        assert 0 <= cert.residual <= RESIDUAL_CAP, "input %d (x=%s)" % (pos, x)
        kind, band, _ = cert.case.split(":")
        freq["%s:%s" % (kind, band)] += 1
    # diagnostic only: scan-path coverage is recorded, not asserted
    request.config._case_tag_freq = dict(sorted(freq.items()))


def test_criterion_7_inequality_audit():
    rng = random.Random(SWEEP_SEED)
    for ratio in (F(1, 3), F(2, 5), F(49, 100)):
        params = params_from_ratio(ratio)
        r = ratio

        # seed boxes satisfy the descent condition with these exact margins
        margins = base_box_condition_margins(params)
        assert margins == (-r, -1, -2 * r**3 + 5 * r**2 - 5 * r + 1)
        assert all(m < 0 for m in margins)
        for box, img in base_boxes(params):
            assert cond_invariant(params, box)
            assert box.image(params) == img

        # chain margins over swept boxes at every depth
        for level in range(1, 11):
            pts = level_left_endpoints(params, level)
            if level <= 3:
                boxes = [
                    tuple(reversed(combo))
                    for combo in combinations_with_replacement(pts, 3)
                ]
            else:
                boxes = [
                    tuple(sorted((rng.choice(pts) for _ in range(3)),
                                 reverse=True))
                    for _ in range(50)
                ]
            for lefts in boxes:
                box = TripleBox(lefts, level)
                chain = overlap_chain_margins(params, box)
                rn = r ** level
                assert chain.join == -overlap_condition_margin(params, box) * rn
                if cond_overlap(params, box):
                    assert all(m > 0 for m in chain.chain)
                    assert chain.join >= 0

        # scan-window margins: closed forms, signs, and the one chained
        # lower bound that is not immediate from the closed form
        for n in range(1, 11):
            m = fourth_window_margins(params, n)
            r2n = r ** (2 * n)
            assert m["low_pair_overlap"] == (4 * r - r * r - r2n) * r2n
            assert m["low_pair_overlap"] >= (4 * r - 2 * r * r) * r2n > 0
            assert m["low_window_slack"] == r ** (4 * n)
            assert m["main_pair_overlap_lo"] == (
                (6 * r - 2 * r * r - 1 - r2n) * r2n
            )
            assert m["main_pair_overlap_lo"] >= (6 * r - 3 * r * r - 1) * r2n > 0
            assert m["main_pair_overlap_hi"] == (
                2 * (3 * r - 1) * r ** (2 * n - 1)
                + (1 - 2 * r * r) * r2n
                - r ** (4 * n - 2)
                + 2 * r ** (4 * n - 1)
            )
            floor = (2 * (3 * r - 1) * r ** (2 * n - 1)
                     + (3 * r - 1) * r ** (4 * n - 2))
            assert m["main_pair_overlap_hi"] >= floor >= 0
            assert m["main_window_slack"] == (r ** (2 * n - 1) - r2n) ** 2 > 0
            assert m["band_glue_low"] == (
                2 * r**4 - 6 * r**3 + 4 * r**2 - 4 * r + 1
            )
            assert m["band_glue_low"] < 0
            assert m["band_glue_high"] == (
                r**4 - 4 * r**3 + 5 * r**2 + 2 * r - 1
            )
            assert m["band_glue_high"] > 0


def test_criterion_8_certificate_determinism(tmp_path):
    params = make_params(3)
    xs = sweep_inputs()
    paths = []
    for run in (1, 2):
        clear_caches()
        blob = "".join(
            decompose_four(params, x, SWEEP_DEPTH).canonical_json() for x in xs
        )
        path = tmp_path / ("run%d.jsonl" % run)
        path.write_text(blob, encoding="ascii")
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    data = paths[0].read_bytes()
    assert len(data) == GOLDEN_BYTES
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
