"""Four-square decomposition certificates and their independent audit."""

import json
import random
import time
from fractions import Fraction

import pytest

import cantorsq.decompose
from cantorsq import (
    ALL_LEFT,
    ALL_RIGHT,
    Band,
    CantorPoint,
    Certificate,
    Interval,
    SearchExhausted,
    ThinRegimeError,
    band_interval,
    decompose_four,
    make_params,
    verify_certificate,
)
from cantorsq.decompose import (
    choose_fourth,
    decompose_three,
    fourth_window_margins,
    scaling_reduce,
)

F = Fraction

RATIO_GRID = [F(1, 3), F(3, 8), F(2, 5), F(9, 20), F(49, 100)]


def rebuilt(cert, **changes):
    """A new Certificate with ``cert``'s fields, ``changes`` replacing some."""
    fields = {name: getattr(cert, name) for name in Certificate._fields}
    fields.update(changes)
    return Certificate(**fields)


class TestBands:
    def test_alpha_three(self, params3):
        assert band_interval(params3, Band.LOW) == Interval(F(44, 81), F(67, 81))
        assert band_interval(params3, Band.MAIN) == Interval(F(8, 9), 3)

    def test_alpha_four(self, params4):
        assert band_interval(params4, Band.MAIN) == Interval(F(25, 32), 3)
        assert band_interval(params4, Band.LOW) == Interval(
            F(1025, 2048), F(3553, 4096)
        )

    def test_known_intervals(self, params3):
        """The scan's targets are the bands scaled by r^(2*power): for
        y = 4/9 + t the edge point 2/3 leaves t, which lands in the low
        band at power 1 for t = 50/729 and in the main band at power 1
        for t = 1/5."""
        low = choose_fourth(params3, F(4, 9) + F(50, 729), 8).target
        assert (low.scale_power, low.band) == (1, Band.LOW)
        assert low.interval == Interval(F(44, 729), F(67, 729))
        main = choose_fourth(params3, F(4, 9) + F(1, 5), 8).target
        assert (main.scale_power, main.band) == (1, Band.MAIN)
        assert main.interval == Interval(F(8, 81), F(1, 3))


class TestScalingReduce:
    def test_frozen_cases(self, params3):
        assert scaling_reduce(params3, 2) == (0, F(2))
        assert scaling_reduce(params3, F(4, 9)) == (1, F(4))
        assert scaling_reduce(params3, F(1, 100)) == (2, F(81, 100))

    def test_result_lands_in_window(self, params3):
        for x in (F(1, 7), F(3, 1000), F(399, 100), F(1, 10**9)):
            power, y = scaling_reduce(params3, x)
            assert y == x * 9 ** power
            assert F(4, 9) < y <= 4

    def test_range_errors(self, params3):
        with pytest.raises(ValueError):
            scaling_reduce(params3, 0)
        with pytest.raises(ValueError):
            scaling_reduce(params3, 5)

    def test_thin_regime(self):
        with pytest.raises(ThinRegimeError):
            scaling_reduce(make_params(2), 1)


class TestChooseFourth:
    def test_scan_prefers_one(self, params3):
        choice = choose_fourth(params3, 4, 8)
        assert choice.tag == "one:main:0"
        assert choice.value == 1
        choice = choose_fourth(params3, 2, 8)
        assert choice.tag == "one:main:0"

    def test_zero_case(self, params3):
        # y in the main band itself, but y - 1 below it
        choice = choose_fourth(params3, F(9, 10), 8)
        assert choice.tag == "zero:main:0"
        assert choice.value == 0

    def test_edge_cases_frozen(self, params3):
        assert choose_fourth(params3, F(37, 81), 8).tag == "edge0:main:2"
        assert choose_fourth(params3, F(81, 100), 8).tag == "edge1:main:1"
        assert choose_fourth(params3, F(7, 13), 8).tag == "edge1:low:1"

    def test_candidate_values_are_exact(self, params3):
        choice = choose_fourth(params3, F(7, 13), 8)
        assert choice.point.value(params3) == choice.value
        t = F(7, 13) - choice.value ** 2
        assert choice.target.interval.contains_value(t)

    def test_window_too_small_returns_none(self, params3):
        y = F(4, 9) + F(8, 9) * F(1, 9) ** 30
        assert choose_fourth(params3, y, 8) is None
        assert choose_fourth(params3, y, 64).tag == "edge0:main:30"

    def test_out_of_range(self, params3):
        with pytest.raises(ValueError):
            choose_fourth(params3, F(4, 9), 8)
        with pytest.raises(ValueError):
            choose_fourth(params3, 5, 8)


class TestDecomposeThree:
    def test_worked_example(self, params3):
        result = decompose_three(params3, 1, Band.MAIN, 1)
        assert result.box.lefts == (0, F(2, 3), F(2, 3))
        assert result.box.level == 2
        assert result.bound == F(1, 3)
        assert result.trace == ((0, 0, 0),)
        assert [p.value(params3) for p in result.points] == [0, F(2, 3), F(2, 3)]
        assert all(p.tail == ALL_LEFT for p in result.points)

    def test_exact_top_hit_uses_right_endpoints(self, params3):
        result = decompose_three(params3, 3, Band.MAIN, 5)
        assert all(p.tail == ALL_RIGHT for p in result.points)
        values = [p.value(params3) for p in result.points]
        assert values == [1, 1, 1]

    def test_low_band_top_hit(self, params3):
        result = decompose_three(params3, F(67, 81), Band.LOW, 3)
        values = [p.value(params3) for p in result.points]
        assert sum(v * v for v in values) == F(67, 81)

    def test_residual_window(self, params3):
        target = F(15, 8)
        for depth in (0, 3, 7):
            result = decompose_three(params3, target, Band.MAIN, depth)
            total = sum(p.value(params3) ** 2 for p in result.points)
            assert 0 <= target - total <= result.bound

    def test_target_outside_band(self, params3):
        with pytest.raises(ValueError):
            decompose_three(params3, F(1, 2), Band.MAIN, 3)
        with pytest.raises(ValueError):
            decompose_three(params3, 1, Band.MAIN, -1)


class TestDecomposeFour:
    def test_zero(self, params3):
        cert = decompose_four(params3, 0)
        assert cert.case == "x=0"
        assert cert.values == (0, 0, 0, 0)
        assert cert.residual == 0 and cert.bound == 0
        assert cert.trace == ()
        assert verify_certificate(params3, cert).ok

    def test_four_is_exact(self, params3):
        cert = decompose_four(params3, 4)
        assert cert.values == (1, 1, 1, 1)
        assert cert.residual == 0
        assert cert.case == "one:main:0"

    def test_main_band_bottom_is_exact(self, params3):
        cert = decompose_four(params3, F(44, 81))
        assert cert.case == "edge0:main:1"
        assert cert.residual == 0

    def test_low_band_top_is_exact(self, params3):
        cert = decompose_four(params3, F(391, 729))
        assert cert.case == "edge0:low:1"
        assert cert.residual == 0
        assert sum(v * v for v in cert.values) == F(391, 729)

    def test_zero_candidate_shadows_low_band(self, params3):
        # y itself sits in the main band, so the scan never reaches the
        # low-band windows at scale 0
        cert = decompose_four(params3, F(103, 81))
        assert cert.case == "zero:main:0"
        assert verify_certificate(params3, cert).ok

    @pytest.mark.parametrize(
        "x", [F(2), F(7, 13), F(1, 100), F(355, 113), F(17, 9), F(4, 9)]
    )
    def test_certificate_invariants(self, params3, x):
        cert = decompose_four(params3, x, depth=25)
        assert sum(v * v for v in cert.values) + cert.residual == x
        assert 0 <= cert.residual <= cert.bound
        assert cert.values == tuple(p.value(params3) for p in cert.points)
        assert len(cert.trace) == 25
        assert verify_certificate(params3, cert).ok

    def test_other_alpha(self, params4):
        cert = decompose_four(params4, F(31, 10), depth=20)
        assert verify_certificate(params4, cert).ok
        assert sum(v * v for v in cert.values) + cert.residual == F(31, 10)

    def test_deterministic(self, params3):
        a = decompose_four(params3, F(7, 13), depth=12)
        b = decompose_four(params3, F(7, 13), depth=12)
        assert a == b
        assert a.canonical_json() == b.canonical_json()

    def test_depth_controls_bound(self, params3):
        r = F(1, 3)
        bounds = {}
        for depth in range(4, 10):
            bounds[depth] = decompose_four(params3, F(7, 13), depth=depth).bound
        for depth in range(4, 9):
            # contraction: each extra level scales the window by under
            # r + r^level
            assert bounds[depth + 1] < bounds[depth] * (r + r ** (depth + 1))

    def test_range_and_depth_errors(self, params3):
        with pytest.raises(ValueError):
            decompose_four(params3, -1)
        with pytest.raises(ValueError):
            decompose_four(params3, F(41, 10))
        with pytest.raises(ValueError):
            decompose_four(params3, 1, depth=-1)

    def test_thin_regime(self):
        with pytest.raises(ThinRegimeError):
            decompose_four(make_params(2), F(1, 2))

    def test_single_scan_pass(self, params3, monkeypatch):
        """A hit past the first 8 depths still takes one scan, not one per
        window doubling."""
        calls = []

        def counted(*args):
            calls.append(args)
            return choose_fourth(*args)

        monkeypatch.setattr(cantorsq.decompose, "choose_fourth", counted)
        cert = decompose_four(params3, F(4, 9) + F(8, 9) * F(1, 9) ** 30, depth=1)
        assert len(calls) == 1
        assert cert.case == "edge0:main:30"

    def test_scan_budget_exhausted(self, params3):
        # sits closer to the scaling boundary than any in-budget window
        x = F(4, 9) + F(8, 9) * F(1, 9) ** 4100
        with pytest.raises(SearchExhausted):
            decompose_four(params3, x, depth=1)


class TestCertificateJson:
    def test_roundtrip(self, params3):
        cert = decompose_four(params3, F(7, 13), depth=9)
        data = json.loads(cert.canonical_json())
        assert Certificate.from_json_dict(data) == cert

    def test_canonical_is_stable_bytes(self, params3):
        cert = decompose_four(params3, F(2, 7), depth=6)
        text = cert.canonical_json()
        assert text.endswith("\n")
        assert text == cert.canonical_json()
        # canonical form survives a parse/serialize cycle
        again = Certificate.from_json_dict(json.loads(text))
        assert again.canonical_json() == text

    def test_bad_schema(self, params3):
        data = json.loads(decompose_four(params3, 1).canonical_json())
        data["schema"] = "something/9"
        with pytest.raises(ValueError):
            Certificate.from_json_dict(data)

    def test_bad_trace(self, params3):
        data = json.loads(decompose_four(params3, 1).canonical_json())
        data["trace"][0] = "012"
        with pytest.raises(ValueError):
            Certificate.from_json_dict(data)

    def test_missing_key(self, params3):
        data = json.loads(decompose_four(params3, 1).canonical_json())
        del data["values"]
        with pytest.raises(ValueError):
            Certificate.from_json_dict(data)
        with pytest.raises(ValueError):
            Certificate.from_json_dict([])

    @pytest.mark.parametrize("key, value", [
        ("depth", "12"),
        ("depth", 12.0),
        ("depth", True),
        ("scaling", "0"),
        ("case", 7),
        ("x", 1),
        ("values", [0, 0, 0, 0]),
        ("trace", [["0", "0", "1"]]),
    ])
    def test_strict_field_types(self, params3, key, value):
        data = json.loads(decompose_four(params3, F(7, 13), depth=1).canonical_json())
        data[key] = value
        with pytest.raises(ValueError):
            Certificate.from_json_dict(data)


class TestVerifier:
    @pytest.fixture()
    def cert(self, params3):
        return decompose_four(params3, F(7, 13), depth=10)

    def test_accepts_genuine(self, params3, cert):
        result = verify_certificate(params3, cert)
        assert result.ok and bool(result)

    def test_alpha_mismatch(self, params4, cert):
        result = verify_certificate(params4, cert)
        assert not result.ok
        assert "alpha" in result.reasons[0]

    def test_tampered_value(self, params3, cert):
        values = (F(1, 2),) + cert.values[1:]
        bad = rebuilt(cert, values=values)
        result = verify_certificate(params3, bad)
        assert not result.ok
        assert any("value mismatch" in r for r in result.reasons)

    def test_tampered_word(self, params3, cert):
        first = cert.points[0]
        flipped = "2" if first.prefix[-1] == "1" else "1"
        points = (CantorPoint(first.prefix[:-1] + flipped, first.tail),) + cert.points[1:]
        bad = rebuilt(cert, points=points)
        assert not verify_certificate(params3, bad).ok

    def test_tampered_tails(self, params3, cert):
        points = tuple(
            CantorPoint(p.prefix, ALL_RIGHT) for p in cert.points[:3]
        ) + cert.points[3:]
        values = tuple(p.value(params3) for p in points)
        residual = cert.x - sum(v * v for v in values)
        bad = rebuilt(
            cert, points=points, values=values, residual=residual
        )
        result = verify_certificate(params3, bad)
        assert not result.ok

    def test_tampered_residual(self, params3, cert):
        bad = rebuilt(cert, residual=cert.residual + 1)
        result = verify_certificate(params3, bad)
        assert not result.ok
        assert any("residual" in r for r in result.reasons)

    def test_tampered_bound(self, params3, cert):
        bad = rebuilt(cert, bound=cert.bound * 2)
        result = verify_certificate(params3, bad)
        assert not result.ok
        assert any("bound" in r for r in result.reasons)

    def test_tampered_scaling(self, params3, cert):
        bad = rebuilt(cert, scaling=cert.scaling + 1)
        assert not verify_certificate(params3, bad).ok

    def test_tampered_case(self, params3, cert):
        for case in ("edge0:main:1", "one:low:0", "garbage", "a:b:c"):
            bad = rebuilt(cert, case=case)
            assert not verify_certificate(params3, bad).ok

    def test_tampered_trace(self, params3, cert):
        flipped = tuple(1 - b for b in cert.trace[5])
        trace = cert.trace[:5] + (flipped,) + cert.trace[6:]
        bad = rebuilt(cert, trace=trace)
        assert not verify_certificate(params3, bad).ok

    def test_truncated_trace(self, params3, cert):
        bad = rebuilt(cert, trace=cert.trace[:-1])
        result = verify_certificate(params3, bad)
        assert not result.ok
        assert any("trace length" in r for r in result.reasons)

    def test_x_out_of_range(self, params3, cert):
        bad = rebuilt(cert, x=F(9, 2))
        assert not verify_certificate(params3, bad).ok

    @pytest.mark.parametrize("x, kind", [
        (F(2, 3), "edge0"), (F(4, 5), "edge1"), (F(1, 2), "edge2"),
    ])
    def test_huge_case_power_rejected_fast(self, params3, x, kind):
        cert = decompose_four(params3, x, depth=4)
        assert cert.case.startswith(kind + ":")
        for band in ("low", "main"):
            bad = rebuilt(cert, case="%s:%s:%d" % (kind, band, 10**7))
            start = time.perf_counter()
            result = verify_certificate(params3, bad)
            elapsed = time.perf_counter() - start
            assert not result.ok
            assert elapsed < 0.5, "rejecting %s took %.2f s" % (bad.case, elapsed)

    def test_zero_case_must_be_zero(self, params3):
        cert = decompose_four(params3, 0)
        bad = rebuilt(cert, x=F(1, 9))
        assert not verify_certificate(params3, bad).ok

    @pytest.mark.parametrize("scaling", [1, 5])
    def test_zero_case_scaling(self, params3, scaling):
        """x = 0 is written with scaling 0; no other scaling verifies."""
        cert = rebuilt(decompose_four(params3, 0, 7), scaling=scaling)
        result = verify_certificate(params3, cert)
        assert result.reasons == ("zero case with scaling %d, not 0" % scaling,)

    def test_zero_case_points(self, params3):
        cert = decompose_four(params3, 0)
        left = (CantorPoint("111", ALL_LEFT),) + cert.points[1:]
        assert verify_certificate(params3, rebuilt(cert, points=left)).ok
        for point in (CantorPoint("112", ALL_LEFT), CantorPoint("", ALL_RIGHT)):
            bad = rebuilt(cert, points=(point,) + cert.points[1:])
            result = verify_certificate(params3, bad)
            assert not result.ok
            assert "point 0" in result.reasons[0]

    @staticmethod
    def with_random_prefixes(cert, digits, seed):
        """``cert`` with a random ``digits``-digit prefix on every point."""
        rng = random.Random(seed)
        to_digits = str.maketrans("01", "12")
        points = tuple(
            CantorPoint(format(rng.getrandbits(digits), "0%db" % digits)
                        .translate(to_digits), point.tail)
            for point in cert.points
        )
        return rebuilt(cert, points=points)

    def test_long_prefixes_fail_cleanly(self, params3):
        cert = decompose_four(params3, F(7, 13), depth=4)
        result = verify_certificate(
            params3, self.with_random_prefixes(cert, 20_000, seed=1))
        assert not result.ok and result.reasons

    @pytest.mark.parametrize("x", [F(7, 13), F(0)])
    def test_long_prefixes_rejected_fast(self, params3, x):
        cert = decompose_four(params3, x, depth=4)
        bad = self.with_random_prefixes(cert, 200_000, seed=2)
        start = time.perf_counter()
        result = verify_certificate(params3, bad)
        elapsed = time.perf_counter() - start
        assert not result.ok
        assert elapsed < 0.1, "rejecting took %.3f s" % elapsed

    def test_huge_stated_value_fails_cleanly(self, params3, cert):
        values = (F(1, 10**5000),) + cert.values[1:]
        result = verify_certificate(params3, rebuilt(cert, values=values))
        assert not result.ok
        assert any("value mismatch" in r and "bits>" in r for r in result.reasons)


class TestWindowMargins:
    @pytest.mark.parametrize("ratio", RATIO_GRID)
    def test_closed_forms(self, ratio):
        from cantorsq import params_from_ratio

        params = params_from_ratio(ratio)
        r = ratio
        for n in range(1, 7):
            margins = fourth_window_margins(params, n)
            r2n = r ** (2 * n)
            assert margins["low_pair_overlap"] == (4 * r - r * r - r2n) * r2n
            assert margins["low_window_slack"] == r ** (4 * n)
            assert margins["main_pair_overlap_lo"] == (
                (6 * r - 2 * r * r - 1 - r2n) * r2n
            )
            assert margins["main_pair_overlap_hi"] == (
                2 * (3 * r - 1) * r ** (2 * n - 1)
                + (1 - 2 * r * r) * r2n
                - r ** (4 * n - 2)
                + 2 * r ** (4 * n - 1)
            )
            assert margins["main_window_slack"] == (
                (r ** (2 * n - 1) - r2n) ** 2
            )
            assert margins["band_glue_low"] == (
                2 * r**4 - 6 * r**3 + 4 * r**2 - 4 * r + 1
            )
            assert margins["band_glue_high"] == (
                r**4 - 4 * r**3 + 5 * r**2 + 2 * r - 1
            )

    @pytest.mark.parametrize("ratio", RATIO_GRID)
    def test_signs(self, ratio):
        from cantorsq import params_from_ratio

        params = params_from_ratio(ratio)
        for n in range(1, 7):
            margins = fourth_window_margins(params, n)
            assert margins["low_pair_overlap"] > 0
            assert margins["low_window_slack"] > 0
            assert margins["main_pair_overlap_lo"] > 0
            assert margins["main_pair_overlap_hi"] > 0
            assert margins["main_window_slack"] > 0
            assert margins["band_glue_low"] < 0
            assert margins["band_glue_high"] > 0

    def test_input_validation(self, params3):
        with pytest.raises(ValueError):
            fourth_window_margins(params3, 0)
        with pytest.raises(ThinRegimeError):
            fourth_window_margins(make_params(2), 1)
