"""The linear-cost certificate verifier against the per-step replay.

``verify_certificate`` checks the target against the final box of the
trace only, built in one integer pass.  The oracle here is the verifier
it replaced: after the same claims checks it follows the trace one child
box at a time with ``child_box`` and exact ``Fraction`` images, then
reads the band points' words off the final box by greedy digit
extraction.  The two must agree, reason for reason, on valid
certificates and on every single-field mutant, at thick alphas beyond 3.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cantorsq import (
    ALL_LEFT,
    ALL_RIGHT,
    CantorPoint,
    Certificate,
    child_box,
    decompose_four,
    make_params,
    params_from_ratio,
    verify_certificate,
    word_from_left_endpoint,
)
from cantorsq.certificate import VerificationResult, _check_claims, _select_base
from cantorsq.numerics import brief

F = Fraction

PARAMS = tuple(make_params(a) for a in (3, F(7, 2), 4, 10)) + (
    params_from_ratio(F(49, 100)),
)

SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

MUTATIONS = ("digit", "value", "residual", "bound", "case", "scaling", "trace")

CASE_KINDS = ("one", "zero", "edge0", "edge1", "edge2")


def replay_verify(params, cert):
    """The per-step replay: each trace step's child box must keep the
    target in its exact image, and the final box gives the words and the
    bound."""
    claims = _check_claims(params, cert)
    if isinstance(claims, VerificationResult):
        return claims
    band, lift, t_base = claims

    def fail(msg):
        return VerificationResult(False, (msg,))

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
    tails = {point.tail for point in cert.points[:3]}
    if len(tails) != 1:
        return fail("band points must share one tail")
    tail = tails.pop()
    if tail == ALL_RIGHT and t_base != img.hi:
        return fail("right-endpoint tails without an exact top hit")
    if tail == ALL_LEFT and t_base == img.hi:
        return fail("exact top hit must use right-endpoint tails")
    prefix = "1" * lift
    for pos, (point, left) in enumerate(zip(cert.points[:3], box.lefts)):
        if not point.prefix.startswith(prefix):
            return fail("point %d is missing the scaling prefix" % (pos,))
        word = word_from_left_endpoint(params, left, box.level)
        if point.prefix[len(prefix):] != word:
            return fail("point %d word does not match the replayed box" % (pos,))
    bound = params.ratio ** (2 * lift) * (img.hi - img.lo)
    if bound != cert.bound:
        return fail("bound mismatch: replay gives %s, certificate says %s"
                    % (brief(bound), brief(cert.bound)))
    return VerificationResult(True, ())


def rebuilt(cert, **changes):
    """A new Certificate with ``cert``'s fields, ``changes`` replacing some."""
    fields = {name: getattr(cert, name) for name in Certificate._fields}
    fields.update(changes)
    return Certificate(**fields)


def both_verdicts(params, cert):
    """Both verifiers' results, after checking that they agree."""
    new = verify_certificate(params, cert)
    old = replay_verify(params, cert)
    assert (new.ok, new.reasons) == (old.ok, old.reasons)
    return new


def flip(word, pos):
    return word[:pos] + ("1" if word[pos] == "2" else "2") + word[pos + 1:]


def mutant(cert, kind, draw):
    """``cert`` with one field changed, or None if ``kind`` does not apply."""
    delta = F(draw(st.sampled_from((1, -1))), draw(st.integers(2, 10**9)))
    if kind == "digit":
        pos = draw(st.integers(0, 3))
        point = cert.points[pos]
        if not point.prefix:
            return None
        digit = draw(st.integers(0, len(point.prefix) - 1))
        points = list(cert.points)
        points[pos] = CantorPoint(flip(point.prefix, digit), point.tail)
        return rebuilt(cert, points=tuple(points))
    if kind == "value":
        pos = draw(st.integers(0, 3))
        values = list(cert.values)
        values[pos] += delta
        return rebuilt(cert, values=tuple(values))
    if kind == "residual":
        return rebuilt(cert, residual=cert.residual + delta)
    if kind == "bound":
        return rebuilt(cert, bound=cert.bound * (1 + delta) if cert.bound
                       else abs(delta))
    if kind == "case":
        case = "%s:%s:%d" % (draw(st.sampled_from(CASE_KINDS)),
                             draw(st.sampled_from(("low", "main"))),
                             draw(st.integers(0, 4)))
        if case == cert.case:
            return None
        return rebuilt(cert, case=case)
    if kind == "scaling":
        scaling = cert.scaling + draw(st.sampled_from((1, -1)))
        if scaling < 0:
            return None
        return rebuilt(cert, scaling=scaling)
    if not cert.trace:
        return None
    step = draw(st.integers(0, len(cert.trace) - 1))
    bit = draw(st.integers(0, 2))
    index = list(cert.trace[step])
    index[bit] = 1 - index[bit]
    trace = cert.trace[:step] + (tuple(index),) + cert.trace[step + 1:]
    return rebuilt(cert, trace=trace)


def trace_flip_with_words(params, cert, step, pos):
    """``cert`` with bit ``pos`` of trace entry ``step`` turned from 1 to 0
    and the band point's word, the values and the residual rewritten to
    match; the bound is widened to cover the new residual, so only the
    trace can reject it."""
    index = list(cert.trace[step])
    assert index[pos] == 1
    index[pos] = 0
    trace = cert.trace[:step] + (tuple(index),) + cert.trace[step + 1:]
    point = cert.points[pos]
    digit = len(point.prefix) - cert.depth + step
    assert point.prefix[digit] == "2"
    points = list(cert.points)
    points[pos] = CantorPoint(flip(point.prefix, digit), point.tail)
    values = tuple(p.value(params) for p in points)
    residual = cert.x - sum(v * v for v in values)
    return rebuilt(cert, points=tuple(points), values=values, residual=residual,
                   bound=max(cert.bound, residual), trace=trace)


xs = st.fractions(min_value=0, max_value=4, max_denominator=10**6)


class TestDifferential:
    @SETTINGS
    @given(st.sampled_from(PARAMS), xs, st.integers(0, 24))
    def test_valid_certificates(self, params, x, depth):
        assert both_verdicts(params, decompose_four(params, x, depth)).ok

    @SETTINGS
    @given(st.sampled_from(PARAMS), xs, st.integers(0, 24),
           st.sampled_from(MUTATIONS), st.data())
    def test_single_field_mutants(self, params, x, depth, kind, data):
        cert = decompose_four(params, x, depth)
        bad = mutant(cert, kind, data.draw)
        assume(bad is not None)
        result = both_verdicts(params, bad)
        assert not result.ok, (kind, bad)

    @SETTINGS
    @given(st.sampled_from(PARAMS), xs, st.integers(1, 24), st.data())
    def test_trace_flip_with_matching_words(self, params, x, depth, data):
        """Children are scanned with bit 0 before bit 1 in each position,
        and the trace keeps the first child holding the target, so a 1
        turned to 0 at step k picks a child whose image misses it."""
        cert = decompose_four(params, x, depth)
        ones = [(step, pos) for step, index in enumerate(cert.trace)
                for pos in range(3) if index[pos]]
        assume(ones)
        step, pos = data.draw(st.sampled_from(ones))
        result = both_verdicts(params, trace_flip_with_words(params, cert, step, pos))
        assert result.reasons == ("target leaves the box image at step %d" % step,)


class TestTraceFailures:
    @pytest.fixture()
    def cert(self, params3):
        return decompose_four(params3, F(7, 13), depth=10)

    @pytest.mark.parametrize("step", [0, 5, 9])
    @pytest.mark.parametrize("entry", [(0, 2, 1), (0, 1), ("0", "0", "1")])
    def test_malformed_entry(self, params3, cert, step, entry):
        trace = cert.trace[:step] + (entry,) + cert.trace[step + 1:]
        result = both_verdicts(params3, rebuilt(cert, trace=trace))
        assert result.reasons == ("malformed trace entry %r at step %d"
                                  % (entry, step),)

    def test_first_of_two_malformed_entries(self, params3, cert):
        trace = list(cert.trace)
        trace[2] = trace[6] = (0, 2, 1)
        result = both_verdicts(params3, rebuilt(cert, trace=tuple(trace)))
        assert result.reasons == ("malformed trace entry (0, 2, 1) at step 2",)

    def test_leaving_before_a_malformed_entry(self, params3, cert):
        step, pos = next((s, p) for s, index in enumerate(cert.trace[:7])
                         for p in range(3) if index[p])
        bad = trace_flip_with_words(params3, cert, step, pos)
        bad = rebuilt(bad, trace=bad.trace[:7] + ((0, 2, 1),) + bad.trace[8:])
        result = both_verdicts(params3, bad)
        assert result.reasons == ("target leaves the box image at step %d" % step,)


def test_deep_certificate_verifies_in_linear_time():
    """Depth 2000 at alpha 10: the per-step replay takes seconds here, the
    final-box check tens of milliseconds."""
    params = make_params(10)
    cert = decompose_four(params, F(7, 13), depth=2000)
    start = time.perf_counter()
    result = verify_certificate(params, cert)
    elapsed = time.perf_counter() - start
    assert result.ok, result.reasons
    assert elapsed < 0.25, "verifying took %.3f s" % elapsed
