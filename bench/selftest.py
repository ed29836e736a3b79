"""Show that every output check accepts good output and catches bad output.

    python3 bench/selftest.py

Builds real outputs with the package at small sizes, confirms each check
in checks.py passes them, then corrupts them one way at a time and
confirms the check reports a problem.  It also confirms that the
committed verify corpus passes the independent certificate check, that
the package verifier rejects every mutation kind the ``verify`` workload
uses, and that run.py reports the metrics BENCHMARK.json declares.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cantorsq  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(name: str, problems: list, want_problems: bool) -> None:
    good = bool(problems) == want_problems
    if not good:
        FAILURES.append(name)
    print("%s %-52s %s" % ("ok  " if good else "FAIL", name,
                           problems[0] if problems else "passes"))


def edited(text: str, **changes) -> str:
    cert = json.loads(text)
    cert.update(changes)
    return json.dumps(cert)


def certificate_cases() -> None:
    alpha, x, depth = F(3), F(7, 13), 12
    params = cantorsq.make_params(alpha)
    text = cantorsq.decompose_four(params, x, depth).canonical_json()
    cert = json.loads(text)
    check = checks.check_certificate
    expect("certificate: genuine", check(text, alpha, x, depth), False)
    expect("certificate: not JSON", check(text[:-5], alpha, x, depth), True)
    expect("certificate: missing key", check(json.dumps(
        {k: v for k, v in cert.items() if k != "bound"}), alpha, x, depth), True)
    expect("certificate: other x", check(text, alpha, x + F(1, 10**9), depth), True)
    expect("certificate: other alpha", check(text, F(4), x, depth), True)
    expect("certificate: other depth", check(text, alpha, x, depth + 1), True)

    points = json.loads(json.dumps(cert["points"]))
    word = points[0]["prefix"]
    points[0]["prefix"] = word[:-1] + ("1" if word[-1] == "2" else "2")
    expect("certificate: flipped digit", check(edited(text, points=points), alpha, x, depth), True)
    points[0]["prefix"] = word[:-1] + "3"
    expect("certificate: digit outside {1,2}", check(edited(text, points=points), alpha, x, depth), True)
    points[0]["prefix"], points[0]["tail"] = word, "X"
    expect("certificate: bad tail", check(edited(text, points=points), alpha, x, depth), True)

    values = list(cert["values"])
    values[1] = str(F(values[1]) + F(1, 3**30))
    expect("certificate: listed value", check(edited(text, values=values), alpha, x, depth), True)
    residual = F(cert["residual"])
    expect("certificate: residual", check(edited(
        text, residual=str(residual + F(1, 10**12))), alpha, x, depth), True)
    expect("certificate: bound below residual", check(edited(
        text, bound=str(residual / 2)), alpha, x, depth), True)
    expect("certificate: bound above 6r^N+3r^2N", check(edited(
        text, bound=str(7 * F(1, 3) ** depth)), alpha, x, depth), True)

    # Consistent in itself (new point, its value, the residual that goes
    # with it) but the residual then exceeds the bound.
    points = json.loads(json.dumps(cert["points"]))
    points[3] = {"prefix": "", "tail": "L"}
    values = list(cert["values"])
    values[3] = "0"
    moved = x - sum(F(v) ** 2 for v in values)
    expect("certificate: other point, consistent residual", check(edited(
        text, points=points, values=values, residual=str(moved)), alpha, x, depth), True)


def verdict_cases() -> None:
    expect("verdict: valid accepted", checks.check_verdict(True, True), False)
    expect("verdict: mutant rejected", checks.check_verdict(False, False), False)
    expect("verdict: valid rejected", checks.check_verdict(False, True), True)
    expect("verdict: mutant accepted", checks.check_verdict(True, False), True)


def image_parts(alpha, kind, arity, level) -> list:
    request = cantorsq.ImageRequest(cantorsq.make_params(alpha), level, arity,
                                    cantorsq.MapKind(kind))
    return [(p.lo, p.hi) for p in cantorsq.image(request)]


def image_cases() -> None:
    check = checks.check_image
    every = {}
    for key in ((F(3), "sq", 4, 2), (F(2), "sq", 4, 2), (F(2), "sum", 2, 3),
                (F(5, 2), "diff", 2, 3), (F(5, 2), "sq", 2, 3)):
        alpha, kind, arity, level = key
        every[key] = list(itertools.product(checks.level_words(level), repeat=arity))
        parts = image_parts(*key)
        oracle = checks.brute_image(*key)
        expect("image: genuine %s arity %d level %d, alpha %s" % (kind, arity, level, alpha),
               check(parts, *key, every[key], oracle), False)

    thick = (F(3), "sq", 4, 2)
    expect("image: empty", check([], *thick, [], None), True)
    expect("image: thick sq4 with a hole", check(
        [(F(0), F(19, 10)), (F(21, 10), F(4))], *thick, [], None), True)
    expect("image: hull cut short", check([(F(0), F(39, 10))], *thick, [], None), True)

    thin = (F(2), "sq", 4, 2)
    parts = image_parts(*thin)
    r = checks.ratio_of(F(2))
    gap_lo, gap_hi = 4 * r * r, (1 - r) ** 2
    filled = checks.merge(parts + [(gap_lo, gap_hi)])
    expect("image: thin gap filled", check(filled, *thin, [], None), True)

    key = (F(2), "sum", 2, 3)
    parts = image_parts(*key)
    middle = len(parts) // 2
    dropped = parts[:middle] + parts[middle + 1:]
    expect("image: part dropped, sampled boxes", check(dropped, *key, every[key], None), True)
    expect("image: part dropped, oracle", check(dropped, *key, [], checks.brute_image(*key)), True)
    shifted = list(parts)
    shifted[middle] = (parts[middle][0] + F(1, 10**6), parts[middle][1])
    expect("image: endpoint moved, oracle", check(shifted, *key, [], checks.brute_image(*key)), True)
    expect("image: parts out of order", check(
        [parts[1], parts[0]] + parts[2:], *key, [], None), True)

    coarse = image_parts(F(2), "sq", 2, 3)
    fine = image_parts(F(2), "sq", 2, 4)
    expect("nesting: genuine", checks.check_nested(fine, coarse), False)
    expect("nesting: finer outside coarser", checks.check_nested(coarse, fine), True)


def corpus_cases() -> None:
    corpus = workloads.load_corpus()
    bad = []
    for cert in corpus:
        text = json.dumps(cert)
        bad += checks.check_certificate(text, F(cert["alpha"]), F(cert["x"]), cert["depth"])
    expect("corpus: %d certificates pass the own check" % len(corpus), bad, False)
    rng = random.Random(0)
    cert = next(c for c in corpus if c["depth"] == 40)
    params = cantorsq.make_params(F(cert["alpha"]))
    for kind in ("digit", "residual", "bound", "case", "trace"):
        mutant = cantorsq.Certificate.from_json_dict(workloads.mutate(cert, kind, rng))
        accepted = cantorsq.verify_certificate(params, mutant).ok
        expect("corpus: %s mutant rejected by verifier" % kind,
               ["accepted"] if accepted else [], False)


def spec_cases() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect("spec: end-to-end names and units", [] if declared == run.END_TO_END_UNITS
           else ["differs from run.py"], False)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("spec: per-layer names and units", [] if declared == run.PER_LAYER_UNITS
           else ["differs from run.py"], False)
    names = {w["name"] for w in spec["workloads"]}
    expect("spec: workloads", [] if names == set(workloads.WORKLOADS)
           else ["differs from workloads.py"], False)


def main() -> int:
    certificate_cases()
    verdict_cases()
    image_cases()
    corpus_cases()
    spec_cases()
    print("%d expectation(s) failed" % len(FAILURES) if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
