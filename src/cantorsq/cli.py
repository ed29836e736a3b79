"""Command line interface.

Subcommands: decompose, image, gap-check, verify-lemmas, cover-report,
verify.  Default output is stable single-line JSON for scripting;
``--output human`` renders the same content as text with 30-significant-
digit decimal previews next to the exact rationals.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad
arguments, out-of-range values, thin regime, resource caps).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from itertools import combinations_with_replacement

from .certificate import Band, Certificate, band_interval, verify_certificate
from .decompose import decompose_four
from .errors import (
    CapExceeded,
    InternalInconsistencyError,
    SearchExhausted,
    ThinRegimeError,
)
from .ifs import ALL_LEFT, CantorParams, level_left_endpoints, make_params
from .images import (
    DEFAULT_BOX_CAP,
    ImageRequest,
    MapKind,
    cover_report,
    enumeration_count,
    gap_check,
    image,
)
from .lemmas import (
    TripleBox,
    cond_overlap,
    overlap_chain_margins,
    verify_overlap_lemma,
)
from .numerics import Interval, IntervalUnion, Rational, decimal_preview, rat

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

PREVIEW_DIGITS = 30


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _preview(value: Rational) -> str:
    return decimal_preview(value, PREVIEW_DIGITS)


def _ternary(prefix: str, tail: str) -> str:
    digits = prefix.translate(str.maketrans("12", "02"))
    repeating = "0" if tail == ALL_LEFT else "2"
    return "0." + digits + "(" + repeating + "...)"


def cmd_decompose(args: argparse.Namespace) -> int:
    params = make_params(args.alpha)
    if args.ternary and params.alpha != 3:
        raise ValueError("--ternary requires alpha = 3")
    x = rat(args.x)
    cert = decompose_four(params, x, args.depth)
    result = verify_certificate(params, cert)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(cert.canonical_json())
    if args.output == "json":
        print(cert.canonical_json(), end="")
    else:
        lines = [
            "x        = %s ~ %s" % (cert.x, _preview(cert.x)),
            "alpha    = %s (ratio %s), depth %d, scaling %d, case %s"
            % (cert.alpha, params.ratio, cert.depth, cert.scaling, cert.case),
        ]
        for pos, (point, value) in enumerate(zip(cert.points, cert.values), 1):
            label = "fourth " if pos == 4 else "point %d" % pos
            lines.append(
                "%s: prefix %-12s tail %s  value %s ~ %s"
                % (label, point.prefix or "(empty)", point.tail, value,
                   _preview(value))
            )
            if args.ternary:
                lines.append("         ternary %s" % _ternary(point.prefix, point.tail))
        lines.append("residual = %s ~ %s" % (cert.residual, _preview(cert.residual)))
        lines.append("bound    = %s ~ %s" % (cert.bound, _preview(cert.bound)))
        lines.append("verified : %s" % ("yes" if result.ok else "NO"))
        for reason in result.reasons:
            lines.append("  reason : %s" % reason)
        print("\n".join(lines))
    return EXIT_OK if result.ok else EXIT_VERIFY


def cmd_image(args: argparse.Namespace) -> int:
    params = make_params(args.alpha)
    request = ImageRequest(params, args.level, args.arity, MapKind(args.map))
    started = time.perf_counter()
    union = image(request, args.box_cap)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    measure = union.measure()
    payload = {
        "alpha": str(params.alpha),
        "level": args.level,
        "arity": args.arity,
        "map": request.map_kind.value,
        "union": union.to_json(),
        "measure": str(measure),
        "boxes_enumerated": enumeration_count(request),
    }
    if args.output == "json":
        _emit_json(payload)
    else:
        print(
            "image of level-%d set, arity %d, map %s (alpha %s)"
            % (args.level, args.arity, request.map_kind.value, params.alpha)
        )
        for part in union.parts:
            print(
                "  [%s, %s] ~ [%s, %s]"
                % (part.lo, part.hi, _preview(part.lo), _preview(part.hi))
            )
        print(
            "measure %s ~ %s, %d boxes"
            % (measure, _preview(measure), payload["boxes_enumerated"])
        )
    print("elapsed_ms %.3f" % elapsed_ms, file=sys.stderr)
    return EXIT_OK


def cmd_gap_check(args: argparse.Namespace) -> int:
    params = make_params(args.alpha)
    gap = gap_check(params, args.box_cap)
    payload = {
        "alpha": str(params.alpha),
        "ratio": str(params.ratio),
        "gap": None if gap is None else gap.to_json(),
        "checked_level": 1,
    }
    if args.output == "json":
        _emit_json(payload)
    elif gap is None:
        print(
            "no gap: alpha %s is in the thick regime (ratio %s >= 1/3)"
            % (params.alpha, params.ratio)
        )
    else:
        print(
            "gap (%s, %s) ~ (%s, %s): verified free of four-square sums "
            "at level 1" % (gap.lo, gap.hi, _preview(gap.lo), _preview(gap.hi))
        )
    return EXIT_OK


def _lemma_sweep(params: CantorParams, max_level: int, random_boxes: int,
                 seed: int, box_cap: int | None) -> dict:
    cap = DEFAULT_BOX_CAP if box_cap is None else box_cap
    # Level N has C(2^N + 2, 3) >= 2^N > cap boxes once N >= cap.bit_length().
    if max_level >= cap.bit_length() or cap < max(random_boxes, 0) + sum(
        math.comb((1 << level) + 2, 3) for level in range(1, max_level + 1)
    ):
        raise CapExceeded("verify-lemmas through level %d checks more boxes "
                          "than the cap %d" % (max_level, cap))
    levels = []
    min_chain = None
    min_join = None
    failures = 0
    for level in range(1, max_level + 1):
        endpoints = level_left_endpoints(params, level, None)
        checked = eligible = level_failures = 0
        for combo in combinations_with_replacement(endpoints, 3):
            # Descending lefts: the margins' canonical orientation.
            box = TripleBox(tuple(reversed(combo)), level)
            checked += 1
            if not cond_overlap(params, box):
                continue
            eligible += 1
            if not verify_overlap_lemma(params, box):
                level_failures += 1
            margins = overlap_chain_margins(params, box)
            if min_chain is None:
                min_chain = list(margins.chain)
                min_join = margins.join
            else:
                min_chain = [min(old, new) for old, new
                             in zip(min_chain, margins.chain)]
                min_join = min(min_join, margins.join)
        failures += level_failures
        levels.append(
            {"level": level, "boxes": checked, "eligible": eligible,
             "closure_failures": level_failures}
        )
    random_report = None
    if random_boxes:
        rng = random.Random(seed)
        sampled = eligible = sample_failures = 0
        for _ in range(random_boxes):
            level = rng.randint(1, max_level + 3)
            endpoints = level_left_endpoints(params, level, None)
            box = TripleBox(
                tuple(sorted((rng.choice(endpoints) for _ in range(3)),
                             reverse=True)),
                level,
            )
            sampled += 1
            if not cond_overlap(params, box):
                continue
            eligible += 1
            if not verify_overlap_lemma(params, box):
                sample_failures += 1
        failures += sample_failures
        random_report = {
            "seed": seed,
            "sampled": sampled,
            "eligible": eligible,
            "closure_failures": sample_failures,
        }
    return {
        "alpha": str(params.alpha),
        "ratio": str(params.ratio),
        "max_level": max_level,
        "levels": levels,
        "min_chain_margins": None if min_chain is None
        else [str(m) for m in min_chain],
        "min_join_margin": None if min_join is None else str(min_join),
        "random": random_report,
        "all_pass": failures == 0,
    }


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    params = make_params(args.alpha)
    payload = _lemma_sweep(params, args.max_level, args.random_boxes,
                           args.seed, args.box_cap)
    if args.output == "json":
        _emit_json(payload)
    else:
        print("subdivision lemma sweep, alpha %s, levels 1..%d"
              % (params.alpha, args.max_level))
        for row in payload["levels"]:
            print("  level %d: %d boxes, %d eligible, %d closure failures"
                  % (row["level"], row["boxes"], row["eligible"],
                     row["closure_failures"]))
        if payload["min_chain_margins"] is not None:
            print("  min chain margins: %s" % ", ".join(payload["min_chain_margins"]))
            print("  min join margin  : %s" % payload["min_join_margin"])
        if payload["random"] is not None:
            row = payload["random"]
            print("  random: %d sampled (seed %d), %d eligible, %d failures"
                  % (row["sampled"], row["seed"], row["eligible"],
                     row["closure_failures"]))
        print("  all pass: %s" % payload["all_pass"])
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY


def cmd_cover_report(args: argparse.Namespace) -> int:
    params = make_params(args.alpha)
    bands = IntervalUnion(
        [band_interval(params, Band.LOW), band_interval(params, Band.MAIN)]
    )
    full = IntervalUnion([Interval(0, 4)])
    reports = (
        ("three-square-bands", cover_report(params, bands, 3, args.max_level,
                                            box_cap=args.box_cap)),
        ("four-square-range", cover_report(params, full, 4, args.max_level,
                                           box_cap=args.box_cap)),
    )
    payload = {
        "alpha": str(params.alpha),
        "max_level": args.max_level,
        "claims": [dict(report.to_json(), name=name) for name, report in reports],
        "all_pass": all(report.passed for _, report in reports),
    }
    if args.output == "json":
        _emit_json(payload)
    else:
        print("containment report, alpha %s, levels 1..%d"
              % (params.alpha, args.max_level))
        for name, report in reports:
            rows = " ".join("%d:%s" % (lvl, "ok" if ok else "FAIL")
                            for lvl, ok in report.rows)
            print("  %-20s arity %d  %s" % (name, report.arity, rows))
        print("  all pass: %s" % payload["all_pass"])
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.certificate, "r", encoding="ascii") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
    cert = Certificate.from_json_dict(data)
    params = make_params(cert.alpha)
    result = verify_certificate(params, cert)
    payload = {
        "valid": result.ok,
        "reasons": list(result.reasons),
        "x": str(cert.x),
        "alpha": str(cert.alpha),
    }
    if args.output == "json":
        _emit_json(payload)
    else:
        print("certificate for x = %s (alpha %s): %s"
              % (cert.x, cert.alpha, "valid" if result.ok else "INVALID"))
        for reason in result.reasons:
            print("  reason: %s" % reason)
    return EXIT_OK if result.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    def option(*names, **kwargs) -> argparse.ArgumentParser:
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*names, **kwargs)
        return holder

    alpha = option(
        "--alpha", default="3",
        help="set parameter alpha > 1, as 'p/q', an integer, or a "
             "terminating decimal (default 3)",
    )
    output = option("--output", choices=("json", "human"), default="json",
                    help="output format (default json)")
    box_cap = option("--box-cap", type=int, default=None,
                     help="max boxes per image enumeration or lemma sweep")

    parser = argparse.ArgumentParser(
        prog="cantorsq",
        description="Exact arithmetic on middle-1/alpha Cantor sets: set "
                    "images, subdivision audits, and verifiable four-square "
                    "decomposition certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[alpha, output],
                       help="decompose x in [0,4] into four squares")
    p.add_argument("--x", required=True, help="the value to decompose")
    p.add_argument("--depth", type=int, default=40,
                   help="subdivision depth (default 40)")
    p.add_argument("--out", default=None,
                   help="also write the certificate to this file")
    p.add_argument("--ternary", action="store_true",
                   help="with --output human and alpha 3, show ternary digits")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("image", parents=[alpha, output, box_cap],
                       help="exact image of a level-set power")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--arity", type=int, default=4)
    p.add_argument("--map", choices=[k.value for k in MapKind], default="sq")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("gap-check", parents=[alpha, output, box_cap],
                       help="report the four-square gap below the thick regime")
    p.set_defaults(func=cmd_gap_check)

    p = sub.add_parser("verify-lemmas", parents=[alpha, output, box_cap],
                       help="exhaustively audit the subdivision lemma")
    p.add_argument("--max-level", type=int, default=5, dest="max_level")
    p.add_argument("--random-boxes", type=int, default=0,
                   help="additionally sample this many random deeper boxes")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --random-boxes (default 0)")
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("cover-report", parents=[alpha, output, box_cap],
                       help="per-level containment of the known bands")
    p.add_argument("--max-level", type=int, default=5, dest="max_level")
    p.set_defaults(func=cmd_cover_report)

    p = sub.add_parser("verify", parents=[output],
                       help="re-verify a certificate file")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=cmd_verify)
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps(
        {"error": {"kind": kind, "message": str(exc)}},
        sort_keys=True, separators=(",", ":"),
    ))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        _emit_error("internal", exc)
        return EXIT_VERIFY
    except (CapExceeded, ThinRegimeError, SearchExhausted, ValueError,
            TypeError, OSError) as exc:
        _emit_error("usage", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
