"""The four workloads: seeded inputs, the timed operation, its checks.

Each workload is a class whose constructor loads the inputs for a seed
(this is the "loading the inputs" part of set-up) and exposes:

  items                   the fixed input list of one pass;
  op(item)                the timed operation, called through the package
                          namespace so that traced runs see the call;
  check(item, output)     problems found by checks.py, outside the timing;
  before_op()             state reset outside the timing;
  tail_pct                the percentile reported as op_tail_ms.

Input lists are built so that the seed moves the low-order details of
each input but not the mix of input classes that sets the percentiles.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import cantorsq

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "verify_corpus.jsonl")


class Workload:
    tail_pct = 90

    def before_op(self) -> None:
        pass


# --- sweep -----------------------------------------------------------------


class Sweep(Workload):
    """What ``cantorsq decompose`` does for a typical x: alpha 3, depth 40.

    One input per stratum [4i/K, 4(i+1)/K] of [0, 4], denominators
    uniform in [1, 10^6] as in the acceptance sweep.
    """

    COUNT = 120
    DEPTH = 40
    tail_pct = 95

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.params = cantorsq.make_params(3)
        self.items = []
        for i in range(self.COUNT):
            den = rng.randint(1, 10**6)
            lo = -(-4 * den * i // self.COUNT)
            hi = 4 * den * (i + 1) // self.COUNT
            self.items.append(Fraction(rng.randint(lo, max(lo, hi)), den))

    def op(self, x):
        return cantorsq.decompose_four(self.params, x, self.DEPTH).canonical_json()

    def check(self, x, text) -> list:
        return checks.check_certificate(text, self.params.alpha, x, self.DEPTH)


# --- edge ------------------------------------------------------------------


class Edge(Workload):
    """Inputs just above a scaled boundary r^(2s) ((1-r)^2 + delta).

    delta = c r^(2n) puts the fourth-coordinate hit at scan depth about n;
    n runs over a fixed grid from 10 to 250, the seed draws c in
    [1/4, 3/4] and s in {0, 1, 2}.  x = 4, x = 3 + r^2 and, at alpha 3,
    x = (1-r)^2 = 4/9 take the exact-top-hit path (all right-endpoint
    tails, zero residual).  45 inputs: an odd count whose median and 90th
    percentile fall inside one input's repeats, not between two inputs.
    """

    ALPHAS = (Fraction(3), Fraction(7, 2), Fraction(4), Fraction(10))
    SCAN_DEPTHS = (10, 20, 35, 50, 75, 100, 140, 190, 250)
    DEPTH = 4
    tail_pct = 90

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.items = []
        for alpha in self.ALPHAS:
            params = cantorsq.make_params(alpha)
            r = params.ratio
            for n in self.SCAN_DEPTHS:
                c = Fraction(rng.randint(250, 750), 1000)
                y = (1 - r) ** 2 + c * r ** (2 * n)
                self.items.append((params, r ** (2 * rng.randint(0, 2)) * y))
            self.items.append((params, Fraction(4)))
            self.items.append((params, 3 + r * r))
        self.items.append((cantorsq.make_params(3), Fraction(4, 9)))
        rng.shuffle(self.items)

    def op(self, item):
        params, x = item
        return cantorsq.decompose_four(params, x, self.DEPTH).canonical_json()

    def check(self, item, text) -> list:
        params, x = item
        return checks.check_certificate(text, params.alpha, x, self.DEPTH)


# --- verify ----------------------------------------------------------------


def mutate(cert: dict, kind: str, rng: random.Random) -> dict:
    """A single-field change that every correct verifier must reject."""
    cert = json.loads(json.dumps(cert))
    if kind == "digit":
        # Distinct words of one length address distinct left endpoints, so
        # the listed value no longer matches the word.
        point = cert["points"][rng.randrange(3)]
        pos = rng.randrange(len(point["prefix"]))
        flipped = "1" if point["prefix"][pos] == "2" else "2"
        point["prefix"] = point["prefix"][:pos] + flipped + point["prefix"][pos + 1:]
    elif kind == "residual":
        cert["residual"] = str(Fraction(cert["residual"]) + Fraction(1, rng.randint(2, 10**9)))
    elif kind == "bound":
        delta = Fraction(1, rng.randint(2, 1000))
        cert["bound"] = str(Fraction(cert["bound"]) * (1 + rng.choice((1, -1)) * delta))
    elif kind == "case":
        # Another fourth-point rule: the listed fourth point stops matching.
        tag, band, power = cert["case"].split(":")
        swap = {"one": "zero", "zero": "one"}
        if tag in swap:
            cert["case"] = "%s:%s:%s" % (swap[tag], band, power)
        else:
            cert["case"] = "%s:%s:%d" % (tag, band, int(power) + 1)
    elif kind == "trace":
        cert["trace"] = cert["trace"][:-1]
    else:
        raise ValueError(kind)
    return cert


def load_corpus() -> list:
    with open(CORPUS, encoding="ascii") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Verify(Workload):
    """``cantorsq verify`` without the file read, on a committed corpus.

    Per pass (105 operations): every valid certificate (45 at depth 40,
    15 at depth 200), a bound mutant of each depth-200 certificate (a full
    replay before the rejection) and 30 early-rejected mutants.  Classes
    by cost: 29% early rejects, 43% depth-40 replays, 29% depth-200
    replays, a third of which are at alpha 10, the slowest.  The median
    sits mid depth-40 and the 95th percentile mid alpha-10 depth-200.
    """

    tail_pct = 95
    # (certificate depth, mutation, count); valid certificates are added
    # separately.
    MUTANTS = (
        (200, "bound", 15),
        (40, "digit", 5), (40, "residual", 5), (40, "case", 5), (40, "trace", 5),
        (200, "digit", 3), (200, "residual", 3), (200, "case", 2), (200, "trace", 2),
    )

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        corpus = load_corpus()
        self.params = {}
        self.items = []
        for cert in corpus:
            self._add(cert, True)
        for depth, kind, count in self.MUTANTS:
            pool = [c for c in corpus if c["depth"] == depth]
            for cert in rng.sample(pool, count):
                self._add(mutate(cert, kind, rng), False)
        rng.shuffle(self.items)

    def _add(self, cert: dict, valid: bool) -> None:
        alpha = Fraction(cert["alpha"])
        if alpha not in self.params:
            self.params[alpha] = cantorsq.make_params(alpha)
        text = json.dumps(cert, sort_keys=True, separators=(",", ":"))
        self.items.append((self.params[alpha], text, valid))

    def op(self, item):
        params, text, _ = item
        cert = cantorsq.Certificate.from_json_dict(json.loads(text))
        return cantorsq.verify_certificate(params, cert).ok

    def check(self, item, accepted) -> list:
        params, text, valid = item
        problems = checks.check_verdict(accepted, valid)
        if accepted and not problems:
            cert = json.loads(text)
            problems = checks.check_certificate(
                text, params.alpha, Fraction(cert["x"]), cert["depth"])
        return problems


# --- image -----------------------------------------------------------------


def clear_package_caches() -> None:
    """Empty every functools cache in the package.

    ``image`` memoizes each result for the life of the process; clearing
    before each request makes it compute from cold, as a fresh
    ``cantorsq image`` process would, whatever ran before it.
    """
    for name, module in list(sys.modules.items()):
        if name == "cantorsq" or name.startswith("cantorsq."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Image(Workload):
    """Distinct ``image`` requests, each from 0.4 ms to ~0.15 s.

    Thick alphas 3, 4, 10 (full intervals) and thin alphas 2, 5/2 (up to
    ~6.5k parts).  Levels run over consecutive ranges, in ascending order,
    so each request's image is checked to lie inside the one just before
    it; requests with at most ORACLE_BOXES boxes are compared with a
    brute-force enumeration.  The request list and its order are fixed, so
    cache and allocator state do not depend on the seed; the seed picks
    the sampled boxes.
    """

    tail_pct = 95
    SAMPLED_BOXES = 8
    ORACLE_BOXES = 5000
    # (kind, arity) -> levels, for thick and for thin alphas.
    THICK = {("sq", 2): range(6, 10), ("sq", 3): range(4, 7), ("sq", 4): range(3, 6),
             ("sum", 2): range(7, 11), ("sum", 3): range(5, 8), ("diff", 2): range(7, 11)}
    THIN = {("sq", 2): range(6, 9), ("sq", 3): range(4, 7), ("sq", 4): range(3, 6),
            ("sum", 2): range(6, 9), ("sum", 3): range(5, 8), ("diff", 2): range(6, 9)}
    ALPHAS = ((Fraction(3), THICK), (Fraction(4), THICK), (Fraction(10), THICK),
              (Fraction(2), THIN), (Fraction(5, 2), THIN))

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.items = []
        for alpha, plan in self.ALPHAS:
            params = cantorsq.make_params(alpha)
            for (kind, arity), levels in plan.items():
                for level in levels:
                    request = cantorsq.ImageRequest(
                        params, level, arity, cantorsq.MapKind(kind))
                    boxes = tuple(
                        tuple("".join(rng.choice("12") for _ in range(level))
                              for _ in range(arity))
                        for _ in range(self.SAMPLED_BOXES))
                    self.items.append((request, (alpha, kind, arity, level), boxes))
        self._oracles: dict = {}
        self._previous = (None, None)

    def before_op(self) -> None:
        clear_package_caches()

    def op(self, item):
        return cantorsq.image(item[0])

    def check(self, item, union) -> list:
        _, key, boxes = item
        parts = [(part.lo, part.hi) for part in union]
        oracle = None
        if checks.oracle_box_count(*key[1:]) <= self.ORACLE_BOXES:
            if key not in self._oracles:
                self._oracles[key] = checks.brute_image(*key)
            oracle = self._oracles[key]
        problems = checks.check_image(parts, *key, boxes, oracle)
        previous_key, previous_parts = self._previous
        if previous_key == key[:3] + (key[3] - 1,):
            problems += checks.check_nested(parts, previous_parts)
        self._previous = (key, parts)
        return problems


WORKLOADS = {"sweep": Sweep, "edge": Edge, "verify": Verify, "image": Image}
