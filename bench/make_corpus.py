"""Regenerate verify_corpus.jsonl, the valid certificates of ``verify``.

    python3 bench/make_corpus.py

Writes 15 depth-40 and 5 depth-200 certificates at each of alpha 3, 4
and 10, one canonical certificate per line, for stratified random x in
(0, 4] drawn from a fixed seed.  The corpus is committed so that the
workload's set-up only reads a file and does not depend on how fast the
decomposer is.  Every certificate must pass both the package verifier
and the benchmark's own independent check before it is written.
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cantorsq  # noqa: E402

import checks  # noqa: E402
from workloads import CORPUS  # noqa: E402

CORPUS_SEED = 2001
PLAN = ((40, 15), (200, 5))
ALPHAS = (Fraction(3), Fraction(4), Fraction(10))


def main() -> int:
    rng = random.Random(CORPUS_SEED)
    lines = []
    for alpha in ALPHAS:
        params = cantorsq.make_params(alpha)
        for depth, count in PLAN:
            for i in range(count):
                den = rng.randint(1, 10**6)
                num = rng.randint(4 * den * i // count + 1, 4 * den * (i + 1) // count)
                x = Fraction(num, den)
                cert = cantorsq.decompose_four(params, x, depth)
                text = cert.canonical_json()
                problems = checks.check_certificate(text, alpha, x, depth)
                if problems or not cantorsq.verify_certificate(params, cert).ok:
                    print("bad certificate for x=%s: %s" % (x, problems), file=sys.stderr)
                    return 1
                lines.append(text)
    with open(CORPUS, "w", encoding="ascii") as handle:
        handle.writelines(lines)
    print("wrote %d certificates to %s" % (len(lines), CORPUS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
