"""Run a workload N times with different seeds and report the spread.

    python3 bench/steady.py --workload sweep --runs 10 [--first-seed 1]
                            [--seconds S] [--trace 0|1]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median and, for end-to-end metrics,
the bound from BENCHMARK.json.  A spread above the bound is marked
``OVER``; setup_s is exempt from that mark, as it is gated on its median
only.  The raw results go to bench/out/steady-<workload>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600,
                              check=False, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d wall=%.1fs" % (
            seed, result["correct"], result["attempted"], result["failed"], wall), flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = os.path.join(HERE, "out", "steady-%s-%d.json" % (args.workload, args.trace))
    with open(raw, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share per run: %s" % shares)
    print("%-42s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread > bound:
            mark, steady = "OVER", False
        print("%-42s %12.4f %12.4f %12.4f %8.3f %6s %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, mark))
    return 0 if steady and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
