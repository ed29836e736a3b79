"""The cantorsq benchmark command.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Runs one workload (sweep, edge, verify or image; see workloads.py) in
this process: one thread, a closed loop with one caller, whole passes
over the seeded input list until ``--seconds`` of operation time have
been measured.  Every output is checked by checks.py outside the timed
region; an operation that raises or fails its check counts as failed.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics derived from
spans recorded around the package's public functions (tracing.py) and
writes the spans to bench/out/.

The package is imported from src/ beside this directory.  Without it
the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("sweep", "edge", "verify", "image")
SETUP_PROBES = 7
# Stop starting passes after this much wall time, whatever --seconds says.
WALL_LIMIT_S = 150.0
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "decompose.decompose_four.ms": "ms/op",
    "decompose.scaling_reduce.ms": "ms/op",
    "decompose.choose_fourth.calls": "calls/op",
    "decompose.choose_fourth.ms": "ms/op",
    "decompose.choose_fourth.retries": "calls/op",
    "decompose.scan_hit_ratio": "ratio",
    "decompose.decompose_three.ms": "ms/op",
    "decompose.decompose_three.self_ms": "ms/op",
    "decompose.canonical_json.ms": "ms/op",
    "decompose.from_json_dict.ms": "ms/op",
    "decompose.verify_certificate.ms": "ms/op",
    "decompose.verify_certificate.self_ms": "ms/op",
    "lemmas.refine_step.calls": "calls/op",
    "lemmas.refine_step.ms": "ms/op",
    "lemmas.refine_step.self_ms": "ms/op",
    "lemmas.child_box.calls": "calls/op",
    "lemmas.child_box.ms": "ms/op",
    "numerics.box_sum_of_squares_image.calls": "calls/op",
    "numerics.box_sum_of_squares_image.ms": "ms/op",
    "numerics.IntervalUnion.calls": "calls/op",
    "numerics.IntervalUnion.ms": "ms/op",
    "ifs.word_left_endpoint.calls": "calls/op",
    "ifs.word_left_endpoint.ms": "ms/op",
    "ifs.word_digits": "digits/op",
    "ifs.word_from_left_endpoint.calls": "calls/op",
    "ifs.word_from_left_endpoint.ms": "ms/op",
    "images.image.ms": "ms/op",
    "images.image.self_ms": "ms/op",
    "images.boxes": "boxes/op",
    "images.boxes_per_s": "1/s",
    "images.parts": "parts/op",
    "setup.import_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: import and load, print the ready time, exit (see setup_s).
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load(name: str, seed: int):
    """Import cantorsq from src/ and build the workload's inputs.

    Returns the workload and the seconds spent importing the package.
    """
    if not os.path.isfile(os.path.join(SRC, "cantorsq", "__init__.py")):
        print("bench: no cantorsq sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import cantorsq
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(cantorsq.__file__))) != SRC:
        print("bench: cantorsq imported from %s, not %s" % (cantorsq.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads.WORKLOADS[name](seed), import_s


def measure_setup(args) -> float:
    """Median, over fresh processes, of process start to ready-to-run.

    Each probe process imports the package, loads the inputs and prints
    its wall-clock time; the probe's start is taken just before spawning.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              cwd=ROOT, timeout=120, check=False)
        if proc.returncode != 0:
            print("bench: set-up probe exited with %d" % proc.returncode, file=sys.stderr)
            sys.exit(2)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


class Loop:
    """Whole passes over the input list, timing each operation."""

    def __init__(self, workload, args) -> None:
        self.workload = workload
        self.args = args
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.started = time.perf_counter()

    def _fail(self, index, what: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if self.failed <= 5:
            print("bench: op %d (input %d) failed: %s" % (self.attempted, index, what),
                  file=sys.stderr)

    def one_pass(self, tracer=None) -> float:
        """Run one pass; returns its total operation time in seconds."""
        wl = self.workload
        gc.collect()
        clock = time.perf_counter
        timed = 0.0
        for index, item in enumerate(wl.items):
            wl.before_op()
            if tracer is not None:
                tracer.op = self.attempted
            start = clock()
            try:
                output = wl.op(item)
            except Exception:  # one failed operation must not end the run
                output = None
                error = traceback.format_exc(limit=3)
            end = clock()
            if tracer is not None:
                tracer.op = -1
            self.attempted += 1
            timed += end - start
            if output is None:
                self._fail(index, error, False)
                continue
            problems = wl.check(item, output)
            if problems:
                self._fail(index, "; ".join(problems), True)
            else:
                self.latencies.append(end - start)
        return timed

    def enough(self, timed: float, tail_pct: float) -> bool:
        if time.perf_counter() - self.started > WALL_LIMIT_S:
            return True
        count = len(self.latencies)
        beyond = count - math.ceil(tail_pct / 100 * count)
        return timed >= self.args.seconds and beyond >= MIN_BEYOND_TAIL

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def end_to_end(workload, args) -> dict:
    setup_s = measure_setup(args)
    loop = Loop(workload, args)
    timed = 0.0
    while True:
        timed += loop.one_pass()
        if loop.enough(timed, workload.tail_pct):
            break
    lat = loop.latencies
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / timed if timed else 0.0,
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_tail_ms": nearest_rank(lat, workload.tail_pct) * 1e3 if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("bench: %s seed %d: %d ops in %.2f s timed, tail = p%g"
          % (args.workload, args.seed, loop.attempted, timed, workload.tail_pct),
          file=sys.stderr)
    return loop.result({k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()})


def per_layer(workload, args, import_s: float) -> dict:
    """Untraced and traced passes in turn, so that drift in the machine's
    speed falls on both sides of the overhead estimate alike."""
    import tracing

    loop = Loop(workload, args)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    untraced_ops = traced_ops = 0
    while True:
        start_ops = loop.attempted
        untraced += loop.one_pass()
        untraced_ops += loop.attempted - start_ops
        tracer.install()
        start_ops = loop.attempted
        traced += loop.one_pass(tracer)
        traced_ops += loop.attempted - start_ops
        tracer.uninstall()
        if untraced + traced >= args.seconds or time.perf_counter() - loop.started > WALL_LIMIT_S:
            break
    values = tracer.layer_metrics(traced_ops)
    values["setup.import_ms"] = import_s * 1e3
    values["trace.overhead_pct"] = 100.0 * (
        (traced / traced_ops) / (untraced / untraced_ops) - 1.0)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.write(path)
    print("bench: %s seed %d: %d traced ops, %d spans written to %s"
          % (args.workload, args.seed, traced_ops, len(tracer.spans), path),
          file=sys.stderr)
    return loop.result({k: {"value": values[k], "unit": unit}
                        for k, unit in PER_LAYER_UNITS.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, import_s = load(args.workload, args.seed)
    if args.probe_setup:
        print(repr(time.time()), flush=True)
        return 0
    if args.trace:
        result = per_layer(workload, args, import_s)
    else:
        result = end_to_end(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
