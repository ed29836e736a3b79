"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every cantorsq
namespace that holds it (the package, the defining module and every
module that imported it), so a call is seen however its caller looks it
up.  Methods are patched on their class.  ``Tracer.uninstall`` puts the
originals back.  Each call appends one span
[name, start, end, parent span, operation id] to an in-memory list;
``write`` saves the list as JSON lines when the run ends, and
``layer_metrics`` reduces it to the per-operation layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import cantorsq
import cantorsq.decompose
import cantorsq.ifs
import cantorsq.images
import cantorsq.lemmas
import cantorsq.numerics

# Span name -> (module, attribute).  Names are the metric prefixes.
FUNCTIONS = {
    "decompose.decompose_four": (cantorsq.decompose, "decompose_four"),
    "decompose.scaling_reduce": (cantorsq.decompose, "scaling_reduce"),
    "decompose.choose_fourth": (cantorsq.decompose, "choose_fourth"),
    "decompose.decompose_three": (cantorsq.decompose, "decompose_three"),
    "decompose.verify_certificate": (cantorsq.decompose, "verify_certificate"),
    "lemmas.refine_step": (cantorsq.lemmas, "refine_step"),
    "lemmas.child_box": (cantorsq.lemmas, "child_box"),
    "numerics.box_sum_of_squares_image": (cantorsq.numerics, "box_sum_of_squares_image"),
    "ifs.word_left_endpoint": (cantorsq.ifs, "word_left_endpoint"),
    "ifs.word_from_left_endpoint": (cantorsq.ifs, "word_from_left_endpoint"),
    "images.image": (cantorsq.images, "image"),
}
# Span name -> (class, attribute, is classmethod).
METHODS = {
    "decompose.canonical_json": (cantorsq.decompose.Certificate, "canonical_json", False),
    "decompose.from_json_dict": (cantorsq.decompose.Certificate, "from_json_dict", True),
    "numerics.IntervalUnion": (cantorsq.numerics.IntervalUnion, "__init__", False),
}

NAME, START, END, PARENT, OP = range(5)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None and self.op >= 0:
                after(args, kwargs, result)
            return result

        return traced

    def _after_scan(self, args, kwargs, choice) -> None:
        self.counts["scan_retries" if choice is None else "scan_hits"] += 1

    def _after_word(self, args, kwargs, value) -> None:
        self.counts["word_digits"] += len(_arg(args, kwargs, 1, "word"))

    def _after_image(self, args, kwargs, union) -> None:
        request = _arg(args, kwargs, 0, "request")
        self.counts["boxes"] += cantorsq.images.enumeration_count(request)
        self.counts["parts"] += len(union)

    def install(self) -> None:
        after = {
            "decompose.choose_fourth": self._after_scan,
            "ifs.word_left_endpoint": self._after_word,
            "images.image": self._after_image,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cantorsq" or n.startswith("cantorsq.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            traced = self._wrap(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for name, (cls, attr, is_classmethod) in METHODS.items():
            original = cls.__dict__[attr]
            if is_classmethod:
                self._patch(cls, attr, classmethod(self._wrap(name, original.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, original))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps({"fields": ["name", "start_us", "end_us",
                                                "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write('["%s",%.3f,%.3f,%d,%d]\n' % (
                    name, (start - origin) * 1e6, (end - origin) * 1e6, parent, op))

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation totals by span name, plus the derived counters.

        Self time is a span's duration minus that of its direct children;
        calls are sequential, so children never overlap.
        """
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(self.spans):
            if span[OP] < 0:
                continue
            duration = span[END] - span[START]
            total[span[NAME]] += duration
            own[span[NAME]] += duration - child[index]
            calls[span[NAME]] += 1
        per_op = 1.0 / max(ops, 1)
        out = {}
        for name in list(FUNCTIONS) + list(METHODS):
            out[name + ".ms"] = total[name] * 1e3 * per_op
            out[name + ".self_ms"] = own[name] * 1e3 * per_op
            out[name + ".calls"] = calls[name] * per_op
        scans = calls["decompose.choose_fourth"]
        out["decompose.choose_fourth.retries"] = self.counts["scan_retries"] * per_op
        out["decompose.scan_hit_ratio"] = self.counts["scan_hits"] / scans if scans else 0.0
        out["ifs.word_digits"] = self.counts["word_digits"] * per_op
        out["images.boxes"] = self.counts["boxes"] * per_op
        seconds = total["images.image"]
        out["images.boxes_per_s"] = self.counts["boxes"] / seconds if seconds else 0.0
        out["images.parts"] = self.counts["parts"] * per_op
        return out
