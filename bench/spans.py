"""In-memory spans and counts recorded around calls into the program.

A span is (name, start_ns, end_ns, parent, item, tag): `name` is the
`module.function` that was called, `parent` the index of the enclosing span
(-1 at the top), `item` the frame or sample id, and `tag` a variant such as
the backbone engine. Notes (one value per call) and ratios (summed numerator
and denominator) are recorded at the same boundaries. With tracing off every
method is a no-op, so the end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.ratios: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: int = -1, tag: str = ""):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                  item, tag]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def record(self, name: str, start_ns: int, duration_ns: int, item: int = -1):
        """A child of the open span whose time was summed over many short
        intervals; it is placed at the start of those intervals."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start_ns, start_ns + duration_ns, parent, item, ""])

    def note(self, name: str, value: float):
        if self.enabled:
            self.notes[name].append(float(value))

    def ratio(self, name: str, num: float, den: float):
        if self.enabled:
            r = self.ratios[name]
            r[0] += num
            r[1] += den

    def self_ms(self) -> dict[tuple[str, str], list[float]]:
        """Self time of every span, in ms, grouped by (name, tag): its
        duration minus the time its direct children cover. Spans of one
        thread nest and never overlap, so the children's durations add."""
        child_ns = np.zeros(len(self.spans))
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[tuple[str, str], list[float]] = defaultdict(list)
        for i, (name, start, end, _, _, tag) in enumerate(self.spans):
            out[(name, tag)].append((end - start - child_ns[i]) * 1e-6)
        return out

    def write(self, path):
        """Spans, notes and ratios as one JSON document."""
        keys = ("name", "start_ns", "end_ns", "parent", "item", "tag")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "notes": self.notes, "ratios": self.ratios}, fh)
