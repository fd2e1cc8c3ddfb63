"""Stdlib-only span recorder: timed spans and counters kept in memory.

A span has a name, start and end (``perf_counter_ns``), the index of its
parent span and the id of the op that caused it.  Self time is a span's
duration minus the durations of its direct children.  Nothing is written
until ``dump`` is called at the end of the run.
"""

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, op_id, calls]
        self.counters = {}
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name, calls=1):
        """Time the body as one span; ``calls`` counts the layer calls it
        covers when one span wraps a batch of identical calls."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, calls])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def totals(self):
        """{name: [self_ns, calls]} summed over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _, _, calls), sub in zip(self.spans, child_ns):
            acc = out.setdefault(name, [0, 0])
            acc[0] += end - start - sub
            acc[1] += calls
        return out

    def dump(self, path):
        """Write one JSON object per span, then one with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, calls in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id, "calls": calls}) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")
