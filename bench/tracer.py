"""Span recording for the traced benchmark run, installed from outside the program.

`Tracer.patch` replaces a name that a jsbnn module calls through (a module
global such as `jsbnn.train.draw_bundle`, or a class attribute such as
`jsbnn.autodiff.Tensor.backward`) with a wrapper that records a span: name,
start, end, parent span and run id. `Tracer.count` replaces a name with a
wrapper that only counts calls. Spans stay in memory until `write`.
`restore` puts every replaced name back.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(int)
        self.run_id = 0
        self._stack = []
        self._undo = []

    def _replace(self, owner, attr, wrapper_for):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_for(original))
        self._undo.append((owner, attr, original))

    def patch(self, owner, attr, name):
        spans, stack = self.spans, self._stack

        def wrapper_for(fn):
            def traced(*args, **kwargs):
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            return traced

        self._replace(owner, attr, wrapper_for)

    def count(self, owner, attr, name):
        counts = self.counts

        def wrapper_for(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        self._replace(owner, attr, wrapper_for)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return dict(out)

    def write(self, path, header: dict):
        """Write a header line, then one JSON line per span, in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
