"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded by the benchmark itself, around every call it makes
into a ``repro`` module; nothing inside ``src/repro`` is instrumented.
A span is ``(id, parent, layer, name, start, end, request)``: ``parent``
is the enclosing span (the span that caused this one), ``request`` ties
together the spans of one request.  A layer's self time is the summed
duration of its spans minus the part covered by their child spans.

:class:`NullTracer` is what untraced runs use: the same interface, no
recording, so the workload code is written once.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext

#: Layer names, one per ``repro`` module the benchmark calls into.
LAYERS = (
    "repro.diagram.pipeline",
    "repro.diagram.store",
    "repro.diagram.maintenance",
    "repro.index.engine",
    "repro.index.serialize",
    "repro.query",
    "repro.serve",
)
#: The layer of the benchmark's own code.
BENCH_LAYER = "perfbench"


class NullTracer:
    """Tracing off: spans cost one attribute read and nothing is kept."""

    on = False
    _null = nullcontext()

    def span(self, layer: str, name: str, request=None):
        return self._null

    def record(self, layer, name, start, end, request):
        pass


class Tracer:
    """Tracing on: every span is appended to an in-memory list."""

    on = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, layer: str, name: str, request=None):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                (span_id, parent, layer, name, start, end, request)
            )

    def record(self, layer, name, start, end, request):
        """Add a span measured elsewhere (e.g. an async round trip).

        Its parent is the innermost open span.
        """
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            (next(self._ids), parent, layer, name, start, end, request)
        )

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's cover.

        A child's cover is the union of its children's intervals, so
        concurrent children (pipelined requests) are not counted twice;
        concurrent spans of one layer each add their own self time.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
        for span_id, _, layer, _, start, end, _ in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for span_id, parent, layer, name, start, end, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "request": request,
                }) + "\n")


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total
