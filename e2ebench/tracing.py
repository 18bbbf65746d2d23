"""Benchmark-side spans for the traced run.

Spans are recorded around calls into the program's public layer
functions, never inside the program.  Each span has a name, a start and
an end in seconds (``time.perf_counter`` in process; the wall clock for
the service, whose daemon stamps its job records with it), the span that
caused it, and the trace id of the input it belongs to.  Spans stay in
memory until :meth:`Tracer.write` dumps them at the end of the run.

A span's *self time* is its duration minus the part of that interval its
child spans cover; per-layer times are sums of self times by span name.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """An in-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _new(self, name: str, trace: str, start: float,
             parent: int | None) -> dict:
        span = {"id": len(self.spans), "name": name, "trace": trace,
                "parent": parent, "start": start, "end": start}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, trace: str):
        """Time the body as a child of the innermost open span; yields the
        span dict so the body can rename it once it knows the outcome."""
        span = self._new(name, trace, time.perf_counter(),
                         self._open[-1] if self._open else None)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, trace: str, start: float, end: float,
               parent: int | None) -> dict:
        """Add a span whose interval was measured elsewhere (the service's
        client and server wall-clock timestamps)."""
        span = self._new(name, trace, start, parent)
        span["end"] = max(start, end)
        return span

    def self_times(self, spans: list[dict] | None = None) -> dict[str, float]:
        """Sum of self time per span name over ``spans`` (default: all)."""
        spans = self.spans if spans is None else spans
        children: dict[int, list[dict]] = defaultdict(list)
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            covered = _covered(span, children.get(span["id"], ()))
            totals[span["name"]] += (span["end"] - span["start"]) - covered
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)
            handle.write("\n")


def _covered(span: dict, kids) -> float:
    """Length of the union of the children's intervals, clipped to the
    parent (server-side intervals may overlap or spill by clock jitter)."""
    intervals = sorted(
        (max(k["start"], span["start"]), min(k["end"], span["end"]))
        for k in kids
    )
    total, reach = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total
