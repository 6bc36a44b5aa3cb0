"""In-memory spans around the calls the benchmark makes into each layer.

A :class:`Tracer` always clocks a span (the rates need stage seconds even
with tracing off); it keeps the span record ``{name, layer, workload,
start, end, parent}`` only when ``on``.  Spans are opened from the
driver thread alone, so a plain list is the stack.  Nothing is written
until :func:`write_chrome_trace` is called after the last rep.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "layer_self_seconds", "cover_fraction",
           "write_chrome_trace"]


class Tracer:
    """Clock, counters and spans of one rep (or one set-up) of one
    workload.  ``counters`` holds what the stage helpers read from the
    program's public objects, ``notes`` the non-numeric facts, ``ops`` /
    ``ops_failed`` the operations the program attempted and failed."""

    def __init__(self, workload: str, *, on: bool) -> None:
        self.workload = workload
        self.on = on
        self.seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.ops = 0
        self.ops_failed = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if self.on:
            index = len(self.spans)
            self.spans.append({
                "name": name,
                "layer": layer,
                "workload": self.workload,
                "start": 0.0,
                "end": 0.0,
                "parent": self._open[-1] if self._open else None,
            })
            self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.seconds[name] += end - start
            if self.on:
                self._open.pop()
                self.spans[index]["start"] = start
                self.spans[index]["end"] = end


def _child_seconds(spans: list[dict]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return covered


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the part child spans cover."""
    covered = _child_seconds(spans)
    out: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        out[span["layer"]] += span["end"] - span["start"] - covered[index]
    return dict(out)


def cover_fraction(spans: list[dict]) -> float:
    """Share of the root span (the rep) its direct children cover."""
    root = spans[0]
    wall = root["end"] - root["start"]
    return _child_seconds(spans)[0] / wall if wall > 0 else 0.0


def write_chrome_trace(path, reps: list[list[dict]]) -> None:
    """Write every traced rep as complete ("X") events that
    ``chrome://tracing`` / Perfetto load; one row (tid) per rep."""
    events = []
    for tid, spans in enumerate(reps):
        for index, span in enumerate(spans):
            events.append({
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["workload"],
                "tid": tid,
                "args": {"id": index, "parent": span["parent"]},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
