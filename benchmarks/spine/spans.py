"""Benchmark-side spans: one per call into a layer, kept in memory.

The traced run wraps every call the benchmark makes into a layer's
public function in a span (name, start, end, parent, request id).  No
file under ``src/`` is instrumented; tracing inside the program is a
later issue.  A layer's *self time* is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    """One timed call.  ``parent`` indexes the recorder's span list."""

    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


def self_seconds(spans: list[Span]) -> list[float]:
    """Self time of every span, aligned with ``spans``.

    Children are clipped to their parent's interval and overlapping
    children are counted once (interval union), so a parent that fans out
    to concurrent legs is not charged negative self time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for lo, hi in sorted(children.get(index, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


class SpanRecorder:
    """Collects spans from any thread; parents follow per-thread nesting."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        """Time the enclosed block as a child of the thread's open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(name, self.clock(), float("nan"), parent, request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = self.clock()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every finished span called ``name``."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_by_name(self) -> dict[str, list[float]]:
        """Self seconds grouped by span name."""
        grouped: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self_seconds(self.spans)):
            grouped.setdefault(span.name, []).append(own)
        return grouped

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


class NullRecorder:
    """Tracing off: ``span`` is a shared no-op context manager."""

    enabled = False
    spans: tuple[Span, ...] = ()
    _null = contextlib.nullcontext()

    def span(self, name: str, request: int | None = None):
        return self._null
