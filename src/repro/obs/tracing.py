"""Zero-dependency request tracing for the serving + training stack.

One :class:`Span` is one timed interval with a name, tags, and children;
one span *tree* is the causal story of one request — admission, queue
wait, each degradation-rung attempt (over a sharded index, a per-slice
rung's ``shard`` legs and merge), the cache write.  A :class:`Tracer` hands out root spans and, when a
root finishes, folds the tree into per-name aggregate statistics and
offers it to an attached :class:`~repro.obs.flight.FlightRecorder` for
postmortem retention.

Design constraints, in order:

1. **Disabled cost.**  The tracer follows the repository's
   no-op-singleton pattern (:data:`repro.utils.profiling.NULL_PROFILER`,
   :func:`repro.sanitizer.tsan_lock`, :func:`repro.serving.faults.fault_point`):
   a disabled tracer's :meth:`Tracer.start`/:meth:`Tracer.request`
   return the shared :data:`NULL_SPAN`, whose every method is a no-op
   returning itself — no allocation, no clock read, no lock.  The
   serving engines default to :data:`NULL_TRACER`, so production code
   pays one attribute load and a branch per instrumentation point
   (``tests/test_obs.py`` asserts the singletons really are shared).
2. **Explicit context propagation.**  There is no thread-local
   ambient span: crossing a thread pool means handing the span over
   explicitly — ``recommend_many`` creates the root at *submission*
   and parks it on :attr:`RequestContext.span <repro.serving.lifecycle.RequestContext.span>`;
   the worker picks it up, annotates the queue wait, and the engine
   parents its rung children (and a sharded index any ``shard`` legs)
   under it.  This keeps the tracer correct under the ``recommend_many``
   worker pool without any interpreter-global state.
3. **Span lifecycle discipline.**  Inline scopes use the context
   manager (``with tracer.start(...) as root:`` /
   ``with span.child(...) as s:``) — replint rule REP011 enforces that
   bare ``start``/``child``/``span``/``phase`` calls outside a ``with``
   item are rejected.  Roots that *must* open in one thread and close in
   another use :meth:`Tracer.request` + :meth:`Span.finish`, the one
   REP011-exempt spelling, so every escape hatch is greppable.

**Thread-safety:** a :class:`Span` is mutated by the request that owns
it; concurrent shard workers append children to one parent, which is a
single GIL-atomic ``list.append`` per child.  Tag writes are confined to
the span's serving thread.  :class:`Tracer` aggregate state is
lock-protected.  Finished trees handed to the flight recorder are
treated as immutable.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.sanitizer import tsan_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.flight import FlightRecorder
    from repro.serving.lifecycle import RequestOutcome

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "stamp_outcome",
]

#: Process-wide id source for trace and span ids.  ``next()`` on a
#: :func:`itertools.count` is a single C call, atomic under the GIL, so
#: ids are unique across every serving thread without a lock.
_IDS = itertools.count(1)


class Span:
    """One timed, tagged, nested interval of a request's lifecycle.

    Use as a context manager for inline scopes (the REP011-checked
    spelling) or finish explicitly via :meth:`finish` for spans handed
    across threads (create those through :meth:`Tracer.request`).
    Timing uses :func:`time.perf_counter`; :meth:`as_dict` reports
    offsets relative to the tree root so dumps are machine-portable.
    Not thread-safe for concurrent mutation of *one* span; concurrent
    children appends from several threads are safe (GIL-atomic).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started_s",
        "ended_s",
        "tags",
        "children",
        "status",
        "error",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: int | None = None,
        parent_id: int | None = None,
        tracer: "Tracer | None" = None,
        tags: dict[str, object] | None = None,
    ) -> None:
        self.name = name
        self.span_id = next(_IDS)
        self.trace_id = self.span_id if trace_id is None else trace_id
        self.parent_id = parent_id
        self.started_s = time.perf_counter()
        self.ended_s: float | None = None
        self.tags: dict[str, object] = tags if tags is not None else {}
        self.children: list["Span"] = []
        self.status = "ok"
        self.error: str | None = None
        self._tracer = tracer

    # -- state ----------------------------------------------------------
    @property
    def recording(self) -> bool:
        """``True`` for real spans; ``False`` on :data:`NULL_SPAN`."""
        return True

    @property
    def closed(self) -> bool:
        """Whether :meth:`finish` has run (directly or via ``with``)."""
        return self.ended_s is not None

    @property
    def duration_s(self) -> float:
        """Seconds from start to finish (to *now* while still open)."""
        end = self.ended_s if self.ended_s is not None else time.perf_counter()
        return end - self.started_s

    # -- building the tree ---------------------------------------------
    def tag(self, **tags: object) -> "Span":
        """Attach key/value tags (later writes win); returns ``self``."""
        self.tags.update(tags)
        return self

    def child(self, name: str, **tags: object) -> "Span":
        """Open a child span; close it with ``with`` (REP011) or
        :meth:`finish`.  Safe to call from several threads at once — the
        append into :attr:`children` is a single GIL-atomic operation."""
        node = Span(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            tags=dict(tags) if tags else None,
        )
        self.children.append(node)
        return node

    def annotate(self, name: str, seconds: float, **tags: object) -> "Span":
        """Record an *already elapsed* interval as a finished child.

        Used for durations measured elsewhere — e.g. the queue wait a
        worker discovers at dequeue time — so the tree still accounts
        for them.  The child is backdated to end now and start
        ``seconds`` earlier.
        """
        now = time.perf_counter()
        node = Span(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            tags=dict(tags) if tags else None,
        )
        node.started_s = now - max(float(seconds), 0.0)
        node.ended_s = now
        self.children.append(node)
        return node

    # -- lifecycle ------------------------------------------------------
    def finish(self) -> None:
        """Close the span (idempotent).  Closing a *root* delivers the
        finished tree to the owning tracer (aggregation + flight
        recorder)."""
        if self.ended_s is not None:
            return
        self.ended_s = time.perf_counter()
        if self.parent_id is None and self._tracer is not None:
            self._tracer._on_finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc is not None:
            self.status = "error"
            self.error = repr(exc)
        self.finish()

    # -- reading the tree ----------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        stack: list[Span] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def as_dict(self, *, t0: float | None = None) -> dict[str, object]:
        """JSON-ready nested view; times are offsets from the tree root.

        Pass nothing at the root — children inherit its ``t0`` so one
        dump shares a single time origin.
        """
        origin = self.started_s if t0 is None else t0
        end = self.ended_s
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.started_s - origin,
            "duration_s": (
                (end - self.started_s) if end is not None else None
            ),
            "closed": end is not None,
            "status": self.status,
            "error": self.error,
            "tags": dict(self.tags),
            "children": [c.as_dict(t0=origin) for c in self.children],
        }


class _NullSpan(Span):
    """The shared do-nothing span behind a disabled tracer.

    Every operation returns the singleton itself without touching any
    state, so instrumented code runs unchanged — and structurally free —
    when tracing is off (the same trick as
    :class:`repro.utils.profiling.NullContext`).
    """

    __slots__ = ()

    def __init__(self) -> None:  # noqa: B027 - deliberately no super()
        pass

    @property
    def recording(self) -> bool:
        """Always ``False``: nothing reaches a null span."""
        return False

    @property
    def closed(self) -> bool:
        """Vacuously ``True`` (a null span holds no open state)."""
        return True

    @property
    def duration_s(self) -> float:
        """Always ``0.0``."""
        return 0.0

    def tag(self, **tags: object) -> "Span":
        """No-op; returns the singleton."""
        return self

    def child(self, name: str, **tags: object) -> "Span":
        """No-op; returns the singleton."""
        return self

    def annotate(self, name: str, seconds: float, **tags: object) -> "Span":
        """No-op; returns the singleton."""
        return self

    def finish(self) -> None:
        """No-op."""

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None

    def walk(self) -> Iterator["Span"]:
        """Empty iterator (a null span has no tree)."""
        return iter(())

    def as_dict(self, *, t0: float | None = None) -> dict[str, object]:
        """An empty dict — null spans never appear in dumps."""
        return {}


#: The shared no-op span (compare with ``is`` in tests and guards).
NULL_SPAN: Span = _NullSpan()


class Tracer:
    """Hands out request root spans and aggregates finished trees.

    ``enabled=False`` (or the shared :data:`NULL_TRACER`) makes every
    span operation a no-op on :data:`NULL_SPAN` — the production
    default.  When enabled, each finished *root* is folded into
    per-span-name (count, total seconds) aggregates — the trace-derived
    breakdown the exporter renders — optionally retained in a bounded
    ``keep_last`` ring for tests, and offered to the attached flight
    ``recorder``.

    **Thread-safety:** ``request``/``start`` allocate thread-locally;
    the finish-side aggregate state is lock-protected, so any number of
    serving workers may finish roots concurrently.
    """

    __slots__ = (
        "enabled",
        "recorder",
        "keep_last",
        "_lock",
        "_finished",
        "_span_stats",
    )

    def __init__(
        self,
        *,
        enabled: bool = True,
        recorder: "FlightRecorder | None" = None,
        keep_last: int = 0,
    ) -> None:
        if keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        self.enabled = enabled
        self.recorder = recorder
        self.keep_last = int(keep_last)
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._finished: deque[Span] = deque(maxlen=keep_last or None)  # replint: guarded-by(_lock)
        self._span_stats: dict[str, list[float]] = {}  # replint: guarded-by(_lock)

    def request(self, name: str, **tags: object) -> Span:
        """A root span to be finished *explicitly* (:meth:`Span.finish`).

        The escape hatch for roots that open in one thread (submission)
        and close in another (the serving worker) — the only spelling
        REP011 does not require a ``with`` for.  Returns
        :data:`NULL_SPAN` when disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tracer=self, tags=dict(tags) if tags else None)

    def start(self, name: str, **tags: object) -> Span:
        """A root span for an inline scope: use as ``with tracer.start(...)``.

        Identical to :meth:`request` except for the contract REP011
        enforces: the returned span must be closed by the ``with`` block
        that opened it.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tracer=self, tags=dict(tags) if tags else None)

    # -- finish-side aggregation ---------------------------------------
    def _on_finish(self, root: Span) -> None:
        """Fold one finished root tree into the aggregates (internal)."""
        with self._lock:
            if self.keep_last:
                self._finished.append(root)
            for node in root.walk():
                entry = self._span_stats.get(node.name)
                if entry is None:
                    entry = self._span_stats[node.name] = [0.0, 0.0]
                entry[0] += 1.0
                entry[1] += node.duration_s
        recorder = self.recorder
        if recorder is not None:
            recorder.offer(root)

    def finished(self) -> list[Span]:
        """Snapshot of retained finished roots (``keep_last`` newest)."""
        with self._lock:
            return list(self._finished)

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate per-span-name stats over every finished tree.

        ``{name: {"count": n, "seconds_total": s, "seconds_mean": s/n}}``
        — the queue/rung wall-clock breakdown
        :func:`repro.obs.exporter.tracer_families` exports.
        """
        with self._lock:
            return {
                name: {
                    "count": entry[0],
                    "seconds_total": entry[1],
                    "seconds_mean": entry[1] / entry[0] if entry[0] else 0.0,
                }
                for name, entry in sorted(self._span_stats.items())
            }

    def reset(self) -> None:
        """Drop retained roots and aggregate stats (between phases)."""
        with self._lock:
            self._finished.clear()
            self._span_stats.clear()


#: Shared disabled tracer; the serving engines default to it so tracing
#: costs one attribute load + branch per instrumentation point unless a
#: caller opts in (mirrors :data:`repro.utils.profiling.NULL_PROFILER`).
NULL_TRACER = Tracer(enabled=False)


def stamp_outcome(span: Span, outcome: "RequestOutcome") -> None:
    """Tag a request span with its :class:`RequestOutcome` verdict.

    Idempotent and ``NULL_SPAN``-safe; called by the serving engines at
    every point an outcome becomes known, so a flight-recorder dump can
    name the rung (and, via shard child spans, the shard) that consumed
    the budget.
    """
    if not span.recording:
        return
    span.tag(answered=outcome.answered, user=outcome.user, n=outcome.n)
    if outcome.shed_reason is not None:
        span.tag(shed_reason=outcome.shed_reason)
    stats = outcome.stats
    if stats is not None:
        span.tag(
            rung=stats.rung,
            deadline_met=stats.deadline_met,
            deadline_remaining_s=stats.deadline_remaining_s,
            queue_wait_s=stats.queue_wait_s,
            cache_hit=stats.cache_hit,
            exact=stats.exact,
            stale=stats.stale,
            version=stats.version,
        )
