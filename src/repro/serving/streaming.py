"""Streaming ingestion: fold new events in while queries are in flight.

The paper's Section IV fold-in answers cold-start for *one* new event;
a live EBSN sees a continuous arrival stream and must make new events
recommendable **while queries are in flight**.  The building blocks
exist elsewhere — :meth:`repro.core.fold_in.EventFoldIn.fold_in_many`
learns vectors against frozen attribute embeddings, and
:meth:`repro.serving.engine.ServingEngine.refresh` extends the index by
preparing its next snapshot and publishing it with one reference store,
so a query sees the old index or the new one, never a mix, and a refresh
that fails publishes nothing.  This module adds the maintenance side:

* :class:`FoldInPump` is the background maintenance thread: it batches
  arrivals from :meth:`~FoldInPump.offer`, learns their vectors, calls
  the engine's ``refresh``, and records per-version staleness telemetry
  (events visible vs. arrived, fold-in lag percentiles) — every batch
  traced as a ``foldin.*`` span tree.  Every offered arrival ends
  visible, retrying, or in an explicit ``dropped`` counter — zero
  silent drops, mirroring the request-side outcome discipline.

Fault injection applies at the ``foldin.apply`` site (see
:mod:`repro.serving.faults`).  Semantics — the snapshot protocol and the
staleness definition — are specified in DESIGN.md §11.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.sanitizer import tsan_lock
from repro.serving.faults import fault_point
from repro.serving.telemetry import percentile, quantiles

if TYPE_CHECKING:
    from repro.core.fold_in import FoldInConfig, NewEventDescription
    from repro.serving.engine import ServingEngine


class Folder(Protocol):
    """Structural interface of the vector learner the pump drives.

    :class:`repro.core.fold_in.EventFoldIn` matches it.
    """

    def fold_in_many(
        self,
        events: "list[NewEventDescription]",
        config: "FoldInConfig | None" = None,
    ) -> np.ndarray:
        """Learn ``(n, K)`` float32 vectors for a batch of arrivals."""
        ...


class DoubleBufferedEngine:
    """The retired twin-replica front, reduced to serving ``primary``.

    Kept only because benchmarks/spine/workloads.py ``StreamSharded.setup``
    builds ``DoubleBufferedEngine(replica_a, replica_b)`` and its probes
    read ``replicas``, ``active``, ``swap_count`` and ``memory_bytes()``;
    the next benchmark PR points them at the engine and deletes this
    class.  An engine's ``refresh`` is already old-or-new, so ``shadow``
    is closed unbuilt and everything else is ``primary``'s.
    """

    def __init__(self, primary: "ServingEngine", shadow: "ServingEngine") -> None:
        shadow.close()
        self.active = primary
        self.replicas = (primary,)
        #: ``refresh`` calls that returned, as the flip used to count.
        self.swap_count = 0

    def refresh(
        self, new_event_ids: np.ndarray, new_event_vectors: np.ndarray | None = None
    ) -> int:
        """``primary.refresh``, counted."""
        added = self.active.refresh(new_event_ids, new_event_vectors)
        self.swap_count += 1
        return added

    def __getattr__(self, name: str) -> Any:
        return getattr(self.active, name)


@dataclass(slots=True)
class StalenessRecord:
    """Per-version visibility record for one published fold batch.

    ``lag`` is the fold-in lag: seconds from an event's *arrival*
    (its ``offer`` call) to the refresh that made it queryable — the
    staleness the streaming layer is accountable for (DESIGN.md §11).
    """

    version: int
    n_events: int
    lag_p50_s: float
    lag_max_s: float


class FoldInPump:
    """Background fold-in: batch arrivals, learn their vectors, refresh.

    The single maintenance writer of ``engine`` — any object with the
    engine's ``refresh`` / ``n_events`` / ``version`` contract (the one
    :meth:`repro.core.fold_in.EventFoldIn.fold_into_engine` states), a
    :class:`~repro.serving.engine.ServingEngine` single or sharded.
    Arrivals enter through :meth:`offer` (thread-safe, non-blocking);
    the pump thread gathers them into batches of at most ``max_batch``
    (waiting up to ``max_delay_s`` for a batch to fill), learns vectors
    through the folder, and publishes them with ``engine.refresh``.
    Every attempt is traced as a ``foldin.batch`` span with
    ``foldin.fold`` / ``foldin.apply`` children, and passes the
    ``foldin.apply`` fault point — a failed attempt publishes nothing,
    and errors are retried up to ``max_retries`` times before the batch
    lands in the explicit ``dropped`` counter; a batch's vectors are
    learned once and only the apply is repeated.  **Zero silent drops**: at any instant
    ``offered == visible + pending() + dropped``.

    Staleness telemetry is kept per published version
    (:class:`StalenessRecord`, newest ``max_lag_samples`` batches) and
    as fold-in lag percentiles over the newest ``max_lag_samples`` events;
    :meth:`summary` is the duck-typed payload
    :func:`repro.obs.exporter.foldin_families` exports.  Tuning:
    docs/OPERATIONS.md §10.
    """

    def __init__(
        self,
        engine: "ServingEngine",
        folder: Folder,
        *,
        config: "FoldInConfig | None" = None,
        max_batch: int = 16,
        max_delay_s: float = 0.05,
        max_retries: int = 16,
        retry_backoff_s: float = 0.005,
        max_lag_samples: int = 4096,
        tracer: Tracer | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if max_lag_samples < 1:
            raise ValueError("max_lag_samples must be >= 1")
        self._engine = engine
        self._folder = folder
        self._config = config
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.max_lag_samples = max_lag_samples
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._queue: deque[tuple[NewEventDescription, float]] = deque()  # replint: guarded-by(_lock)
        self._inflight = 0  # replint: guarded-by(_lock)
        self._offered = 0  # replint: guarded-by(_lock)
        self._visible = 0  # replint: guarded-by(_lock)
        self._dropped = 0  # replint: guarded-by(_lock)
        self._errors = 0  # replint: guarded-by(_lock)
        self._batches = 0  # replint: guarded-by(_lock)
        self._records: deque[StalenessRecord] = deque(maxlen=max_lag_samples)  # replint: guarded-by(_lock)
        self._lags: deque[float] = deque(maxlen=max_lag_samples)  # replint: guarded-by(_lock)
        self._last_error: str | None = None  # replint: guarded-by(_lock)
        self._stopping = False  # replint: guarded-by(_lock)
        self._lock = tsan_lock(threading.Lock(), "_lock")
        # Notified (under _lock) by every offer, ledger update and stop:
        # the pump sleeps on it for arrivals, drain() for the ledger.
        self._changed = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # the arrival side (any thread)
    def offer(self, event: "NewEventDescription") -> None:
        """Enqueue one arrival (non-blocking; stamps its arrival time)."""
        now = time.monotonic()
        with self._lock:
            self._queue.append((event, now))
            self._offered += 1
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> "FoldInPump":
        """Start the maintenance thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            with self._lock:
                self._stopping = False
            self._thread = threading.Thread(
                target=self._run, name="foldin-pump", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the pump; by default fold everything still queued first.

        With ``drain`` the pump keeps applying batches until the queue
        is empty (bounded by ``timeout_s``), so a clean shutdown leaves
        ``pending() == 0`` and the zero-silent-drop ledger balanced.
        """
        if drain:
            self.drain(timeout_s=timeout_s)
        with self._lock:
            self._stopping = True
            self._changed.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)

    def drain(self, *, timeout_s: float = 30.0) -> bool:
        """Wait until every offered arrival is visible or dropped."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            # replint: allow-loop(bounded wait for queue drain)
            while self._queue or self._inflight:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._changed.wait(left)
            return True

    def __enter__(self) -> "FoldInPump":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: drain and :meth:`stop`."""
        self.stop()

    # ------------------------------------------------------------------
    # telemetry
    def pending(self) -> int:
        """Arrivals offered but not yet visible or dropped."""
        with self._lock:
            return len(self._queue) + self._inflight

    def counters(self) -> dict[str, int]:
        """The zero-silent-drop ledger (offered = visible + pending + dropped)."""
        with self._lock:
            return {
                "offered": self._offered,
                "visible": self._visible,
                "pending": len(self._queue) + self._inflight,
                "dropped": self._dropped,
                "errors": self._errors,
                "batches": self._batches,
            }

    def staleness_records(self) -> list[StalenessRecord]:
        """The newest ``max_lag_samples`` per-version records, oldest first."""
        with self._lock:
            return list(self._records)

    def lag_percentiles(
        self, qs: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[str, float]:
        """Nearest-rank percentiles of per-event fold-in lag (seconds)."""
        with self._lock:
            lags = list(self._lags)
        return quantiles(lags, qs)

    def summary(self) -> dict[str, object]:
        """Everything an exporter needs, as one dict.

        Counters (``batches`` = published refreshes), overall lag
        percentiles, and the last
        ``64`` per-version staleness records (newest last) — the
        duck-typed payload :func:`repro.obs.exporter.foldin_families`
        renders as Prometheus families.
        """
        counters = self.counters()
        with self._lock:
            records = list(self._records)[-64:]
            last_error = self._last_error
        payload: dict[str, object] = dict(counters)
        payload["lag_percentiles"] = self.lag_percentiles()
        payload["last_error"] = last_error
        payload["versions"] = [
            {
                "version": r.version,
                "events": r.n_events,
                "lag_p50_s": r.lag_p50_s,
                "lag_max_s": r.lag_max_s,
            }
            for r in records
        ]
        return payload

    # ------------------------------------------------------------------
    # the maintenance thread
    def _run(self) -> None:
        """Pump loop: one iteration per fold batch until stopped."""
        while True:  # replint: allow-loop(pump lifetime, one turn per batch)
            batch = self._take_batch()
            if not batch:
                return  # stopping, and nothing left to flush
            self._apply_batch(batch)

    def _take_batch(self) -> "list[tuple[NewEventDescription, float]]":
        """Gather up to ``max_batch`` arrivals, waiting for the first.

        Once the first arrival is seen, waits for the batch to fill —
        at most ``max_delay_s``, and not at all once ``max_batch``
        arrivals are queued (or when stopping, to flush promptly).
        Empty only when stopping with an empty queue.
        """
        with self._lock:
            # replint: allow-loop(sleep until an arrival or stop)
            while not self._queue:
                if self._stopping:
                    return []
                self._changed.wait()
            fill_by = time.monotonic() + self.max_delay_s
            # replint: allow-loop(sleep until full batch, delay or stop)
            while len(self._queue) < self.max_batch and not self._stopping:
                left = fill_by - time.monotonic()
                if left <= 0:
                    break
                self._changed.wait(left)
            take = min(self.max_batch, len(self._queue))
            # replint: allow-loop(dequeue one bounded batch)
            batch = [self._queue.popleft() for _ in range(take)]
            self._inflight += len(batch)
        return batch

    def _apply_batch(
        self, batch: "list[tuple[NewEventDescription, float]]"
    ) -> None:
        """Fold one batch into the engine, with bounded retries."""
        events = [event for event, _arrived in batch]
        # Learned once: only the apply can fail transiently, and the
        # vectors do not depend on the engine.  A raising folder leaves
        # this None and is itself retried.
        vectors: np.ndarray | None = None
        attempt = 0
        while True:  # replint: allow-loop(bounded retry of one fold batch)
            try:
                with self._tracer.start(
                    "foldin.batch", n=len(events), attempt=attempt
                ) as span:
                    if vectors is None:
                        with span.child("foldin.fold"):
                            vectors = self._folder.fold_in_many(
                                events, self._config
                            )
                    self._publish(vectors, span)
                break
            except Exception as exc:  # noqa: BLE001 - ledgered, then retried
                with self._lock:
                    self._errors += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
                attempt += 1
                if attempt >= self.max_retries:
                    with self._lock:
                        self._dropped += len(batch)
                        self._inflight -= len(batch)
                        self._changed.notify_all()
                    return
                time.sleep(self.retry_backoff_s)
        now = time.monotonic()
        version = self._engine.version
        lags = [now - arrived for _event, arrived in batch]
        with self._lock:
            self._visible += len(batch)
            self._inflight -= len(batch)
            self._batches += 1
            self._records.append(
                StalenessRecord(
                    version=version,
                    n_events=len(batch),
                    lag_p50_s=percentile(lags, 50.0),
                    lag_max_s=max(lags),
                )
            )
            self._lags.extend(lags)
            self._changed.notify_all()

    def _publish(self, vectors: np.ndarray, span: Span) -> None:
        """One apply attempt: fault site, then one published refresh."""
        fault_point("foldin.apply", span=span)
        with span.child("foldin.apply"):
            base = self._engine.n_events
            ids = np.arange(base, base + vectors.shape[0], dtype=np.int64)
            added = self._engine.refresh(ids, new_event_vectors=vectors)
        span.tag(version=self._engine.version, added=added)
