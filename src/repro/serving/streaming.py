"""Streaming ingestion: zero-downtime fold-in behind a double-buffered swap.

The paper's Section IV fold-in answers cold-start for *one* new event;
a live EBSN sees a continuous arrival stream and must make new events
recommendable **while queries are in flight**.  The building blocks
exist elsewhere — :meth:`repro.core.fold_in.EventFoldIn.fold_in_many`
learns vectors against frozen attribute embeddings, and the engine
grows incrementally via ``refresh()`` — but ``refresh()`` mutates the
served index in place and is explicitly *not* linearisable with
concurrent queries.  This module closes that gap:

* :class:`DoubleBufferedEngine` fronts **two** identically-configured
  engine replicas.  Queries are served from the *active* replica; folds
  are applied to the *shadow* replica off the query path, and
  publication is a **single reference flip** — a reader pins a replica
  before querying and always observes a complete, version-stamped
  index (old or new, never a half-refreshed one).  Readers never block
  on a rebuild; the maintenance thread is the only party that waits
  (it quiesces the retired replica's stragglers before mutating it).

* :class:`FoldInPump` is the background maintenance thread: it batches
  arrivals from :meth:`offer`, learns their vectors, drives the front's
  shadow-refresh-and-flip, and records per-version staleness telemetry
  (events visible vs. arrived, fold-in lag percentiles) — every batch
  traced as a ``foldin.*`` span tree.  Every offered arrival ends
  visible, retrying, or in an explicit ``dropped`` counter — zero
  silent drops, mirroring the request-side outcome discipline.

Fault injection applies at the ``foldin.apply`` site (see
:mod:`repro.serving.faults`); a replica whose readers refuse to drain
raises :class:`SwapWedgedError` (runbook: docs/OPERATIONS.md §10).
Semantics — swap atomicity, the staleness definition, and what
``refresh()`` vs. the shadow swap each guarantee — are specified in
DESIGN.md §11.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol

import numpy as np

from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.sanitizer import tsan_lock
from repro.serving.faults import fault_point
from repro.serving.telemetry import MetricsRegistry, percentile, quantiles

if TYPE_CHECKING:
    from repro.core.fold_in import FoldInConfig, NewEventDescription
    from repro.online.ta import RetrievalResult
    from repro.serving.engine import Recommendation, ServingEngine
    from repro.serving.lifecycle import LadderPolicy, RequestContext, RequestOutcome


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


class SwapWedgedError(RuntimeError):
    """The retired replica's readers failed to drain within the timeout.

    Raised by :meth:`DoubleBufferedEngine.refresh` when a query pinned
    the replica about to be mutated and did not finish within
    ``quiesce_timeout_s`` — typically a reader stuck behind an injected
    stall or a budget far above the fold-in cadence.  The fold is not
    applied; the pump counts the failure and retries.  Recovery steps:
    docs/OPERATIONS.md §10.
    """


class _ReaderGate:
    """Counts in-flight readers of one replica.

    ``enter``/``exit`` bracket a query (a tiny counter update under a
    lock held for nanoseconds — readers never wait on maintenance);
    ``quiesce`` is the maintenance side, sleeping on the gate's
    condition until the last reader's ``exit`` wakes it.
    """

    def __init__(self) -> None:
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._drained = threading.Condition(self._lock)
        self._readers = 0  # replint: guarded-by(_lock)

    def enter(self) -> None:
        """Register one in-flight reader."""
        with self._lock:
            self._readers += 1

    def exit(self) -> None:
        """Unregister one reader (must pair an :meth:`enter`)."""
        with self._lock:
            self._readers -= 1
            if self._readers == 0:
                self._drained.notify_all()

    def readers(self) -> int:
        """The number of currently pinned readers."""
        with self._lock:
            return self._readers

    def quiesce(self, timeout_s: float) -> bool:
        """Wait (bounded) until no reader is pinned; True on success."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while self._readers:  # replint: allow-loop(bounded wait for reader drain)
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._drained.wait(left)
            return True


class _Buffer:
    """One side of the double buffer: an engine replica plus its gate."""

    __slots__ = ("engine", "gate", "applied")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.gate = _ReaderGate()
        # Absolute count of fold batches applied to this replica; read
        # and written only under the front's _swap_lock.
        self.applied = 0


class DoubleBufferedEngine:
    """Zero-downtime serving over two identically-built engine replicas.

    Construction takes two engines built from the **same** vectors and
    configuration (same version, user and event counts — validated).
    One replica is *active* and serves every query; the other is the
    *shadow*.  :meth:`refresh` applies the fold to the shadow, then
    publishes it by flipping one attribute reference — the swap the
    streaming layer promises is atomic:

    * **Readers never block on a rebuild.**  A query pins the active
      replica through a reader gate (two tiny counter updates), runs
      entirely on that replica, and unpins.  The gate's lock is never
      held across index work.
    * **Old-or-new, never half.**  The replica being refreshed is never
      the one readers can newly pin, and the maintenance path waits for
      stragglers (readers that pinned the replica before it was retired
      by the *previous* flip) to drain before mutating it.  Every query
      therefore observes a complete index at a single version stamp.
    * **Single writer.**  ``refresh`` is serialised on ``_swap_lock``;
      drive it from one maintenance thread (the :class:`FoldInPump`).
      ``fold_into_engine`` reads ``n_events`` before calling
      ``refresh``, so concurrent writers could race id assignment.

    Both replicas should share one :class:`MetricsRegistry`, one
    :class:`LadderPolicy` and one :class:`Tracer` so telemetry and rung
    estimates are continuous across flips.
    The memory cost is the classic double-buffering trade: two resident
    indices buy constant read availability.

    Satisfies the ``fold_into_engine`` refresh contract, so
    :meth:`repro.core.fold_in.EventFoldIn.fold_into_engine` can target
    a front directly.
    """

    def __init__(
        self,
        primary: "ServingEngine",
        shadow: "ServingEngine",
        *,
        quiesce_timeout_s: float = 5.0,
    ) -> None:
        if primary is shadow:
            raise ValueError("primary and shadow must be distinct engines")
        if (primary.n_users, primary.n_events, primary.version) != (
            shadow.n_users,
            shadow.n_events,
            shadow.version,
        ):
            raise ValueError(
                "replicas diverge: "
                f"primary (users={primary.n_users}, events={primary.n_events}, "
                f"version={primary.version}) vs shadow (users={shadow.n_users}, "
                f"events={shadow.n_events}, version={shadow.version})"
            )
        if quiesce_timeout_s <= 0:
            raise ValueError("quiesce_timeout_s must be > 0")
        self.quiesce_timeout_s = quiesce_timeout_s
        self._buffers = (_Buffer(primary), _Buffer(shadow))
        # The publication point: queries read this one attribute without
        # any lock (a single reference load is atomic); only refresh()
        # writes it, under _swap_lock, *after* the shadow is complete.
        # Deliberately not lock-annotated — the lock-free read is the
        # design (see the class docstring and DESIGN.md §11).
        self._active = self._buffers[0]
        self._log: list[tuple[np.ndarray, np.ndarray | None]] = []  # replint: guarded-by(_swap_lock)
        self._log_base = 0  # replint: guarded-by(_swap_lock)
        self._swaps = 0  # replint: guarded-by(_swap_lock)
        self._swap_lock = tsan_lock(threading.Lock(), "_swap_lock")

    # ------------------------------------------------------------------
    # introspection
    @property
    def version(self) -> int:
        """The version stamp queries currently observe."""
        return self._active.engine.version

    @property
    def n_users(self) -> int:
        """Rows of the (shared) user embedding matrix."""
        return self._active.engine.n_users

    @property
    def n_events(self) -> int:
        """Event rows *visible to queries* (folds-in-flight excluded)."""
        return self._active.engine.n_events

    @property
    def active(self) -> "ServingEngine":
        """The replica currently serving queries (telemetry snapshot)."""
        return self._active.engine

    @property
    def replicas(self) -> "tuple[ServingEngine, ServingEngine]":
        """Both replicas, construction order (tests and telemetry)."""
        return (self._buffers[0].engine, self._buffers[1].engine)

    @property
    def metrics(self) -> MetricsRegistry:
        """The active replica's metrics registry.

        Build both replicas over one shared registry so this is stable
        across flips.
        """
        return self._active.engine.metrics

    @property
    def ladder(self) -> "LadderPolicy":
        """The active replica's ladder policy (share one, like metrics)."""
        return self._active.engine.ladder

    @property
    def swap_count(self) -> int:
        """How many reference flips have been published."""
        with self._swap_lock:
            return self._swaps

    def memory_bytes(self) -> int:
        """Total resident index bytes across both replicas."""
        return sum(buf.engine.memory_bytes() for buf in self._buffers)

    def index_age_s(self) -> float:
        """Age of the index queries currently observe."""
        return self._active.engine.index_age_s()

    # ------------------------------------------------------------------
    # lifecycle
    def warm(self) -> "DoubleBufferedEngine":
        """Build both replicas' primary indices now."""
        for buf in self._buffers:  # replint: allow-loop(two replicas)
            buf.engine.warm()
        return self

    def warm_ladder(self) -> "DoubleBufferedEngine":
        """Warm every degradation rung on both replicas."""
        for buf in self._buffers:  # replint: allow-loop(two replicas)
            buf.engine.warm_ladder()
        return self

    def close(self) -> None:
        """Release replica resources (sharded fan-out pools); idempotent."""
        for buf in self._buffers:  # replint: allow-loop(two replicas)
            buf.engine.close()

    def __enter__(self) -> "DoubleBufferedEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------
    # the swap
    def refresh(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None = None,
    ) -> int:
        """Fold new events in with zero query downtime.

        The zero-downtime spelling of the engines' ``refresh``: quiesce
        the shadow's stragglers, replay any fold batches it missed while
        retired, apply the new batch to it, hand it the active replica's
        cached answers (:meth:`~repro.serving.engine.ServingEngine.
        adopt_answers`), then publish it with a single reference flip.
        Queries running on the old active replica finish undisturbed —
        on its own cache, so never on an answer topped up past the
        version they are pinned to; new queries pin the new one.  Raises
        :class:`SwapWedgedError` (fold *not* applied, safe to retry) if
        stragglers fail to drain within ``quiesce_timeout_s``.  Returns
        the number of events added.  Serialised on the swap lock —
        single-writer discipline, see the class docstring.
        """
        ids = np.atleast_1d(np.asarray(new_event_ids, dtype=np.int64)).copy()
        vectors = (
            None
            if new_event_vectors is None
            else np.asarray(new_event_vectors, dtype=np.float64).copy()
        )
        with self._swap_lock:
            active = self._active
            shadow = (
                self._buffers[1]
                if active is self._buffers[0]
                else self._buffers[0]
            )
            if not shadow.gate.quiesce(self.quiesce_timeout_s):
                raise SwapWedgedError(
                    f"replica readers did not drain within "
                    f"{self.quiesce_timeout_s:.3f}s "
                    f"({shadow.gate.readers()} still pinned)"
                )
            self._catch_up_locked(shadow)
            added = shadow.engine.refresh(ids, vectors)
            self._log.append((ids, vectors))
            shadow.applied = self._log_base + len(self._log)
            # The answers follow the active replica: the shadow starts
            # from a copy of what the retiring one has cached (each entry
            # at most this batch behind the shadow, topped up on its next
            # read), not from the half of the traffic it saw last time.
            shadow.engine.adopt_answers(active.engine)
            # The publication point: one atomic reference store.
            self._active = shadow
            self._swaps += 1
            self._trim_log_locked()
            return added

    def _catch_up_locked(self, buf: _Buffer) -> None:
        """Replay fold batches ``buf`` missed while retired (swap lock held)."""
        start = buf.applied - self._log_base
        # replint: allow-loop(replaying the handful of missed fold batches)
        for ids, vectors in self._log[start:]:
            buf.engine.refresh(ids, vectors)
            buf.applied += 1

    def _trim_log_locked(self) -> None:
        """Drop replay-log entries both replicas have applied (lock held)."""
        common = min(buf.applied for buf in self._buffers)
        drop = common - self._log_base
        if drop > 0:
            del self._log[:drop]
            self._log_base = common

    # ------------------------------------------------------------------
    # queries (all delegate to the pinned active replica)
    @contextmanager
    def _pinned(self) -> "Iterator[ServingEngine]":
        """Pin the active replica for the duration of one query."""
        # Retries at most once per concurrent flip: if the reference
        # moved between the read and the gate increment, the increment
        # may have landed on a replica the maintenance path already
        # considers quiesced — back out and pin the new active.
        while True:  # replint: allow-loop(retries at most once per flip)
            buf = self._active
            buf.gate.enter()
            if self._active is buf:
                break
            buf.gate.exit()
        try:
            yield buf.engine
        finally:
            buf.gate.exit()

    def query(self, user: int, n: int) -> "RetrievalResult":
        """Exact top-n retrieval on the pinned active replica."""
        with self._pinned() as engine:
            return engine.query(user, n)

    def recommend(self, user: int, n: int = 10) -> "list[Recommendation]":
        """Exact top-n recommendations on the pinned active replica."""
        with self._pinned() as engine:
            return engine.recommend(user, n)

    def recommend_within(
        self,
        user: int,
        n: int = 10,
        *,
        budget_s: float | None = None,
        ctx: "RequestContext | None" = None,
    ) -> "RequestOutcome":
        """Deadline-scoped serving on the pinned active replica.

        The whole ladder walk runs on one replica: a flip published
        mid-request does not move the request, so its answer is
        internally consistent at a single version stamp.
        """
        with self._pinned() as engine:
            return engine.recommend_within(user, n, budget_s=budget_s, ctx=ctx)

    def recommend_many(
        self,
        users: np.ndarray,
        n: int = 10,
        *,
        budget_s: float = 0.05,
        workers: int = 4,
        queue_depth: int | None = None,
    ) -> "list[RequestOutcome]":
        """Concurrent deadline-scoped serving on one pinned replica.

        The full submission batch is served from the replica active at
        call time (folds published mid-batch become visible to the
        *next* call) — the pin covers the batch, so the maintenance
        path cannot mutate the replica under it.
        """
        with self._pinned() as engine:
            return engine.recommend_many(
                users,
                n,
                budget_s=budget_s,
                workers=workers,
                queue_depth=queue_depth,
            )


@dataclass(slots=True)
class StalenessRecord:
    """Per-version visibility record for one published fold batch.

    ``lag`` is the fold-in lag: seconds from an event's *arrival*
    (its ``offer`` call) to the flip that made it queryable — the
    staleness the streaming layer is accountable for (DESIGN.md §11).
    """

    version: int
    n_events: int
    lag_p50_s: float
    lag_max_s: float


class FoldInPump:
    """Background fold-in: batch arrivals, fold into the shadow, flip.

    The single maintenance writer of a :class:`DoubleBufferedEngine`.
    Arrivals enter through :meth:`offer` (thread-safe, non-blocking);
    the pump thread gathers them into batches of at most ``max_batch``
    (waiting up to ``max_delay_s`` for a batch to fill), learns vectors
    through the folder, and drives the front's
    shadow-refresh-and-flip.  Every attempt is traced as a
    ``foldin.batch`` span with ``foldin.fold`` / ``foldin.apply``
    children, and passes the ``foldin.apply`` fault point — injected
    errors (and :class:`SwapWedgedError`) are retried up to
    ``max_retries`` times before the batch lands in the explicit
    ``dropped`` counter; a batch's vectors are learned once and only
    the apply is repeated.  **Zero silent drops**: at any instant
    ``offered == visible + pending() + dropped``.

    Staleness telemetry is kept per published version
    (:class:`StalenessRecord`, newest ``max_lag_samples`` batches) and
    as fold-in lag percentiles over the newest ``max_lag_samples`` events;
    :meth:`summary` is the duck-typed payload
    :func:`repro.obs.exporter.foldin_families` exports.  Tuning and
    recovery: docs/OPERATIONS.md §10.
    """

    def __init__(
        self,
        front: DoubleBufferedEngine,
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
        self._front = front
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
        self._wedged = 0  # replint: guarded-by(_lock)
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
                "wedged": self._wedged,
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

        Counters, overall lag percentiles, swap count, and the last
        ``64`` per-version staleness records (newest last) — the
        duck-typed payload :func:`repro.obs.exporter.foldin_families`
        renders as Prometheus families.
        """
        counters = self.counters()
        with self._lock:
            records = list(self._records)[-64:]
            last_error = self._last_error
        payload: dict[str, object] = dict(counters)
        payload["swaps"] = self._front.swap_count
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
        """Fold one batch through the front, with bounded retries."""
        events = [event for event, _arrived in batch]
        # Learned once: only the apply can fail transiently, and the
        # vectors do not depend on the front.  A raising folder leaves
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
                wedged = isinstance(exc, SwapWedgedError)
                with self._lock:
                    self._errors += 1
                    if wedged:
                        self._wedged += 1
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
        version = self._front.version
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
        """One apply attempt: fault site, then refresh-and-flip."""
        fault_point("foldin.apply", span=span)
        with span.child("foldin.apply"):
            base = self._front.n_events
            ids = np.arange(base, base + vectors.shape[0], dtype=np.int64)
            added = self._front.refresh(ids, new_event_vectors=vectors)
        span.tag(version=self._front.version, added=added)
