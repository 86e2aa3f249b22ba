"""The serving engine: the one request path for event-partner recommendation.

This is the production substrate for the paper's Section IV.  *What can
be scanned* lives in the index layer — a
:class:`~repro.serving.index.CandidateIndex` (the 2K+1 space
transformation, optional per-partner top-k pruning, the primary index
and its ladder siblings) or a
:class:`~repro.serving.sharded.ShardedIndex` composing N of them.  *How a
request is served* lives here, exactly once, written against that scan
surface:

* **lazy, versioned builds** — the index is materialised on first use
  and stamped with a monotonically increasing *embedding version*;
* **incremental refresh** — :meth:`ServingEngine.refresh` folds new
  events (e.g. from :class:`repro.core.fold_in.EventFoldIn`) into the
  candidate space by transforming only the new pairs;
* **caching + telemetry** — one LRU answer cache keyed on ``(user, n)``
  (it sits above any shard slices, so a hit scans none of them)
  whose entries replay only to a reader of the version they were
  scanned at: every write retires them, and the read after it runs the
  one bounded scan; one stale-answer cache; and per-query
  :class:`QueryStats` records in one :class:`MetricsRegistry`;
* **one walk** — every single-user request (``query`` / ``recommend`` /
  ``recommend_within``) is :meth:`ServingEngine._walk`: answer cache,
  then rungs, then the stale replay.  Without a deadline the rungs are
  ``("full",)``; under a :class:`~repro.serving.lifecycle.RequestContext`
  budget the :class:`~repro.serving.lifecycle.LadderPolicy` plans them
  down the degradation ladder (``full -> ivf -> truncated ->
  stale_cache``) and the walk reads time only through the context's
  clock.  :meth:`ServingEngine.recommend_many` drives it from a thread
  pool behind a bounded admission queue with explicit load shedding;
  it is the bulk path too (a ``recommend`` per user is the exact one).

**Thread-safety:** queries (``query``, ``recommend``,
``recommend_within``, ``recommend_many``) may run concurrently from any
number of threads, and concurrently with maintenance (:meth:`warm`,
:meth:`warm_ladder`, :meth:`rebuild`, :meth:`refresh`, serialised on an
internal build lock).  A request loads
the index's published snapshot once and reads its version, rungs and
scans from it; a write prepares the next snapshot and
publishes it with one reference store, so every read sees old or new,
never a mix, and writes are linearisable with reads.  The answer and
stale caches and telemetry are lock-protected.  See DESIGN.md §11 and
docs/OPERATIONS.md.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Span, Tracer, stamp_outcome
from repro.online.bruteforce import BruteForceIndex
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.online.transform import PairSpace, query_vector
from repro.sanitizer import tsan_lock
from repro.serving.index import CandidateIndex, IndexSnapshot
from repro.serving.lifecycle import (
    SHED_QUEUE_FULL,
    AdmissionController,
    LadderPolicy,
    RequestContext,
    RequestOutcome,
)
from repro.serving.telemetry import MetricsRegistry, QueryStats
from repro.utils.profiling import Profiler

if TYPE_CHECKING:
    from repro.serving.sharded import ShardedIndex, ShardedSnapshot

    Snapshot = IndexSnapshot | ShardedSnapshot

__all__ = ["Recommendation", "ServingEngine"]


@dataclass(slots=True)
class Recommendation:
    """One recommended event-partner pair."""

    event: int
    partner: int
    score: float


def _decode(result: RetrievalResult) -> list[Recommendation]:
    """The ``(event, partner, score)`` triples a scan already decoded."""
    assert result.event_ids is not None and result.partner_ids is not None
    return [
        Recommendation(event=e, partner=p, score=s)
        for e, p, s in zip(
            result.event_ids.tolist(),
            result.partner_ids.tolist(),
            result.scores.tolist(),
            strict=True,
        )
    ]


class ServingEngine:
    """Versioned, cached, batch-capable joint recommendation service.

    Parameters
    ----------
    user_vectors, event_vectors, candidate_events, candidate_partners,
    top_k_events, backend, ivf_clusters, ivf_nprobe, profiler:
        What to index — see :class:`~repro.serving.index.CandidateIndex`,
        which the engine builds from them and serves through.
    cache_size:
        Maximum entries in the LRU answer cache (0 disables caching).
    metrics:
        A shared :class:`MetricsRegistry`; a private one is created when
        omitted.
    stale_cache_size:
        Maximum entries in the stale-answer cache backing the
        ``stale_cache`` degradation rung (0 disables it, turning
        deadline-expired requests into sheds).
    ladder:
        A shared :class:`~repro.serving.lifecycle.LadderPolicy`; a
        private one is created when omitted.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer` producing per-request
        span trees (admission → queue wait → rung attempts → cache
        write); defaults to the shared disabled
        :data:`~repro.obs.tracing.NULL_TRACER`, which makes every span
        operation a structural no-op.

    Index introspection — ``space`` / ``backend`` / ``n_candidate_pairs``
    (which build lazily), and ``user_vectors``, ``candidate_events``,
    ``n_users``, ``n_events``, ``is_built``, ``build_stats``,
    ``memory_bytes()``, ``index_age_s()``, ``build_profile()`` … — reads
    through to :attr:`index`; the engine keeps no copy of that state, and
    its :attr:`version` is the published snapshot's.
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        candidate_partners: np.ndarray | None = None,
        top_k_events: int | None = None,
        backend: str = "bruteforce",
        ivf_clusters: int | None = None,
        ivf_nprobe: int | None = None,
        cache_size: int = 256,
        metrics: MetricsRegistry | None = None,
        stale_cache_size: int = 1024,
        ladder: LadderPolicy | None = None,
        profiler: Profiler | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if stale_cache_size < 0:
            raise ValueError(
                f"stale_cache_size must be >= 0, got {stale_cache_size}"
            )
        self.index = self._make_index(
            user_vectors,
            event_vectors,
            candidate_events,
            candidate_partners=candidate_partners,
            top_k_events=top_k_events,
            backend=backend,
            ivf_clusters=ivf_clusters,
            ivf_nprobe=ivf_nprobe,
            profiler=profiler,
        )
        self.backend_name = backend
        self.cache_size = cache_size
        self.stale_cache_size = stale_cache_size
        # `is not None` matters: an empty registry is falsy via __len__.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ladder = ladder if ladder is not None else LadderPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Answer cache: (user, n) -> (version of the snapshot the walk
        # read, the exact full-rung result); served only at that version.
        self._cache: OrderedDict[tuple[int, int], tuple[int, RetrievalResult]] = OrderedDict()  # replint: guarded-by(_cache_lock)
        # Stale-answer cache: same shape; kept across rebuilds on purpose —
        # it backs the stale_cache rung.  Entries hold decoded ids, never
        # a PairSpace, so superseded spaces are not pinned.
        self._stale: OrderedDict[tuple[int, int], tuple[int, RetrievalResult]] = OrderedDict()  # replint: guarded-by(_cache_lock)
        self._build_lock = tsan_lock(threading.RLock(), "_build_lock")
        self._cache_lock = tsan_lock(threading.Lock(), "_cache_lock")

    def _make_index(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        **options: Any,
    ) -> "CandidateIndex | ShardedIndex":
        """What this engine serves through — the one composition point."""
        return CandidateIndex(
            user_vectors, event_vectors, candidate_events, **options
        )

    def __getattr__(self, name: str) -> Any:
        """Index introspection reads through to :attr:`index`."""
        if name == "index":  # not attached yet: no recursion
            raise AttributeError(name)
        return getattr(self.index, name)

    # ------------------------------------------------------------------
    # introspection
    @property
    def version(self) -> int:
        """The embedding version currently served (the published snapshot's)."""
        return self.index.snapshot().version

    @property
    def space(self) -> PairSpace:
        """A single index's pair space (building it if necessary)."""
        return self.warm().index.space  # type: ignore[union-attr]

    @property
    def backend(self) -> BruteForceIndex | ThresholdAlgorithmIndex:
        """A single index's primary index object (building it if necessary)."""
        return self.warm().index.backend  # type: ignore[union-attr]

    @property
    def n_candidate_pairs(self) -> int:
        """Candidate pairs in the served index (builds it if needed)."""
        return self.warm().index.n_candidate_pairs

    def close(self) -> None:
        """Close the index (a closed sharded index refuses scans); idempotent."""
        self.index.close()

    def __enter__(self) -> "ServingEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------
    # offline: build / refresh
    def _build(self, version: int) -> None:
        with self.tracer.start(
            "engine.build", version=version, backend=self.backend_name
        ) as span:
            self.index.publish(self.index.built(version, span))

    def warm(self) -> "ServingEngine":
        """Build the index now (otherwise it happens on first query).

        Idempotent and safe to call from multiple threads (double-checked
        under the build lock); only one thread performs the build.
        """
        if not self.index.is_built:
            with self._build_lock:
                if not self.index.is_built:
                    self._build(self.version)
        return self

    def warm_ladder(self) -> "ServingEngine":
        """Build every degradation rung now (primary + ``ivf`` sibling).

        See :meth:`repro.serving.index.CandidateIndex.with_siblings` for
        when the sibling is built and what drops it.  Call this before
        opening deadline-scoped traffic.
        """
        self.warm()
        with self._build_lock:
            self.index.publish(self.index.with_siblings())
        return self

    def rebuild(self) -> None:
        """Cold rebuild under a new version (reapplies pruning).

        Serialised on the build lock and published in one store, so a
        read sees the old index or the new one.  Drops the ivf sibling —
        re-warm with :meth:`warm_ladder` — and, like every write, retires
        the cached answers: pairs move, so none stamped with an older
        version is served again, including one a walk that began on the
        old index stores afterwards.
        """
        with self._build_lock:
            self._build(self.version + 1)

    def refresh(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None = None,
    ) -> int:
        """Fold new events into the served candidate space incrementally.

        ``new_event_ids`` are global event ids; pass ``new_event_vectors``
        (``(len(ids), K)``, e.g. from
        :meth:`repro.core.fold_in.EventFoldIn.fold_in_many`) when the ids
        extend the embedding matrix.  The index absorbs only the new
        pairs (:meth:`repro.serving.index.CandidateIndex.extended`) and
        publishes them, stamped with the next version, in one store —
        or, when the extend raised, publishes nothing.  A refresh that
        adds events retires every cached answer (:meth:`_cache_get`).
        Serialised on the build lock; linearisable with in-flight
        queries.  Returns the number of events actually added.
        """
        with self._build_lock:
            before = self.index.snapshot()
            after = self.index.extended(
                new_event_ids, new_event_vectors, before.version + 1
            )
            self.index.publish(after)
            return int(after.candidate_events.size - before.candidate_events.size)

    # ------------------------------------------------------------------
    # caches and telemetry
    def _validate_user(self, user: int) -> int:
        user = int(user)
        n_users = self.index.n_users
        if not 0 <= user < n_users:
            raise ValueError(
                f"user {user} is out of range for user_vectors with "
                f"{n_users} rows"
            )
        return user

    def _cache_get(
        self, user: int, n: int, snap: "Snapshot"
    ) -> RetrievalResult | None:
        """The cached exact answer a reader of ``snap`` may use: one
        stamped with ``snap.version`` itself.

        Every write that changes what is served (an append, a rebuild)
        publishes a new version, so an entry of any other version is a
        miss — older or newer than ``snap``.
        """
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            entry = self._cache.get((user, n))
            if entry is None or entry[0] != snap.version:
                return None
            self._cache.move_to_end((user, n))
            return entry[1]

    def _finish(
        self,
        user: int,
        n: int,
        snap: "Snapshot",
        version: int,
        result: RetrievalResult,
        rung: str,
        seconds_total: float,
        *,
        ctx: RequestContext | None = None,
        span: Span = NULL_SPAN,
        scanned: bool = True,
        seconds_retrieval: float = 0.0,
    ) -> QueryStats:
        """Remember an answer and record its one :class:`QueryStats`.

        A scanned answer always becomes the ``(user, n)`` stale fallback
        and — unless a degraded rung produced it — the answer-cache entry
        too, stamped ``version``, unless the entry there is newer: a late
        store from an older snapshot never replaces it.  ``snap`` is the
        snapshot the request read.  ``scanned=False`` is a replay (answer
        cache or ``stale_cache``): nothing is written, the access counters
        are zero and ``cache_hit`` is set.  ``ctx`` fills the deadline fields
        of a lifecycle-managed request, judged at ``seconds_total``.
        """
        exact = result.exact and rung == "full"
        if scanned:
            entry = (version, result)
            with span.child("cache.write"), self._cache_lock:
                held = self._cache.get((user, n))
                if exact and self.cache_size and (held is None or held[0] <= version):
                    self._cache[(user, n)] = entry
                    self._cache.move_to_end((user, n))
                    if len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                if self.stale_cache_size:
                    self._stale[(user, n)] = entry
                    self._stale.move_to_end((user, n))
                    if len(self._stale) > self.stale_cache_size:
                        self._stale.popitem(last=False)
        remaining = ctx.budget_s - seconds_total if ctx is not None else 0.0
        stats = QueryStats(
            user=user,
            n=n,
            backend=self.index.label,
            version=version,
            n_candidates=snap.n_candidate_pairs,
            n_examined=result.n_examined if scanned else 0,
            n_sorted_accesses=result.n_sorted_accesses if scanned else 0,
            fraction_examined=result.fraction_examined if scanned else 0.0,
            seconds_total=seconds_total,
            seconds_retrieval=seconds_retrieval,
            cache_hit=not scanned,
            rung=rung,
            n_clusters_probed=result.n_clusters_probed if scanned else 0,
            deadline_budget_s=ctx.budget_s if ctx is not None else 0.0,
            deadline_remaining_s=remaining,
            deadline_met=ctx is None or remaining > 0.0,
            queue_wait_s=ctx.queue_wait_s if ctx is not None else 0.0,
            exact=exact,
            stale=rung == "stale_cache",
        )
        self.metrics.record(stats)
        return stats

    # ------------------------------------------------------------------
    # online: the one request walk
    def _request_span(self, user: int, n: int, **tags: object) -> Span:
        """Open a request's root span (explicit cross-thread spelling)."""
        return self.tracer.request(
            "request", user=user, n=n, backend=self.index.label, **tags
        )

    def _walk(
        self,
        user: int,
        n: int,
        ctx: RequestContext | None,
        span: Span,
        snap: "Snapshot",
    ) -> tuple[RetrievalResult, QueryStats] | None:
        """Serve one request from ``snap``: answer cache, the planned rungs,
        stale replay.

        Every single-user entry point is this walk, and it reads the
        index only through ``snap`` — the version a cached answer must
        carry, the rungs and every scan.  With a ``ctx`` the
        ladder policy plans the rungs from the remaining budget, a rung
        that fails or overruns steps down, the terminal ``stale_cache``
        rung replays the last good answer, and ``None`` means nothing
        answered (the caller sheds).  Without one the walk is the
        ``full`` rung run to completion: no budget, no ladder
        observation, and a failing scan raises to the caller.

        A cached answer of ``snap``'s version is a hit, replayed without
        a scan; any other request runs the rungs.

        All time is read from ``ctx.clock`` (the wall clock only when
        there is no context); rung attempts and the cache write become
        children of ``span``, the request's root (possibly ``NULL_SPAN``).
        """
        version = snap.version
        clock = time.perf_counter if ctx is None else ctx.clock
        entered = clock()
        start = entered if ctx is None else ctx.start
        cached = self._cache_get(user, n, snap)
        if cached is not None:
            return cached, self._finish(
                user, n, snap, version, cached, "full", clock() - start,
                ctx=ctx, scanned=False,
            )
        rungs: tuple[str, ...] = ("full",)
        if ctx is not None:
            rungs = self.ladder.plan(
                ctx.budget_s - (entered - start), snap.rungs()
            )
        q = query_vector(
            np.asarray(self.index.user_vectors[user], dtype=np.float64)
        )
        # replint: allow-loop(<= 4 index rungs per request, not candidates)
        for rung in rungs:
            began = clock()
            remaining = None if ctx is None else ctx.budget_s - (began - start)
            try:
                with span.child("rung." + rung, rung=rung) as rung_span:
                    result = self.index.scan(
                        snap, rung, q, n, user, remaining, rung_span
                    )
            except RuntimeError:  # an InjectedFault is one
                if ctx is None:
                    raise
                continue  # rung failed: step down
            ended = clock()
            if ctx is not None:
                self.ladder.observe(rung, ended - began)
            if result.pair_indices.size == 0 and not result.exact:
                rung_span.tag(discarded=True)
                continue  # budget ran out before anything was scored
            return result, self._finish(
                user, n, snap, version, result, rung, ended - start,
                ctx=ctx, span=span, seconds_retrieval=ended - began,
            )
        with span.child("rung.stale_cache", rung="stale_cache") as rung_span:
            with self._cache_lock:
                entry = self._stale.get((user, n))
                if entry is not None:
                    self._stale.move_to_end((user, n))
            rung_span.tag(hit=entry is not None)
            if entry is None:
                return None
            version, result = entry
            rung_span.tag(stale_version=version)
            return result, self._finish(
                user, n, snap, version, result, "stale_cache", clock() - start,
                ctx=ctx, scanned=False,
            )

    def query(self, user: int, n: int) -> RetrievalResult:
        """Raw retrieval result with access statistics and decoded ids.

        ``pair_indices`` are global pair-space indices — over a sharded
        index bit-identical (ids and scores, ties included) to a single
        index over the same data.  Thread-safe; no deadline — the walk
        runs the configured backend to completion (rung ``full`` in the
        recorded stats) and a failing scan raises.
        """
        user = self._validate_user(user)
        n = int(n)
        snap = self.warm().index.snapshot()
        with self._request_span(user, n) as root:
            answer = self._walk(user, n, None, root, snap)
            assert answer is not None  # no deadline: answered or raised
            result, stats = answer
            root.tag(
                rung=stats.rung, cache_hit=stats.cache_hit, version=stats.version
            )
        return result

    def recommend(self, user: int, n: int = 10) -> list[Recommendation]:
        """Top-n event-partner recommendations for ``user`` (no deadline)."""
        return _decode(self.query(user, n))

    def recommend_within(
        self,
        user: int,
        n: int = 10,
        *,
        budget_s: float | None = None,
        ctx: RequestContext | None = None,
    ) -> RequestOutcome:
        """Serve one request under a deadline budget via the ladder.

        Exactly one of ``budget_s`` (a fresh budget starting now) or
        ``ctx`` (an admission-time context whose budget is already
        draining) must be given.  The walk starts at the highest
        degradation rung predicted to fit the remaining budget, steps
        down on rung failure (e.g. injected faults) or overrun, and
        always returns an explicit :class:`RequestOutcome` — an answer
        with the serving rung recorded in its stats, or a shed with a
        reason.  Over a sharded index the chosen rung scans every slice; a
        failed or over-budget leg fails the rung for the request and the
        walk steps down.  Thread-safe.

        Tracing: a root span already parked on ``ctx.span`` (by
        :meth:`recommend_many`) is adopted — rung attempts become its
        children and the submitter owns its lifetime.  Otherwise a fresh
        root is opened and closed here.
        """
        if (budget_s is None) == (ctx is None):
            raise ValueError("pass exactly one of budget_s or ctx")
        if ctx is None:
            assert budget_s is not None
            ctx = RequestContext(budget_s)
        user = self._validate_user(user)
        n = int(n)
        snap = self.warm().index.snapshot()
        if ctx.span is not None:
            return self._outcome(user, n, ctx, ctx.span, snap)
        with self._request_span(user, n, budget_s=ctx.budget_s) as root:
            ctx.span = root
            return self._outcome(user, n, ctx, root, snap)

    def _outcome(
        self,
        user: int,
        n: int,
        ctx: RequestContext,
        span: Span,
        snap: "Snapshot",
    ) -> RequestOutcome:
        """One deadline-scoped walk of ``snap`` as its explicit outcome,
        stamped on ``span`` (whose lifetime the caller owns)."""
        answer = self._walk(user, n, ctx, span, snap)
        if answer is None:
            reason = self.ladder.shed_reason(ctx.remaining())
            self.metrics.record_shed(reason)
            outcome = RequestOutcome(
                user=user, n=n, answered=False, shed_reason=reason
            )
        else:
            outcome = RequestOutcome(
                user=user,
                n=n,
                answered=True,
                recommendations=_decode(answer[0]),
                stats=answer[1],
            )
        stamp_outcome(span, outcome)
        return outcome

    # ------------------------------------------------------------------
    # online: concurrent deadline-scoped serving
    def recommend_many(
        self,
        users: np.ndarray,
        n: int = 10,
        *,
        budget_s: float = 0.05,
        workers: int = 4,
        queue_depth: int | None = None,
    ) -> list[RequestOutcome]:
        """Serve many deadline-scoped requests from a thread pool.

        Each request gets its own :class:`RequestContext` whose budget
        starts at *submission* — time spent waiting for a worker drains
        it, so an overloaded pool degrades (and ultimately sheds)
        instead of silently answering late.  ``queue_depth`` bounds
        admitted-but-unfinished requests; beyond it, requests are shed
        immediately with reason ``queue_full`` (``None`` = unbounded, no
        admission shedding).  Returns one :class:`RequestOutcome` per
        input user, in input order — zero silent drops, by construction.
        The whole batch is served from the snapshot published when the
        call starts (a refresh during it is visible to the *next* call).
        Thread-safe; the pool is private to this call (a sharded index
        scans its legs on the worker that serves the request).

        Tracing: each request's root span is opened at *submission*
        (via :meth:`Tracer.request`, the explicit cross-thread spelling)
        and parked on its context; the worker that dequeues it annotates
        the queue wait and finishes the root — explicit propagation, no
        thread-local state.  Admission sheds get a root too, so every
        submitted request appears in the flight recorder's offer stream.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        user_list = [
            self._validate_user(u)
            for u in np.atleast_1d(np.asarray(users, dtype=np.int64))
        ]
        n = int(n)
        budget_s = float(budget_s)
        snap = self.warm().index.snapshot()
        controller = (
            AdmissionController(queue_depth, metrics=self.metrics)
            if queue_depth is not None
            else None
        )
        outcomes: list[RequestOutcome | None] = [None] * len(user_list)

        def serve(u: int, ctx: RequestContext, span: Span) -> RequestOutcome:
            try:
                span.annotate("queue.wait", ctx.mark_dequeued())
                return self._outcome(u, n, ctx, span, snap)
            finally:
                span.finish()
                if controller is not None:
                    controller.release()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures: dict[Future[RequestOutcome], int] = {}
            # replint: allow-loop(admission/submission per request, O(batch))
            for i, u in enumerate(user_list):
                span = self._request_span(
                    u, n, budget_s=budget_s, source="recommend_many"
                )
                if controller is not None and not controller.try_admit():
                    outcomes[i] = outcome = RequestOutcome(
                        user=u, n=n, answered=False, shed_reason=SHED_QUEUE_FULL
                    )
                    stamp_outcome(span, outcome)
                    span.finish()
                    continue
                ctx = RequestContext(budget_s)
                ctx.span = span
                futures[pool.submit(serve, u, ctx, span)] = i
            # replint: allow-loop(future collection per request, O(batch))
            for future, i in futures.items():
                outcomes[i] = future.result()
        return [o for o in outcomes if o is not None]
