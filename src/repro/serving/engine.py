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
* **batched queries** — :meth:`ServingEngine.recommend_batch`
  vectorises query-vector construction and, over brute force, answers
  the whole batch with one pass over the per-pair arrays;
* **caching + telemetry** — one LRU answer cache keyed on
  ``(version, user, n)`` (it sits above any shard fan-out, so a hit
  skips fan-out and merge), one stale-answer cache, and per-query
  :class:`QueryStats` records in one :class:`MetricsRegistry`;
* **deadline-aware serving** — :meth:`ServingEngine.recommend_within`
  serves one request under a
  :class:`~repro.serving.lifecycle.RequestContext` budget, stepping down
  the degradation ladder (``full -> pruned -> ivf -> truncated ->
  stale_cache``) as the budget shrinks, and
  :meth:`ServingEngine.recommend_many` drives the engine from a thread
  pool behind a bounded admission queue with explicit load shedding.

**Thread-safety:** queries (``query``, ``recommend``,
``recommend_batch``, ``recommend_within``, ``recommend_many``) may run
concurrently from any number of threads — index reads are immutable
NumPy arrays, and the result/stale caches and telemetry are
lock-protected.  Maintenance (:meth:`warm`, :meth:`warm_ladder`,
:meth:`rebuild`, :meth:`refresh`) is serialised on an internal build
lock against *itself*, but is **not** linearisable with in-flight
queries — in a multi-threaded deployment, serve through the
double-buffered front (:class:`repro.serving.streaming.
DoubleBufferedEngine`), which folds into a shadow replica and
publishes it with an atomic reference flip, or quiesce traffic before
refreshing.  See DESIGN.md §8/§11 and docs/OPERATIONS.md.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.tracing import NULL_TRACER, Span, Tracer, stamp_outcome
from repro.online.bruteforce import BruteForceIndex
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.online.transform import PairSpace, query_vector
from repro.sanitizer import tsan_lock
from repro.serving.faults import InjectedFault
from repro.serving.index import CandidateIndex
from repro.serving.lifecycle import (
    SHED_DEADLINE_EXPIRED,
    SHED_QUEUE_FULL,
    SHED_RUNGS_EXHAUSTED,
    AdmissionController,
    LadderPolicy,
    RequestContext,
    RequestOutcome,
)
from repro.serving.telemetry import MetricsRegistry, QueryStats, _Timer
from repro.utils.profiling import Profiler

if TYPE_CHECKING:
    from repro.serving.sharded import ShardedIndex

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
    through to :attr:`index`; the engine keeps no copy of that state.
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        candidate_partners: np.ndarray | None = None,
        top_k_events: int | None = None,
        backend: str = "ta",
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
        self._version = 1
        self._cache: OrderedDict[tuple[int, int, int], RetrievalResult] = OrderedDict()  # replint: guarded-by(_cache_lock)
        # Stale-answer cache: (user, n) -> (version, decoded result); kept
        # across version bumps on purpose — it backs the stale_cache rung.
        # Entries hold decoded ids, never a PairSpace, so superseded
        # spaces are not pinned.
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
        """The embedding version currently served."""
        return self._version

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

    def cache_info(self) -> dict[str, int]:
        """Result-cache occupancy: ``{"size": ..., "max_size": ...}``."""
        with self._cache_lock:
            return {"size": len(self._cache), "max_size": self.cache_size}

    def close(self) -> None:
        """Release index resources (a sharded fan-out pool); idempotent."""
        self.index.close()

    def __enter__(self) -> "ServingEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------
    # offline: build / refresh
    def _build(self) -> None:
        with self.tracer.start(
            "engine.build", version=self._version, backend=self.backend_name
        ) as span:
            self.index.build(self._version, span)

    def warm(self) -> "ServingEngine":
        """Build the index now (otherwise it happens on first query).

        Idempotent and safe to call from multiple threads (double-checked
        under the build lock); only one thread performs the build.
        """
        if not self.index.is_built:
            with self._build_lock:
                if not self.index.is_built:
                    self._build()
        return self

    def warm_ladder(self) -> "ServingEngine":
        """Build every degradation rung now (primary + sibling indices).

        See :meth:`repro.serving.index.CandidateIndex.build_siblings` for
        which sibling backs which rung and what drops them.  Call this
        before opening deadline-scoped traffic.
        """
        self.warm()
        with self._build_lock:
            self.index.build_siblings(self._version)
        return self

    def rebuild(self) -> None:
        """Cold rebuild under a new version (reapplies pruning).

        Serialised on the build lock; not linearisable with in-flight
        queries (see the module docstring).  Drops the pruned and ivf
        siblings — re-warm with :meth:`warm_ladder`.
        """
        with self._build_lock:
            self._version += 1
            self._clear_result_cache()
            self._build()

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
        pairs (:meth:`repro.serving.index.CandidateIndex.extend`); when
        anything was added the served version is bumped and the answer
        cache invalidated (the stale-answer cache intentionally
        survives).  Serialised on the build lock; not linearisable with
        in-flight queries — the zero-downtime spelling is
        :meth:`repro.serving.streaming.DoubleBufferedEngine.refresh`.
        Returns the number of events actually added.
        """
        with self._build_lock:
            added = self.index.extend(
                new_event_ids, new_event_vectors, self._version + 1
            )
            if added:
                self._version += 1
                self._clear_result_cache()
            return added

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

    def _clear_result_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    def _cache_get(self, key: tuple[int, int, int]) -> RetrievalResult | None:
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
            return result

    def _remember(
        self,
        version: int,
        user: int,
        n: int,
        result: RetrievalResult,
        current: bool = True,
    ) -> None:
        """Cache an answer: always as the stale fallback, and — unless
        ``current`` is off (a degraded rung's answer) — in the
        version-keyed answer cache too."""
        with self._cache_lock:
            if current and self.cache_size:
                self._cache[(version, user, n)] = result
                self._cache.move_to_end((version, user, n))
                if len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            if self.stale_cache_size:
                self._stale[(user, n)] = (version, result)
                self._stale.move_to_end((user, n))
                if len(self._stale) > self.stale_cache_size:
                    self._stale.popitem(last=False)

    def _stale_get(self, user: int, n: int) -> tuple[int, RetrievalResult] | None:
        with self._cache_lock:
            entry = self._stale.get((user, n))
            if entry is not None:
                self._stale.move_to_end((user, n))
            return entry

    def _record(
        self,
        user: int,
        n: int,
        version: int,
        result: RetrievalResult,
        seconds_total: float,
        *,
        scanned: bool = True,
        exact: bool = True,
        rung: str = "full",
        stale: bool = False,
        batched: bool = False,
        seconds_query_vector: float = 0.0,
        seconds_retrieval: float = 0.0,
        ctx: RequestContext | None = None,
    ) -> QueryStats:
        """Build and record the one :class:`QueryStats` of an answer.

        ``scanned=False`` is a cache replay: the access counters are
        zero and ``cache_hit`` is set.  ``ctx`` fills the deadline
        fields for lifecycle-managed requests.
        """
        remaining = ctx.remaining() if ctx is not None else 0.0
        stats = QueryStats(
            user=user,
            n=n,
            backend=self.index.label,
            version=version,
            n_candidates=self.index.n_candidate_pairs,
            n_examined=result.n_examined if scanned else 0,
            n_sorted_accesses=result.n_sorted_accesses if scanned else 0,
            fraction_examined=result.fraction_examined if scanned else 0.0,
            seconds_total=seconds_total,
            seconds_query_vector=seconds_query_vector,
            seconds_retrieval=seconds_retrieval,
            cache_hit=not scanned,
            batched=batched,
            rung=rung,
            n_clusters_probed=result.n_clusters_probed if scanned else 0,
            deadline_budget_s=ctx.budget_s if ctx is not None else 0.0,
            deadline_remaining_s=remaining,
            deadline_met=ctx is None or remaining > 0.0,
            queue_wait_s=ctx.queue_wait_s if ctx is not None else 0.0,
            exact=exact,
            stale=stale,
        )
        self.metrics.record(stats)
        return stats

    # ------------------------------------------------------------------
    # online: exact queries
    def query(self, user: int, n: int) -> RetrievalResult:
        """Raw retrieval result with access statistics and decoded ids.

        ``pair_indices`` are global pair-space indices — over a sharded
        index bit-identical (ids and scores, ties included) to a single
        index over the same data.  Thread-safe; no deadline — the
        configured backend runs to completion (rung ``full`` in the
        recorded stats).
        """
        user = self._validate_user(user)
        n = int(n)
        self.warm()
        version = self._version
        with self.tracer.start(
            "engine.query", user=user, n=n, backend=self.index.label
        ) as root, _Timer() as total:
            cached = self._cache_get((version, user, n))
            if cached is not None:
                result = cached
                t_q = t_r = 0.0
            else:
                with _Timer() as tq:
                    q = query_vector(
                        np.asarray(
                            self.index.user_vectors[user], dtype=np.float64
                        )
                    )
                with root.child("retrieval") as rs, _Timer() as tr:
                    result = self.index.scan("full", q, n, user, None, rs)
                t_q, t_r = tq.seconds, tr.seconds
                with root.child("cache.write"):
                    self._remember(version, user, n, result)
            root.tag(cache_hit=cached is not None, version=version)
        self._record(
            user,
            n,
            version,
            result,
            total.seconds,
            scanned=cached is None,
            exact=result.exact,
            seconds_query_vector=t_q,
            seconds_retrieval=t_r,
        )
        return result

    def recommend(self, user: int, n: int = 10) -> list[Recommendation]:
        """Top-n event-partner recommendations for ``user`` (no deadline)."""
        return _decode(self.query(user, n))

    def recommend_batch(
        self, users: np.ndarray, n: int = 10
    ) -> list[list[Recommendation]]:
        """Top-n recommendations for many users in one engine pass.

        Query vectors for all cache misses are built with one vectorised
        concatenation, and brute force answers the whole batch with a
        single shared pass over the per-pair arrays.  Results are
        identical to calling :meth:`recommend` per user.  Thread-safe,
        but intended as a single caller's bulk path — for concurrent
        deadline-scoped traffic use :meth:`recommend_many`.
        """
        user_list = [
            self._validate_user(u)
            for u in np.atleast_1d(np.asarray(users, dtype=np.int64))
        ]
        n = int(n)
        self.warm()
        version = self._version
        results: dict[int, RetrievalResult] = {}
        misses: list[int] = []
        with self.tracer.start(
            "engine.query_batch", n_users=len(user_list), n=n,
            backend=self.index.label,
        ) as root, _Timer() as total:
            # replint: allow-loop(per-distinct-user cache lookup, O(batch))
            for u in dict.fromkeys(user_list):
                cached = self._cache_get((version, u, n))
                if cached is not None:
                    results[u] = cached
                else:
                    misses.append(u)
            hits = set(results)
            t_q = t_r = 0.0
            if misses:
                miss_arr = np.array(misses, dtype=np.int64)
                with _Timer() as tq:
                    uv = np.asarray(
                        self.index.user_vectors[miss_arr], dtype=np.float64
                    )
                    queries = np.concatenate(
                        [uv, uv, np.ones((uv.shape[0], 1))], axis=1
                    )
                with root.child(
                    "retrieval", n_misses=len(misses)
                ) as rs, _Timer() as tr:
                    batch = self.index.scan_batch(queries, n, miss_arr, rs)
                t_q, t_r = tq.seconds, tr.seconds
                with root.child("cache.write"):
                    # replint: allow-loop(cache insertion per miss, O(batch))
                    for u, result in zip(misses, batch, strict=True):
                        results[u] = result
                        self._remember(version, u, n, result)
            root.tag(n_cache_hits=len(user_list) - len(misses))
        # Amortise the batch wall-clock evenly across the recorded queries.
        per_query = total.seconds / max(len(user_list), 1)
        per_q = t_q / max(len(misses), 1)
        per_r = t_r / max(len(misses), 1)
        # replint: allow-loop(telemetry record per query, O(batch))
        for u in user_list:
            hit = u in hits
            self._record(
                u,
                n,
                version,
                results[u],
                per_query,
                scanned=not hit,
                exact=results[u].exact,
                batched=True,
                seconds_query_vector=0.0 if hit else per_q,
                seconds_retrieval=0.0 if hit else per_r,
            )
        return [_decode(results[u]) for u in user_list]

    # ------------------------------------------------------------------
    # online: deadline-aware queries (the request lifecycle)
    def _request_span(
        self, user: int, n: int, budget_s: float, **tags: object
    ) -> Span:
        """Open a request's root span (explicit cross-thread spelling)."""
        return self.tracer.request(
            "request",
            user=user,
            n=n,
            backend=self.index.label,
            budget_s=budget_s,
            **tags,
        )

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
        draining) must be given.  The engine selects the highest
        degradation rung predicted to fit the remaining budget, steps
        down on rung failure (e.g. injected faults) or overrun, and
        always returns an explicit :class:`RequestOutcome` — an answer
        with the serving rung recorded in its stats, or a shed with a
        reason.  Over a sharded index the chosen rung's scan fans out; a
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
            ctx = RequestContext.with_budget(budget_s)
        user = self._validate_user(user)
        n = int(n)
        self.warm()
        if ctx.span is not None:
            return self._serve_within(user, n, ctx, ctx.span)
        with self._request_span(user, n, ctx.budget_s) as root:
            ctx.span = root
            return self._serve_within(user, n, ctx, root)

    def _answer(
        self, span: Span, result: RetrievalResult, stats: QueryStats
    ) -> RequestOutcome:
        outcome = RequestOutcome(
            user=stats.user,
            n=stats.n,
            answered=True,
            recommendations=_decode(result),
            stats=stats,
        )
        stamp_outcome(span, outcome)
        return outcome

    def _serve_within(
        self, user: int, n: int, ctx: RequestContext, span: Span
    ) -> RequestOutcome:
        """The ladder walk behind :meth:`recommend_within`.

        ``span`` is the request's root span (possibly ``NULL_SPAN``);
        every exit path stamps its outcome onto it via
        :func:`~repro.obs.tracing.stamp_outcome` — the caller owns the
        span's lifetime.
        """
        version = self._version
        # A version-current cached result is a free exact answer.
        cached = self._cache_get((version, user, n))
        if cached is not None:
            stats = self._record(
                user,
                n,
                version,
                cached,
                ctx.elapsed(),
                scanned=False,
                exact=cached.exact,
                ctx=ctx,
            )
            return self._answer(span, cached, stats)

        available = self.index.rungs()
        first = self.ladder.select(ctx.remaining(), available=available)
        if first == "stale_cache":
            return self._serve_stale(user, n, ctx, span)
        q = query_vector(
            np.asarray(self.index.user_vectors[user], dtype=np.float64)
        )
        # replint: allow-loop(<= 4 index rungs per request, not candidates)
        for rung in available[available.index(first):]:
            try:
                with span.child(
                    "rung." + rung, rung=rung
                ) as rung_span, _Timer() as t:
                    result = self.index.scan(
                        rung, q, n, user, ctx.remaining(), rung_span
                    )
            except (InjectedFault, RuntimeError):
                continue  # rung failed: step down
            self.ladder.observe(rung, t.seconds)
            if result.pair_indices.size == 0 and not result.exact:
                rung_span.tag(discarded=True)
                continue  # budget ran out before anything was scored
            exact = result.exact and rung == "full"
            with span.child("cache.write"):
                self._remember(version, user, n, result, exact)
            stats = self._record(
                user,
                n,
                version,
                result,
                ctx.elapsed(),
                exact=exact,
                rung=rung,
                seconds_retrieval=t.seconds,
                ctx=ctx,
            )
            return self._answer(span, result, stats)
        return self._serve_stale(user, n, ctx, span)

    def _serve_stale(
        self, user: int, n: int, ctx: RequestContext, span: Span
    ) -> RequestOutcome:
        """Terminal rung: replay the last good answer, or shed.

        A miss with budget left means every rung failed; with none left
        the deadline did the shedding.
        """
        with span.child("rung.stale_cache", rung="stale_cache") as rs:
            entry = self._stale_get(user, n)
            rs.tag(hit=entry is not None)
            if entry is None:
                reason = (
                    SHED_RUNGS_EXHAUSTED
                    if ctx.remaining() > 0
                    else SHED_DEADLINE_EXPIRED
                )
                self.metrics.record_shed(reason)
                outcome = RequestOutcome(
                    user=user,
                    n=n,
                    answered=False,
                    shed_reason=reason,
                )
                stamp_outcome(span, outcome)
                return outcome
            version, result = entry
            rs.tag(stale_version=version)
            stats = self._record(
                user,
                n,
                version,
                result,
                ctx.elapsed(),
                scanned=False,
                exact=False,
                rung="stale_cache",
                stale=True,
                ctx=ctx,
            )
        return self._answer(span, result, stats)

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
        Thread-safe; the pool is private to this call (a sharded index's
        fan-out shares its own persistent pool).

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
        self.warm()
        controller = (
            AdmissionController(queue_depth, metrics=self.metrics)
            if queue_depth is not None
            else None
        )
        outcomes: list[RequestOutcome | None] = [None] * len(user_list)

        def serve(u: int, ctx: RequestContext, span: Span) -> RequestOutcome:
            try:
                span.annotate("queue.wait", ctx.mark_dequeued())
                return self.recommend_within(u, n, ctx=ctx)
            finally:
                span.finish()
                if controller is not None:
                    controller.release()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures: dict[Future[RequestOutcome], int] = {}
            # replint: allow-loop(admission/submission per request, O(batch))
            for i, u in enumerate(user_list):
                span = self._request_span(
                    u, n, budget_s, source="recommend_many"
                )
                if controller is not None and not controller.try_admit():
                    outcome = RequestOutcome(
                        user=u,
                        n=n,
                        answered=False,
                        shed_reason=SHED_QUEUE_FULL,
                    )
                    stamp_outcome(span, outcome)
                    span.finish()
                    outcomes[i] = outcome
                    continue
                ctx = RequestContext.with_budget(budget_s)
                ctx.span = span
                futures[pool.submit(serve, u, ctx, span)] = i
            # replint: allow-loop(future collection per request, O(batch))
            for future, i in futures.items():
                outcomes[i] = future.result()
        return [o for o in outcomes if o is not None]
