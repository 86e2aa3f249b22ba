"""Sharding as an index composition: N partner slices, one exact merge.

One :class:`~repro.serving.index.CandidateIndex` owns one pair index,
which caps the servable candidate set at what a single index build can
hold — the ceiling ROADMAP item 1 (millions of users) runs into.
:class:`ShardedIndex` partitions the **partner axis** into N contiguous
slices, gives each its own :class:`CandidateIndex` (all candidate
events, one slice of candidate partners), fans every scan out to all
slices, and merges the per-slice top-n lists back into the global top-n
with a threshold-stop merge that is *provably exact*, ties included
(:func:`repro.serving.index.merge_sharded_topn` — a pure function of
sorted lists, which the engine's answer-cache top-up merges with too).  It
offers the same scan surface as a single index, so the one
:class:`~repro.serving.engine.ServingEngine` serves through it
unchanged: :class:`ShardedServingEngine` is that engine constructed over
a :class:`ShardedIndex`, nothing more.

Why the merge is exact
----------------------

Every index orders equal scores by ascending pair index (both the TA
heap and the brute-force ``lexsort`` break ties this way), so the global
total order is "descending score, then ascending global pair index".
Slices are **contiguous** partner-rank ranges, and every pair-space
layout the index builds — event-major unpruned
(``idx = event_rank * P + partner_rank``), partner-major pruned
(``idx = partner_rank * k + preference_rank``), and the event-major
blocks :meth:`CandidateIndex.extended` appends — is monotone in
``(segment, …, partner_rank)``: restricting the global index order to
one slice's partners gives exactly that slice's local index order.  Two
consequences:

1. each slice's top-n under its local order contains every member of
   the global top-n that lives in that slice (there are at most n), and
2. the local -> global index map (:meth:`ShardedIndex._global_keys`)
   is order-preserving within a slice,

so a k-way merge of the per-slice sorted lists keyed on
``(-score, global_index)`` replays the single-index result bit-for-bit.
The merge maintains Fagin's threshold invariant: the best unconsumed
head across all lists bounds every deeper unconsumed item, so after n
pops nothing left can displace a popped pair — the merge stops having
touched at most ``n + N`` entries.  ``tests/test_sharded.py``
property-tests this against single-index engines across random shard
counts and tie-heavy score distributions.

Deadlines and degradation
-------------------------

There is **one ladder per request**, the engine's: it picks a rung, and
that rung's scan fans out here under one ``shard`` child span per leg,
every leg seeing the same remaining budget.  A leg that fails (an
injected fault, a cold sibling) or runs out of budget before scoring
anything fails the rung for the whole request, and the engine's walk
steps down.  The merged result is ``exact`` only if every leg was.

**Thread-safety:** mirrors :class:`CandidateIndex` — a
:class:`ShardedSnapshot` holds one published snapshot per slice plus the
local -> global key constants; ``built`` / ``with_siblings`` /
``extended`` prepare every slice's next snapshot and :meth:`publish`
makes all of them current with one store, so a scan reads every leg at
one version and a slice that fails leaves every slice as it was.
Fan-out uses a persistent internal thread pool; :meth:`close` the index
(the engine's ``close()`` / context manager does) when done.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, TypeVar

import numpy as np

from repro.obs.tracing import NULL_SPAN, Span, Tracer
from repro.online.ta import RetrievalResult
from repro.sanitizer import tsan_lock
from repro.serving.engine import ServingEngine
from repro.serving.index import (
    CandidateIndex,
    IndexSnapshot,
    PublishedIndex,
    TopList,
    _pruned_k,
    merge_sharded_topn,
)
from repro.serving.lifecycle import LadderPolicy
from repro.serving.telemetry import MetricsRegistry
from repro.utils.profiling import Profiler, merge_profiles

__all__ = ["ShardedIndex", "ShardedServingEngine", "ShardedSnapshot"]

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True, eq=False)
class ShardedSnapshot:
    """One published snapshot per slice, in partner-rank order.

    ``built_events`` is the candidate-event count of the initial build
    segment — with ``top_k_events``, the constants of the local -> global
    index map — ``None`` before the first build.  Every slice carries the
    same candidate ids, event vectors, version and lineage.
    """

    legs: tuple[IndexSnapshot, ...]
    built_events: int | None = None

    def __getattr__(self, name: str) -> Any:
        """``version``, ``lineage``, ``candidate_events``, ``event_vectors``,
        ``primary``, ``built_at`` and ``rungs()`` are every slice's (one
        write builds or extends them all), so the first's."""
        if name == "legs":  # not set yet (copying): no recursion
            raise AttributeError(name)
        return getattr(self.legs[0], name)

    @property
    def n_candidate_pairs(self) -> int:
        """Total candidate pairs across all slices."""
        return sum(leg.n_candidate_pairs for leg in self.legs)


class ShardedIndex(PublishedIndex):
    """N contiguous partner slices behind the one-index scan surface.

    Candidate partners are split into ``n_shards`` contiguous
    rank-slices; each slice is a :class:`CandidateIndex` over (its
    partners × all candidate events), and the fan-out/merge here
    reconstructs single-index results exactly (see the module docstring
    for the proof sketch).  Parameters are :class:`CandidateIndex`'s
    plus ``n_shards``; the ladder knobs apply per slice.

    Pass ``np.memmap`` matrices (from a frozen
    :class:`~repro.core.store.MemmapStore`) and every slice serves
    zero-copy from the same on-disk embedding copy — no process
    materialises the full matrix; each slice's build touches only its
    own partners.

    ``profiler`` only switches profiling on: builds run in parallel and
    a profiler is single-threaded, so every slice records into a private
    one and :meth:`build_profile` sums them.
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        n_shards: int,
        candidate_partners: np.ndarray | None = None,
        top_k_events: int | None = None,
        backend: str = "bruteforce",
        ivf_clusters: int | None = None,
        ivf_nprobe: int | None = None,
        profiler: Profiler | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if candidate_partners is None:
            candidate_partners = np.arange(
                int(np.shape(user_vectors)[0]), dtype=np.int64
            )
        candidate_partners = np.asarray(candidate_partners, dtype=np.int64)
        if n_shards > candidate_partners.size:
            raise ValueError(
                f"n_shards={n_shards} exceeds the {candidate_partners.size} "
                "candidate partners (a shard may not be empty)"
            )
        self.n_shards = int(n_shards)
        self.top_k_events = top_k_events
        self.ivf_clusters = ivf_clusters
        self.ivf_nprobe = ivf_nprobe
        self.candidate_partners = candidate_partners
        self.label = f"sharded[{self.n_shards}]:{backend}"
        profiled = profiler is not None and profiler.enabled
        slices = np.array_split(candidate_partners, n_shards)
        self._sizes = [int(s.size) for s in slices]
        self._offsets = [
            int(o) for o in np.concatenate([[0], np.cumsum(self._sizes)[:-1]])
        ]
        #: The per-slice indices, in partner-rank order.
        self.shards = tuple(
            CandidateIndex(
                user_vectors,
                event_vectors,
                candidate_events,
                candidate_partners=part,
                top_k_events=top_k_events,
                backend=backend,
                ivf_clusters=ivf_clusters,
                ivf_nprobe=ivf_nprobe,
                profiler=Profiler(enabled=True) if profiled else None,
            )
            for part in slices
        )
        self.user_vectors = self.shards[0].user_vectors
        # The publication point: written only under _build_lock, read
        # lock-free once per request through snapshot().
        self._snap = ShardedSnapshot(  # replint: guarded-by(_build_lock)
            tuple(sl.snapshot() for sl in self.shards)
        )
        self._build_lock = tsan_lock(threading.RLock(), "_build_lock")
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_shards, thread_name_prefix="shard-fanout"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # introspection (the rest reads the snapshot: PublishedIndex)
    def memory_bytes(self) -> int:
        """Summed resident index bytes across slices."""
        return sum(sl.memory_bytes() for sl in self.shards)

    def build_profile(self) -> dict[str, object]:
        """Per-phase build breakdown, summed over the slices."""
        return merge_profiles(sl.build_profile() for sl in self.shards)

    def close(self) -> None:
        """Release the fan-out thread pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # offline: prepare every slice, then publish
    def _fan_out(self, fn: Callable[[int], _T]) -> list[_T]:
        """``fn(slice_index)`` for every slice via the pool, in order.

        With one slice the call is inlined (no pool hop).  Exceptions
        propagate to the caller.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.n_shards == 1:
            return [fn(0)]
        return list(self._pool.map(fn, range(self.n_shards)))

    def publish(self, snap: ShardedSnapshot) -> None:
        """Make ``snap`` what every later read loads: one store for scans.

        Each slice is handed its own part first, for stand-alone
        introspection (``shards[i].backend``); scans read only ``_snap``.
        """
        with self._build_lock:
            # replint: allow-loop(one reference store per shard)
            for sl, leg in zip(self.shards, snap.legs, strict=True):
                sl.publish(leg)
            self._snap = snap

    def built(self, version: int, span: Span = NULL_SPAN) -> ShardedSnapshot:
        """Every slice cold-built through the pool, with its key map."""
        legs = self._fan_out(lambda i: self.shards[i].built(version, span))
        return ShardedSnapshot(tuple(legs), int(legs[0].candidate_events.size))

    def with_siblings(self) -> ShardedSnapshot:
        """Every slice with its cold degradation-rung siblings built."""
        legs = self._fan_out(lambda i: self.shards[i].with_siblings())
        return ShardedSnapshot(tuple(legs), self.snapshot().built_events)

    def restamp(self, version: int) -> None:
        """Stamp a cold index with the version its first build carries."""
        legs = self.snapshot().legs
        self.publish(
            ShardedSnapshot(
                tuple(replace(leg, version=version, lineage=version) for leg in legs)
            )
        )

    def extended(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None,
        version: int,
    ) -> ShardedSnapshot:
        """New events folded into every slice (same ids, same order).

        The appended event-major blocks stay aligned across slices, so
        the exact merge keeps working (the appended-segment key
        formula).  Nothing is published: a slice that raises leaves all
        of them, and the engine, as they were.
        """
        legs = [
            sl.extended(new_event_ids, new_event_vectors, version)
            for sl in self.shards
        ]
        return ShardedSnapshot(tuple(legs), self.snapshot().built_events)

    # ------------------------------------------------------------------
    # the local -> global index map
    def _global_keys(
        self, snap: ShardedSnapshot, shard: int, local_idx: np.ndarray, rung: str
    ) -> np.ndarray:
        """Map a slice's local pair indices to global pair indices.

        Piecewise by segment (see the module docstring): the initial
        build segment is event-major (unpruned) or partner-major
        (pruned); every extend appends event-major blocks.  The
        ``pruned`` rung's sibling is partner-major at the default level
        and never has appended blocks (an extend drops it, so the level
        it was built with is the default over ``snap``'s candidates).
        The map is strictly increasing in ``local_idx``, which is what
        makes the per-slice sort order the restriction of the global one.
        """
        e0 = snap.built_events
        assert e0 is not None
        if rung == "pruned":
            k: int | None = _pruned_k(snap.candidate_events.size)
        else:
            k = self.top_k_events
        local = np.asarray(local_idx, dtype=np.int64)
        off = self._offsets[shard]
        p_s = self._sizes[shard]
        p_all = int(self.candidate_partners.size)
        if k is None:
            base_s = e0 * p_s
            base_g = e0 * p_all
            ev, pa = np.divmod(local, p_s)
            key_initial = ev * p_all + off + pa
        else:
            base_s = p_s * k
            base_g = p_all * k
            pa, j = np.divmod(local, k)
            key_initial = (off + pa) * k + j
        fresh, pa2 = np.divmod(local - base_s, p_s)
        key_appended = base_g + fresh * p_all + off + pa2
        return np.where(local < base_s, key_initial, key_appended).astype(
            np.int64
        )

    def _merge(
        self,
        snap: ShardedSnapshot,
        rung: str,
        legs: list[RetrievalResult],
        n: int,
    ) -> RetrievalResult:
        """Exact-merge one leg result per slice into the global top-n."""
        lists = []
        # replint: allow-loop(one list per shard, not per candidate)
        for s, leg in enumerate(legs):
            assert leg.event_ids is not None and leg.partner_ids is not None
            lists.append(
                TopList(
                    scores=leg.scores,
                    keys=self._global_keys(snap, s, leg.pair_indices, rung),
                    event_ids=leg.event_ids,
                    partner_ids=leg.partner_ids,
                )
            )
        scores, keys, events, partners = merge_sharded_topn(lists, n)
        n_exam = sum(leg.n_examined for leg in legs)
        return RetrievalResult(
            pair_indices=keys,
            scores=scores,
            n_examined=n_exam,
            n_sorted_accesses=sum(leg.n_sorted_accesses for leg in legs),
            fraction_examined=n_exam / max(snap.n_candidate_pairs, 1),
            exact=all(leg.exact for leg in legs),
            n_clusters_probed=sum(leg.n_clusters_probed for leg in legs),
            event_ids=events,
            partner_ids=partners,
            n_events=legs[0].n_events,
        )

    # ------------------------------------------------------------------
    # online: scans of one snapshot
    def scan(
        self,
        snap: ShardedSnapshot,
        rung: str,
        q: np.ndarray,
        n: int,
        exclude: int,
        remaining_s: float | None = None,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        """Fan ``rung``'s scan of ``snap`` out to every slice, then merge exactly.

        Same contract as :meth:`CandidateIndex.scan`; ``pair_indices``
        are *global* pair indices.  Each leg runs under a ``shard`` child
        of ``span`` (so a trace shows which slice consumed the rung's
        time), the merge under a ``merge`` child.  A leg's exception
        propagates; a leg whose budget ran out before it scored anything
        makes the whole result empty and inexact — either way the rung
        fails for the request.  Thread-safe.
        """

        def leg(i: int) -> RetrievalResult:
            with span.child("shard", shard=i) as leg_span:
                return self.shards[i].scan(
                    snap.legs[i], rung, q, n, exclude, remaining_s, leg_span
                )

        legs = self._fan_out(leg)
        if any(r.pair_indices.size == 0 and not r.exact for r in legs):
            return RetrievalResult(
                pair_indices=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
                n_examined=sum(r.n_examined for r in legs),
                n_sorted_accesses=sum(r.n_sorted_accesses for r in legs),
                fraction_examined=0.0,
                exact=False,
            )
        with span.child("merge"):
            return self._merge(snap, rung, legs, n)

    @property
    def can_top_up(self) -> bool:
        """:attr:`CandidateIndex.can_top_up` of the slices (they all agree)."""
        return self.shards[0].can_top_up

    def scan_appended(
        self,
        snap: ShardedSnapshot,
        q: np.ndarray,
        n: int,
        exclude: int,
        covered_events: int,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        """Every slice's appended pairs, scanned inline, then merged exactly.

        Same contract as :meth:`CandidateIndex.scan_appended`;
        ``pair_indices`` are *global* (:meth:`_global_keys` maps appended
        blocks).  The suffixes are a few events × a slice's partners, far
        below what a pool hop costs, so no fan-out.  Thread-safe.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        legs = [
            sl.scan_appended(leg, q, n, exclude, covered_events, span)
            for sl, leg in zip(self.shards, snap.legs, strict=True)
        ]
        return self._merge(snap, "full", legs, n)

    def scan_batch(
        self,
        snap: ShardedSnapshot,
        queries: np.ndarray,
        n: int,
        excludes: np.ndarray,
        span: Span = NULL_SPAN,
    ) -> list[RetrievalResult]:
        """Batched exact scan: one vectorised pass per slice, then merge.

        Identical to :meth:`scan` on the ``full`` rung per query.
        """

        def leg(i: int) -> list[RetrievalResult]:
            with span.child("shard", shard=i) as leg_span:
                return self.shards[i].scan_batch(
                    snap.legs[i], queries, n, excludes, leg_span
                )

        per_shard = self._fan_out(leg)
        with span.child("merge"):
            return [
                self._merge(snap, "full", [res[i] for res in per_shard], n)
                for i in range(len(queries))
            ]


class ShardedServingEngine(ServingEngine):
    """The :class:`ServingEngine` constructed over a :class:`ShardedIndex`.

    Takes :class:`ServingEngine`'s parameters plus ``n_shards``; every
    method, cache, ladder and registry is the base class's — the
    ``(user, n)`` answer cache sits above the fan-out, so a hit skips
    fan-out and merge, and an answer left behind by a refresh is topped
    up from the slices' appended pairs, scanned inline, instead of
    fanning out again.  ``query`` / ``recommend`` /
    ``recommend_batch`` are bit-identical to a single-index engine over
    the same data.  :meth:`close` the engine (or use it as a context
    manager) when discarding it, to release the fan-out pool.
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        n_shards: int,
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
        merged_cache_size: int | None = None,
    ) -> None:
        # merged_cache_size is the old name of the one answer cache's
        # size, still passed (equal to cache_size) by
        # benchmarks/spine/workloads.py StreamSharded.build_replica and
        # benchmarks/spine/probes.py sharded_legs; drop it with them.
        if merged_cache_size is not None:
            cache_size = merged_cache_size
        self._n_shards = n_shards
        super().__init__(
            user_vectors,
            event_vectors,
            candidate_events,
            candidate_partners=candidate_partners,
            top_k_events=top_k_events,
            backend=backend,
            ivf_clusters=ivf_clusters,
            ivf_nprobe=ivf_nprobe,
            cache_size=cache_size,
            metrics=metrics,
            stale_cache_size=stale_cache_size,
            ladder=ladder,
            profiler=profiler,
            tracer=tracer,
        )

    def _make_index(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        **options: Any,
    ) -> ShardedIndex:
        return ShardedIndex(
            user_vectors,
            event_vectors,
            candidate_events,
            n_shards=self._n_shards,
            **options,
        )

    def shard_metrics(self) -> list[MetricsRegistry]:
        """Where shard legs are recorded: the engine's one registry.

        Kept only because benchmarks/spine/probes.py ``stream_caches``
        reads it; drop it with that probe.
        """
        return [self.metrics]
