"""Sharding as an index composition: N partner slices, one exact answer.

One :class:`~repro.serving.index.CandidateIndex` owns one pair index,
which caps the servable candidate set at what a single index build can
hold — the ceiling ROADMAP item 1 (millions of users) runs into.
:class:`ShardedIndex` partitions the **partner axis** into N contiguous
slices and gives each its own :class:`CandidateIndex` (all candidate
events, one slice of candidate partners).  A read is answered one of
two ways, both bit-identical to a single index over the same data:

* **One bounded pass** — the ``full`` rung over brute-force slices
  (unpruned, ``w >= 0``: every user's query).  The slices share every
  event row, so their cross rows are one ``(rows, P)`` matrix split by
  column: the
  bounded scan (:func:`~repro.online.bruteforce.bounded_top_n`)
  bounds each row once with the row maxima of all slices
  (:attr:`ShardedSnapshot.cross_max`), scores the rows it visits across
  every slice's column block, and its keys ``row·P + column`` are the
  global pair indices — no per-slice scan, no merge.
* **Legs and a merge** — every other scan (``truncated``, ``ivf``, a TA
  primary, a pruned primary's ``full`` rung, ``w < 0``) runs once per
  slice, and the per-slice top-n lists are merged into the global top-n
  with a merge that is *provably exact*, ties included
  (:func:`repro.serving.index.merge_sharded_topn` — a pure function of
  top lists).

It offers the same scan surface as a single index, so the one
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
(``idx = event_rank * P + partner_rank``), partner-major pruned at
``top_k_events=k`` (``idx = partner_rank * k + preference_rank``), and
the event-major blocks :meth:`CandidateIndex.extended` appends — is
monotone in ``(segment, …, partner_rank)``: restricting the global index
order to one slice's partners gives exactly that slice's local index
order.  Two consequences:

1. each slice's top-n under its local order contains every member of
   the global top-n that lives in that slice (there are at most n), and
2. the local -> global index map (:meth:`ShardedIndex._global_keys`)
   is order-preserving within a slice,

so sorting the union of the per-slice lists by ``(-score,
global_index)`` and keeping n replays the single-index result
bit-for-bit.  ``tests/test_sharded.py`` property-tests both ways against
single-index engines across random shard counts and tie-heavy score
distributions.

Deadlines and degradation
-------------------------

There is **one ladder per request**, the engine's: it picks a rung, and
that rung's scan runs here on the request's thread — one pass, or one
leg per slice in turn under one ``shard`` child span each, sharing the
remaining budget, ``remaining_s / n_shards`` each.  A scan that fails
(an injected fault, a cold sibling) or a leg that runs out of budget
before scoring anything fails the rung for the whole request, and the
engine's walk steps down.  A merged result is ``exact`` only if every
leg was.

**Thread-safety:** mirrors :class:`CandidateIndex` — a
:class:`ShardedSnapshot` holds one published snapshot per slice plus the
local -> global key constants and the one-pass constants; ``built`` /
``with_siblings`` / ``extended`` prepare every slice's next snapshot and
:meth:`publish` makes all of them current with one store, so a scan
reads every slice at one version and a slice that fails leaves every
slice as it was.  Scans and builds run on the caller's thread, slice
after slice — cores are used across requests, not within one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.obs.tracing import NULL_SPAN, Span, Tracer
from repro.online.bruteforce import BruteForceIndex, bounded_top_n, row_bounded
from repro.online.ta import RetrievalResult
from repro.sanitizer import tsan_lock
from repro.serving.engine import ServingEngine
from repro.serving.faults import fault_point
from repro.serving.index import (
    CandidateIndex,
    IndexSnapshot,
    PublishedIndex,
    TopList,
    merge_sharded_topn,
)
from repro.serving.lifecycle import LadderPolicy
from repro.serving.telemetry import MetricsRegistry
from repro.utils.profiling import Profiler

__all__ = ["ShardedIndex", "ShardedServingEngine", "ShardedSnapshot"]


@dataclass(frozen=True, slots=True, eq=False)
class ShardedSnapshot:
    """One published snapshot per slice, in partner-rank order.

    ``built_events`` is the candidate-event count of the initial build
    segment — with ``top_k_events``, the constants of the local -> global
    index map — ``None`` before the first build.  Every slice carries the
    same candidate ids, event vectors and version.

    ``cross_max`` is what the one-pass scan (:meth:`ShardedIndex.scan`'s
    ``full`` rung) bounds rows with
    over brute-force slices: the slices' trailing event-major cross rows
    are one ``(rows, P)`` matrix split by column, and ``cross_max`` is its
    row maxima over every column — the row-wise max of the slices'
    :attr:`~repro.online.transform.PairSpace.cross_max`.  ``None`` where
    scans go per slice (a TA primary, no build).  ``columns`` is that
    matrix's ``(partner ids, partner factor rows)``, the slices'
    concatenated once here, so a one-pass read forms the partner terms
    and their exclusion in one call each (``None`` with ``cross_max``).

    ``n_candidate_pairs`` is the pairs of all slices, summed once where
    the snapshot is made (0 before the first build): the engine reads it
    on every request.
    """

    legs: tuple[IndexSnapshot, ...]
    built_events: int | None = None
    cross_max: np.ndarray | None = None
    n_candidate_pairs: int = 0
    columns: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(
        cls, legs: tuple[IndexSnapshot, ...], built_events: int | None
    ) -> "ShardedSnapshot":
        """``legs`` with their pair count and the one-pass row maxima and
        columns (where they have any)."""
        primaries = [leg.primary for leg in legs]
        n_pairs = sum(pr.space.n_pairs for pr in primaries if pr is not None)
        if not all(isinstance(pr, BruteForceIndex) for pr in primaries):
            return cls(legs, built_events, n_candidate_pairs=n_pairs)
        spaces = [pr.space for pr in primaries]
        maxima = np.maximum.reduce([sp.cross_max for sp in spaces])
        columns = (
            np.concatenate([sp.candidate_partners for sp in spaces]),
            np.concatenate([sp.partner_factors for sp in spaces]),
        )
        return cls(legs, built_events, maxima, n_pairs, columns)

    def __getattr__(self, name: str) -> Any:
        """``version``, ``candidate_events``, ``event_vectors``,
        ``primary``, ``built_at`` and ``rungs()`` are every slice's (one
        write builds or extends them all), so the first's."""
        if name == "legs":  # not set yet (copying): no recursion
            raise AttributeError(name)
        return getattr(self.legs[0], name)


class ShardedIndex(PublishedIndex):
    """N contiguous partner slices behind the one-index scan surface.

    Candidate partners are split into ``n_shards`` contiguous
    rank-slices; each slice is a :class:`CandidateIndex` over (its
    partners × all candidate events), and the one-pass scan or the
    per-slice legs and merge here reconstruct single-index results
    exactly (see the module docstring).  Parameters are :class:`CandidateIndex`'s
    plus ``n_shards``; the ladder knobs apply per slice.

    Pass ``np.memmap`` matrices (from a frozen
    :class:`~repro.core.store.MemmapStore`) and every slice serves
    zero-copy from the same on-disk embedding copy — no process
    materialises the full matrix; each slice's build touches only its
    own partners.

    Every slice records its build phases into the one ``profiler``: the
    slices build one after another on the caller's thread.
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
                profiler=profiler,
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
        self._closed = False

    # ------------------------------------------------------------------
    # introspection (the rest reads the snapshot: PublishedIndex)
    def memory_bytes(self) -> int:
        """Summed resident index bytes across slices, plus the one-pass
        row maxima and columns."""
        snap = self.snapshot()
        own = 0
        if snap.cross_max is not None and snap.columns is not None:
            own = snap.cross_max.nbytes + sum(c.nbytes for c in snap.columns)
        return own + sum(sl.memory_bytes() for sl in self.shards)

    def build_profile(self) -> dict[str, object]:
        """Per-phase build breakdown of every slice (they share one profiler)."""
        return self.shards[0].build_profile()

    def close(self) -> None:
        """Refuse later builds and scans (idempotent); nothing to release."""
        self._closed = True

    # ------------------------------------------------------------------
    # offline: prepare every slice, then publish

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
        """Every slice cold-built in turn, with its key map."""
        if self._closed:
            raise RuntimeError("engine is closed")
        legs = tuple(sl.built(version, span) for sl in self.shards)
        return ShardedSnapshot.of(legs, int(legs[0].candidate_events.size))

    def with_siblings(self) -> ShardedSnapshot:
        """Every slice with its cold ``ivf`` sibling built, in turn."""
        if self._closed:
            raise RuntimeError("engine is closed")
        legs = tuple(sl.with_siblings() for sl in self.shards)
        return ShardedSnapshot.of(legs, self.snapshot().built_events)

    def restamp(self, version: int) -> None:
        """Stamp a cold index with the version its first build carries."""
        snap = self.snapshot()
        legs = tuple(replace(leg, version=version) for leg in snap.legs)
        self.publish(replace(snap, legs=legs))

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
        return ShardedSnapshot.of(tuple(legs), self.snapshot().built_events)

    # ------------------------------------------------------------------
    # the local -> global index map
    def _global_keys(
        self, snap: ShardedSnapshot, shard: int, local_idx: np.ndarray
    ) -> np.ndarray:
        """Map a slice's local pair indices to global pair indices.

        Piecewise by segment (see the module docstring): the initial
        build segment is event-major (unpruned) or partner-major
        (``top_k_events``); every extend appends event-major blocks.
        Unpruned, the two segments are one event-major layout, so one
        formula maps both.  Every rung addresses the
        primary space's pairs, so one map serves them all.  The map is
        strictly increasing in ``local_idx``, which is what makes the
        per-slice sort order the restriction of the global one.
        """
        e0 = snap.built_events
        assert e0 is not None
        local = np.asarray(local_idx, dtype=np.int64)
        off = self._offsets[shard]
        p_s = self._sizes[shard]
        p_all = int(self.candidate_partners.size)
        k = self.top_k_events
        if k is None:
            ev, pa = np.divmod(local, p_s)
            return ev * p_all + (off + pa)
        base_s = p_s * k
        pa, j = np.divmod(local, k)
        fresh, pa2 = np.divmod(local - base_s, p_s)
        return np.where(
            local < base_s,
            (off + pa) * k + j,
            p_all * k + fresh * p_all + (off + pa2),
        )

    def _merge(
        self,
        snap: ShardedSnapshot,
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
                    keys=self._global_keys(snap, s, leg.pair_indices),
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
        )

    # ------------------------------------------------------------------
    # online: scans of one snapshot
    def _one_pass(
        self,
        snap: ShardedSnapshot,
        q: np.ndarray,
        n: int,
        exclude: int,
        span: Span,
    ) -> RetrievalResult | None:
        """The bounded scan of every slice at once — the single index's
        answer, ``n_examined`` included — or ``None`` where it does not
        apply (a TA primary, or not
        :func:`~repro.online.bruteforce.row_bounded`).

        The slices share every event row, so
        :func:`~repro.online.bruteforce.bounded_top_n` computes ``a``
        once, ``b`` once over ``snap.columns``, bounds each row by
        ``snap.cross_max`` and scores the rows
        it visits as one ``(m, P)`` matrix of the slices' column blocks:
        its pair indices are the global ones and no merge is needed.
        Passes the ``backend.query`` fault site once.
        """
        if snap.cross_max is None:
            return None
        spaces = [leg.primary.space for leg in snap.legs]
        if not row_bounded(spaces[0], q):
            return None
        fault_point("backend.query", span=span)
        q = spaces[0].checked_query(q, n)
        return bounded_top_n(spaces, snap.cross_max, q, n, exclude, snap.columns)

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
        """Scan ``rung`` of ``snap`` over every slice; global pair indices.

        Same contract as :meth:`CandidateIndex.scan`.  The ``full`` rung
        over brute-force slices whose cross rows are every candidate
        event (no ``top_k_events``), for ``w >= 0`` (every user's query),
        is **one bounded pass** over all the slices together
        (:meth:`_one_pass`): it visits the rows a single index visits, so
        ``pair_indices``, score bits and ``n_examined`` are the single
        index's, with no merge.  Every other scan — ``truncated``,
        ``ivf``, a TA primary, a pruned primary, ``w < 0`` — runs one leg
        per slice, one after another on the calling thread, each under a
        ``shard`` child of ``span`` and given ``remaining_s / n_shards``
        of the budget (``None``: no deadline), so a budget-aware rung
        plans the request's budget in total, not ``n_shards`` times it;
        the legs are then merged exactly under a ``merge`` child.  A
        leg's exception propagates; a leg whose budget ran out before it
        scored anything makes the whole result empty and inexact —
        either way the rung fails for the request.  Thread-safe.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if rung == "full":
            one = self._one_pass(snap, q, n, exclude, span)
            if one is not None:
                return one
        leg_s = None if remaining_s is None else remaining_s / self.n_shards
        legs: list[RetrievalResult] = []
        # replint: allow-loop(one scan per shard, not per candidate)
        for i, (sl, leg) in enumerate(zip(self.shards, snap.legs, strict=True)):
            with span.child("shard", shard=i) as leg_span:
                legs.append(sl.scan(leg, rung, q, n, exclude, leg_s, leg_span))
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
            return self._merge(snap, legs, n)


class ShardedServingEngine(ServingEngine):
    """The :class:`ServingEngine` constructed over a :class:`ShardedIndex`.

    Takes :class:`ServingEngine`'s parameters plus ``n_shards``; every
    method, cache, ladder and registry is the base class's — the
    ``(user, n)`` answer cache sits above the slices, so a hit scans no
    slice.  ``query`` / ``recommend`` are bit-identical to
    a single-index engine over the same data.  A closed engine refuses
    scans.
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
