"""The index layer: *what can be scanned*, apart from how a request is served.

A :class:`CandidateIndex` owns one (candidate events × partner slice) of
the paper's Section IV search space: the transformed
:class:`~repro.online.transform.PairSpace`, the primary index over it
(:class:`~repro.online.bruteforce.BruteForceIndex` = GEM-BF or
:class:`~repro.online.ta.ThresholdAlgorithmIndex` = GEM-TA, the ``full``
rung), the ``ivf`` sibling index of the degradation ladder, the
budget-sized ``truncated`` prefix scan, and the geometric
append buffer that makes :meth:`~CandidateIndex.extended` O(new pairs).
The index objects are called directly, through the one ``query`` /
``extend`` / ``memory_bytes`` signature the :mod:`repro.online` classes
share.  It knows nothing about requests — no caches, no ladder policy,
no telemetry; those belong to the one
:class:`~repro.serving.engine.ServingEngine` written against this
surface::

    built(version, span)  with_siblings()  extended(ids, vectors, version)
    publish(snap)  snapshot()  scan(snap, rung, q, n, exclude, remaining_s, span)

Everything a scan reads is one frozen :class:`IndexSnapshot` (primary,
ivf sibling, candidate ids, event vectors, version, build time).
``built`` / ``with_siblings`` / ``extended`` prepare the next snapshot
from the published one and :meth:`~CandidateIndex.publish` makes it
current with one attribute store; a request loads
:meth:`~CandidateIndex.snapshot` once and passes it to every scan, so it
reads one version, old or new, never a mix — and a write that fails
before the store publishes nothing (DESIGN.md §11).

A scan returns a :class:`~repro.online.ta.RetrievalResult` whose
``event_ids`` / ``partner_ids`` are already decoded, so nothing
downstream (result cache, stale cache, outcome) holds a reference to the
pair space it came from.  :class:`repro.serving.sharded.ShardedIndex`
offers the same surface over N contiguous partner slices, and
:func:`merge_sharded_topn` is the one exact merge of its per-slice
canonically sorted lists.

**Thread-safety:** scans read only their snapshot and may run from any
number of threads, concurrently with a write.  The owner serialises its
writes (the engine's build lock) so that what it publishes was prepared
from the snapshot it replaces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.obs.tracing import NULL_SPAN, Span
from repro.online.bruteforce import BruteForceIndex, scan_top_n
from repro.online.ivf import IVFIndex
from repro.online.pruning import build_pruned_pair_space
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.online.transform import (
    PairSpace,
    cross_pairs,
    query_vector,
    transform_all_pairs,
)
from repro.sanitizer import tsan_lock
from repro.serving.faults import fault_point
from repro.serving.telemetry import BuildStats
from repro.utils.profiling import NULL_PROFILER, Profiler

#: Canonical build-phase names recorded by the index's profiler (the
#: same :class:`~repro.utils.profiling.Profiler` API the offline trainer
#: uses, so one report format covers training and serving builds).
BUILD_PHASES = (
    "build.transform",
    "build.index",
    "build.ivf_sibling",
)

#: Geometric growth factor for the pair-space append buffer: an extend
#: that outgrows the reserved capacity reallocates to ``factor * need``,
#: so n fold-ins cost O(n) amortised row copies instead of O(n^2).
_PAIR_BUFFER_GROWTH = 2.0

#: The primary index classes ``backend=`` chooses between: the paper's
#: two exact algorithms over the pair space (GEM-BF, GEM-TA).
PRIMARY_INDEXES: dict[
    str, type[BruteForceIndex] | type[ThresholdAlgorithmIndex]
] = {"bruteforce": BruteForceIndex, "ta": ThresholdAlgorithmIndex}

#: Initial throughput guess (rows/second) for sizing the truncated
#: brute-force rung before any observation exists; replaced by an EWMA
#: of measured scan throughput after the first truncated scan.
_TRUNC_INITIAL_ROWS_PER_S = 2_000_000.0

#: Fraction of the remaining budget the truncated rung plans to spend
#: scanning (the rest absorbs top-n selection and scheduling noise).
_TRUNC_BUDGET_FRACTION = 0.5


def _as_served(vectors: np.ndarray) -> np.ndarray:
    """The index's working view of an embedding matrix.

    Plain arrays keep the historical behaviour (a float64 working copy);
    ``np.memmap`` inputs — the sharded, store-backed path — are kept
    **zero-copy** so N slices mapping the same
    :class:`~repro.core.store.MemmapStore` share one on-disk copy
    through the page cache instead of each materialising a private
    float64 matrix.  Rows and candidate slices are widened to float64 at
    the point of use, which is exact (float32 -> float64 widening), so
    results are bit-identical across the two representations.
    """
    if isinstance(vectors, np.memmap):
        return vectors
    return np.asarray(vectors, dtype=np.float64)


def _candidate_rows(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of an embedding matrix, staged for an index build.

    A *contiguous* range of a memmap comes back as a zero-copy basic
    slice, so chunked consumers (a pruned build) never hold the whole
    candidate slice in memory — the property the million-user sharded
    store relies on.  Everything else (plain arrays, scattered ids)
    gathers the rows and widens to float64 eagerly, the historical
    behaviour; downstream transforms widen lazily-passed rows at the
    point of use, which is elementwise-exact, so both representations
    produce bit-identical indices.
    """
    if (
        isinstance(matrix, np.memmap)
        and idx.size
        and np.array_equal(
            idx, np.arange(int(idx[0]), int(idx[0]) + idx.size)
        )
    ):
        return matrix[int(idx[0]) : int(idx[0]) + idx.size]
    return np.asarray(matrix[idx], dtype=np.float64)


def _decoded(result: RetrievalResult, space: PairSpace) -> RetrievalResult:
    """Fill ``result``'s decoded ids from the space its indices address
    (a bounded scan's come decoded)."""
    if result.event_ids is None:
        result.event_ids, result.partner_ids = space.decode(result.pair_indices)
    return result


@dataclass(slots=True)
class TopList:
    """One canonically sorted candidate list, ready for the exact merge.

    ``scores`` descend; ``keys`` are *global* pair indices (ascending
    within equal scores); ``event_ids``/``partner_ids`` align with both.
    """

    scores: np.ndarray
    keys: np.ndarray
    event_ids: np.ndarray
    partner_ids: np.ndarray


def merge_sharded_topn(
    shard_lists: list[TopList], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact merge of top lists over disjoint pairs: one canonical sort.

    Under the canonical total order ``(-score, global_key)``,
    ``top_n(A | B) = top_n(top_n(A) | top_n(B))`` exactly, ties included,
    for the partner slices of a sharded scan's legs.  The lists cover
    disjoint pairs, so every key is unique and one ``lexsort`` of their
    concatenation by ``(-score, key)`` is that order; its first ``n``
    entries are the answer.  Returns aligned ``(scores, keys, event_ids,
    partner_ids)`` arrays of length ``<= n``.  Pure function; thread-safe;
    no deadline (the lists hold at most ``n`` entries each).
    """
    scores = np.concatenate([sl.scores for sl in shard_lists]).astype(
        np.float64, copy=False
    )
    keys = np.concatenate([sl.keys for sl in shard_lists]).astype(
        np.int64, copy=False
    )
    top = np.lexsort((keys, -scores))[:n]
    events = np.concatenate([sl.event_ids for sl in shard_lists])
    partners = np.concatenate([sl.partner_ids for sl in shard_lists])
    return (
        scores[top],
        keys[top],
        events[top].astype(np.int64, copy=False),
        partners[top].astype(np.int64, copy=False),
    )


# No __slots__: with them the stream_sharded workload's peak RSS read
# ~5 MB higher in 3 of 4 runs — slot teardown frees the fields in another
# order than an instance dict, and the allocator keeps more of the heap.
@dataclass(frozen=True, eq=False)
class IndexSnapshot:
    """Everything a scan of one :class:`CandidateIndex` reads, published whole.

    ``version`` stamps what is served (every write that changes it takes
    a new one); ``built_at`` is the ``time.monotonic()`` of the
    last build or extend (``None`` before the first build, as is
    ``primary``).  Nothing here is mutated after publication: an append
    publishes a longer prefix of the index's buffers and new index
    objects, and a reader holding this snapshot keeps its shorter one.
    """

    version: int
    candidate_events: np.ndarray
    event_vectors: np.ndarray
    primary: BruteForceIndex | ThresholdAlgorithmIndex | None = None
    ivf: IVFIndex | None = None
    built_at: float | None = None

    @property
    def backend(self) -> BruteForceIndex | ThresholdAlgorithmIndex:
        """The primary index object (raises before the first build)."""
        if self.primary is None:
            raise RuntimeError("index not built; warm the engine first")
        return self.primary

    @property
    def n_candidate_pairs(self) -> int:
        """Candidate pairs in the primary index."""
        return self.backend.space.n_pairs

    def rungs(self) -> tuple[str, ...]:
        """The scannable ladder rungs, best first.

        ``ivf`` requires its clustered sibling (``ivf_clusters`` set and
        warmed, see :meth:`CandidateIndex.with_siblings`).  The terminal
        ``stale_cache`` rung is the engine's.
        """
        if self.ivf is None:
            return ("full", "truncated")
        return ("full", "ivf", "truncated")


class PublishedIndex:
    """What an index answers from its published snapshot, lock-free.

    Shared by :class:`CandidateIndex` and
    :class:`~repro.serving.sharded.ShardedIndex`: ``_snap`` is written only
    under the subclass's build lock, and :meth:`snapshot` is the one read
    of it that takes no lock.
    """

    _snap: Any
    user_vectors: np.ndarray

    def snapshot(self) -> Any:
        """The published snapshot: load it once, read everything through it."""
        # A reference load is atomic and the snapshot is never mutated,
        # so no lock could add anything.
        return self._snap  # replint: allow(REP007)

    @property
    def candidate_events(self) -> np.ndarray:
        """Global candidate event ids of the published snapshot."""
        return self.snapshot().candidate_events

    @property
    def event_vectors(self) -> np.ndarray:
        """The event embedding matrix of the published snapshot."""
        return self.snapshot().event_vectors

    @property
    def n_users(self) -> int:
        """Rows of the user embedding matrix (valid query user range)."""
        return int(self.user_vectors.shape[0])

    @property
    def n_events(self) -> int:
        """Rows of the event embedding matrix."""
        return int(self.event_vectors.shape[0])

    @property
    def is_built(self) -> bool:
        """Whether the primary index has been materialised yet."""
        return self.snapshot().primary is not None

    @property
    def n_candidate_pairs(self) -> int:
        """Candidate pairs in the primary index (raises before the first build)."""
        return int(self.snapshot().n_candidate_pairs)

    def index_age_s(self) -> float:
        """Seconds since the index was last built or extended.

        ``-1.0`` before the first build.  This is the *staleness age*
        the metrics exporter publishes as ``repro_index_age_seconds``;
        measured on the monotonic clock from the snapshot's build time.
        """
        built = self.snapshot().built_at
        return -1.0 if built is None else time.monotonic() - built


class CandidateIndex(PublishedIndex):
    """One scannable (candidate events × partner slice) of the pair space.

    Parameters
    ----------
    user_vectors, event_vectors:
        The trained embedding matrices (GEM or any latent-factor model).
    candidate_events:
        Global event ids eligible for recommendation.
    candidate_partners:
        Global user ids eligible as partners (default: everyone).
    top_k_events:
        Pruning level k of the primary index (``None`` = no pruning;
        Fig 7's sweet spot is 5% of the candidate events).
    backend:
        The primary index: ``"bruteforce"`` (default) or ``"ta"``
        (:data:`PRIMARY_INDEXES`).
    ivf_clusters, ivf_nprobe:
        Opt-in knobs for the ``ivf`` rung: when ``ivf_clusters`` is set,
        :meth:`with_siblings` additionally builds a clustered
        inverted-file sibling (:class:`~repro.online.ivf.IVFIndex`) over
        the primary pair space, scanned ``ivf_nprobe`` nearest clusters
        at a time (default: 25% of the clusters).
    profiler:
        Optional :class:`~repro.utils.profiling.Profiler` recording the
        build-phase breakdown (:data:`BUILD_PHASES`); only touched under
        the build lock, matching the profiler's one-thread-at-a-time
        contract.

    The served state is the published :class:`IndexSnapshot`; the
    introspection properties (``candidate_events``, ``event_vectors``,
    ``space``, ``backend`` …) read the current one.  The one mutable
    field a scan touches outside it is the ``truncated`` rung's
    throughput EWMA — a policy estimate every truncated scan updates, not
    served state, so it lives under its own lock.
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
        profiler: Profiler | None = None,
    ) -> None:
        self.user_vectors = _as_served(user_vectors)
        candidate_events = np.asarray(candidate_events, dtype=np.int64)
        if candidate_events.size == 0:
            raise ValueError("candidate_events must be non-empty")
        if candidate_partners is None:
            candidate_partners = np.arange(
                self.user_vectors.shape[0], dtype=np.int64
            )
        self.candidate_partners = np.asarray(
            candidate_partners, dtype=np.int64
        )
        if ivf_clusters is not None and ivf_clusters < 1:
            raise ValueError(
                f"ivf_clusters must be >= 1, got {ivf_clusters}"
            )
        if ivf_nprobe is not None and ivf_clusters is None:
            raise ValueError("ivf_nprobe requires ivf_clusters")
        if backend not in PRIMARY_INDEXES:
            raise ValueError(
                f"unknown backend {backend!r}; choose one of "
                f"{sorted(PRIMARY_INDEXES)} (pruning is top_k_events=, the "
                "ivf rung is ivf_clusters=)"
            )
        #: What ``QueryStats.backend`` records for answers from this index.
        self.label = backend
        self._primary_class = PRIMARY_INDEXES[backend]
        self.top_k_events = top_k_events
        self.ivf_clusters = ivf_clusters
        self.ivf_nprobe = ivf_nprobe
        self.profiler = profiler if profiler is not None else NULL_PROFILER  # replint: guarded-by(_build_lock)
        self.build_stats = BuildStats()  # replint: guarded-by(_build_lock)
        # The publication point: written only under _build_lock, read
        # lock-free once per request through snapshot().
        self._snap = IndexSnapshot(  # replint: guarded-by(_build_lock)
            version=1,
            candidate_events=candidate_events,
            event_vectors=_as_served(event_vectors),
        )
        # Growable append buffer backing incremental extend: each
        # fold-in writes its new interactions into reserved tail capacity
        # and re-views the prefix, instead of concatenating (= copying)
        # the whole pair space per refresh.  Only the build path touches
        # it; published PairSpace views alias the immutable prefix.
        self._pair_buffer: np.ndarray | None = None  # replint: guarded-by(_build_lock)
        self._trunc_rows_per_s = _TRUNC_INITIAL_ROWS_PER_S  # replint: guarded-by(_trunc_lock)
        self._build_lock = tsan_lock(threading.RLock(), "_build_lock")
        self._trunc_lock = tsan_lock(threading.Lock(), "_trunc_lock")

    # ------------------------------------------------------------------
    # introspection
    @property
    def backend(self) -> BruteForceIndex | ThresholdAlgorithmIndex:
        """The primary index object (raises before the first build)."""
        return self.snapshot().backend

    @property
    def space(self) -> PairSpace:
        """The transformed pair space (raises before the first build)."""
        return self.backend.space

    @property
    def _ivf_index(self) -> IVFIndex | None:
        """The ivf sibling; benchmarks/spine/probes.py ``ladder_build`` reads it."""
        return self.snapshot().ivf

    def memory_bytes(self) -> int:
        """Resident bytes of the built index (0 before first build)."""
        primary = self.snapshot().primary
        return 0 if primary is None else primary.memory_bytes()

    def build_profile(self) -> dict[str, object]:
        """Per-phase breakdown of build work (:data:`BUILD_PHASES`).

        Shape matches :meth:`repro.utils.profiling.Profiler.as_dict`;
        taken under the build lock so a concurrent extend cannot tear
        the snapshot.
        """
        with self._build_lock:
            return self.profiler.as_dict()

    def close(self) -> None:
        """Nothing to release."""

    # ------------------------------------------------------------------
    # offline: prepare the next snapshot, publish it
    def publish(self, snap: IndexSnapshot) -> None:
        """Make ``snap`` what every later read loads: one attribute store."""
        with self._build_lock:
            self._snap = snap

    def restamp(self, version: int) -> None:
        """Stamp a cold index with the version its first build carries."""
        self.publish(replace(self.snapshot(), version=version))

    def _transform(
        self, snap: IndexSnapshot, k: int | None, version: int
    ) -> PairSpace:
        """``snap``'s candidates' pair space (pruned to top-``k`` events per partner).

        Candidate events are few — gathered eagerly; a contiguous memmap
        partner slice is passed zero-copy: a pruned build scores it in
        chunks, and the space widens it to float64 once, as its
        ``(n_partners, K)`` factor rows (exact, so bits match).
        """
        ev = np.asarray(snap.event_vectors[snap.candidate_events], dtype=np.float64)
        pa = _candidate_rows(self.user_vectors, self.candidate_partners)
        ids = dict(event_ids=snap.candidate_events, partner_ids=self.candidate_partners)
        if k is None:
            space = transform_all_pairs(ev, pa, **ids)
        else:
            space = build_pruned_pair_space(ev, pa, k, **ids)
        space.version = version
        return space

    def built(self, version: int, span: Span = NULL_SPAN) -> IndexSnapshot:
        """The published candidates cold-built at ``version``, not yet published.

        Without the ivf sibling (it describes the superseded space) —
        re-warm with :meth:`with_siblings`.
        """
        with self._build_lock:
            snap = self._snap
            fault_point("backend.build", span=span)
            with self.profiler.phase("build.transform"):
                space = self._transform(snap, self.top_k_events, version)
            with self.profiler.phase("build.index"):
                primary = self._primary_class(space)
            # The next extend starts a fresh buffer (the old one belongs
            # to the superseded build's spaces).
            self._pair_buffer = None
            self.build_stats.n_full_builds += 1
            self.build_stats.n_pairs_transformed += space.n_pairs
            return IndexSnapshot(
                version=version,
                candidate_events=snap.candidate_events,
                event_vectors=snap.event_vectors,
                primary=primary,
                built_at=time.monotonic(),
            )

    def with_siblings(self) -> IndexSnapshot:
        """The published snapshot with its cold ``ivf`` sibling built.

        The ``ivf`` rung (opt-in via ``ivf_clusters``) scans a clustered
        inverted-file sibling over the primary space.  It is only offered
        by :meth:`IndexSnapshot.rungs` once it exists (a cold rung is
        skipped downward rather than paying its build inside someone's
        deadline).  It *survives* an extend — it absorbs the appended
        rows incrementally — and is only dropped by :meth:`built`.
        """
        with self._build_lock:
            snap = self._snap
            space = snap.backend.space
            if snap.ivf is not None or self.ivf_clusters is None:
                return snap
            with self.profiler.phase("build.ivf_sibling"):
                ivf = IVFIndex(
                    space,
                    n_clusters=self.ivf_clusters,
                    nprobe=self.ivf_nprobe,
                )
            return replace(snap, ivf=ivf)

    def extended(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None,
        version: int,
    ) -> IndexSnapshot:
        """The published snapshot with new events folded in, not yet published.

        ``new_event_ids`` are global event ids; pass ``new_event_vectors``
        (``(len(ids), K)``) when the ids extend the embedding matrix —
        they must then be exactly the row indices being appended.  Ids
        already served are skipped; with none left this is the published
        snapshot itself.  Only the *new* (event × partner) pairs are
        computed and the primary index absorbs them via its incremental
        ``extend`` — the pre-existing pair rows are not recomputed
        (pruned indices keep all pairs of a fresh event until the next
        :meth:`built`, since cold-start events are exactly what the
        online system must not prune away).  The new rows land in a
        geometrically over-allocated buffer, so a fold-in costs O(new
        pairs) amortised.  A warmed ivf sibling absorbs the new pairs
        through its own ``extend``.  Stamped ``version``.  Nothing is
        published: a failure anywhere here leaves the served index as it
        was.
        """
        with self._build_lock:
            snap = self._snap
            new_event_ids = np.atleast_1d(
                np.asarray(new_event_ids, dtype=np.int64)
            )
            n_events = int(snap.event_vectors.shape[0])
            event_vectors = snap.event_vectors
            if new_event_vectors is not None:
                new_event_vectors = np.asarray(
                    new_event_vectors, dtype=np.float64
                )
                if new_event_vectors.ndim != 2 or new_event_vectors.shape[0] != new_event_ids.size:
                    raise ValueError(
                        "new_event_vectors must be (len(new_event_ids), K), "
                        f"got {new_event_vectors.shape}"
                    )
                if new_event_vectors.shape[1] != event_vectors.shape[1]:
                    raise ValueError(
                        f"new event vectors have dim "
                        f"{new_event_vectors.shape[1]}, expected "
                        f"{event_vectors.shape[1]}"
                    )
                expected = np.arange(
                    n_events, n_events + new_event_ids.size, dtype=np.int64
                )
                if not np.array_equal(np.sort(new_event_ids), expected):
                    raise ValueError(
                        "new_event_ids must be exactly the appended embedding "
                        f"rows {expected[0]}..{expected[-1]}"
                    )
                order = np.argsort(new_event_ids)
                # Extending the event matrix materialises it in-process
                # (the memmap store is append-immutable once frozen); the
                # *user* matrix — the one that scales with millions of
                # users — stays a zero-copy view.
                event_vectors = np.vstack(
                    [
                        np.asarray(event_vectors, dtype=np.float64),
                        new_event_vectors[order],
                    ]
                )
            elif new_event_ids.size and new_event_ids.max() >= n_events:
                raise ValueError(
                    f"event id {int(new_event_ids.max())} is outside the "
                    f"embedding matrix ({n_events} events); pass "
                    "new_event_vectors to extend it"
                )

            fresh = new_event_ids[
                ~np.isin(new_event_ids, snap.candidate_events)
            ]
            if fresh.size == 0:
                return snap
            grown = replace(
                snap,
                version=version,
                candidate_events=np.concatenate([snap.candidate_events, fresh]),
                event_vectors=event_vectors,
            )
            if snap.primary is None:
                # Not built yet: the (lazy) first build covers everything.
                return grown
            with self.profiler.phase("build.transform"):
                old = snap.primary.space
                combined = self._append_pairs(old, event_vectors, fresh, version)
            with self.profiler.phase("build.index"):
                primary = snap.primary.extend(combined, old.n_pairs)
            ivf = snap.ivf
            if ivf is not None:
                with self.profiler.phase("build.ivf_sibling"):
                    ivf = ivf.extend(combined, old.n_pairs)
            self.build_stats.n_incremental_refreshes += 1
            self.build_stats.n_pairs_transformed += combined.n_pairs - old.n_pairs
            return replace(
                grown, primary=primary, ivf=ivf, built_at=time.monotonic()
            )

    def _append_pairs(
        self,
        old: PairSpace,
        event_vectors: np.ndarray,
        fresh: np.ndarray,
        version: int,
    ) -> PairSpace:
        """``old`` plus the (``fresh`` events × partners) block, ``old`` uncopied.

        The block continues the cross region, so it adds interactions
        only: the published :class:`PairSpace`'s ``interaction`` is a
        prefix *view* of a growable buffer owned by the index, and a
        pruned build's listed indices are shared as they are.  When the
        buffer has room the new pairs are written past the prefix and a
        longer view is returned — O(new pairs), not O(all pairs).  When
        it does not (first fold-in after a build, or capacity exhausted),
        a buffer of ``max(need, growth * old)`` pairs is allocated and
        the old prefix is copied once; geometric growth makes the copy
        amortised O(1) per appended pair.  Safe with concurrent readers:
        pairs in a published prefix are never written again, so a reader
        holding the previous (shorter) view observes frozen data while
        the writer fills pairs beyond its end — and a write that fails
        before publication leaves only unpublished rows behind.  The
        small per-event arrays are re-concatenated; the partner rows are
        shared.  Caller holds the build lock.
        """
        fresh_factors = np.asarray(event_vectors[fresh], dtype=np.float64)
        block, row_max = cross_pairs(fresh_factors, old.partner_factors)
        need = old.n_pairs + block.size
        buffer = self._pair_buffer
        if (
            buffer is None
            or old.interaction.base is not buffer
            or need > buffer.shape[0]
        ):
            cap = max(need, int(_PAIR_BUFFER_GROWTH * old.n_pairs))
            buffer = np.empty(cap, dtype=np.float64)
            buffer[: old.n_pairs] = old.interaction
            self._pair_buffer = buffer
        buffer[old.n_pairs : need] = block
        return PairSpace(
            event_factors=np.concatenate([old.event_factors, fresh_factors]),
            partner_factors=old.partner_factors,
            candidate_events=np.concatenate([old.candidate_events, fresh]),
            candidate_partners=old.candidate_partners,
            interaction=buffer[:need],
            event_index=old.event_index,
            partner_index=old.partner_index,
            cross_max=np.concatenate([old.cross_max, row_max]),
            version=version,
        )

    # ------------------------------------------------------------------
    # online: scans of one snapshot
    def scan(
        self,
        snap: IndexSnapshot,
        rung: str,
        q: np.ndarray,
        n: int,
        exclude: int,
        remaining_s: float | None = None,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        """Top-n of ``snap``'s ``rung`` for the extended query ``q``, ids decoded.

        ``remaining_s`` is the deadline budget left (``None`` = no
        deadline: the rung runs to completion); budget-aware rungs
        return their best-so-far with ``exact=False`` when it expires
        mid-scan.  Each rung passes its named fault site first
        (``backend.query`` / ``.ivf`` / ``.truncated``),
        annotating ``span``.  Raises :class:`RuntimeError` for a rung
        whose sibling is cold.  Read-only and thread-safe.
        """
        budget_s = None if remaining_s is None else max(remaining_s, 1e-4)
        if rung == "truncated":
            fault_point("backend.truncated", span=span)
            space = snap.backend.space
            return _decoded(self._scan_truncated(space, q, n, exclude, budget_s), space)
        # The other rungs are one index object each, behind one signature;
        # only a TA primary can stop inside budget_s.
        index: BruteForceIndex | ThresholdAlgorithmIndex | IVFIndex | None
        if rung == "full":
            fault_point("backend.query", span=span)
            index = snap.backend
        elif rung == "ivf":
            # Cost is governed by the probe width (a recall knob), not the
            # candidate count — the sublinear rung between full and
            # truncated; the result carries n_clusters_probed.
            fault_point("backend.ivf", span=span)
            index = snap.ivf
        else:
            raise ValueError(f"unknown index rung {rung!r}")
        if index is None:
            raise RuntimeError(f"{rung} rung not warmed; call warm_ladder()")
        return _decoded(
            index.query(q, n, exclude=exclude, budget_s=budget_s), index.space
        )

    def query(self, user: int, n: int) -> RetrievalResult:
        """The ``full`` rung for one user, no deadline (engine-less).

        Kept only because benchmarks/spine/probes.py ``sharded_legs``
        times stand-alone legs through it; drop it with that probe.
        """
        q = query_vector(np.asarray(self.user_vectors[user], dtype=np.float64))
        return self.scan(self.snapshot(), "full", q, n, user)

    def _scan_truncated(
        self,
        space: PairSpace,
        q: np.ndarray,
        n: int,
        exclude: int,
        budget_s: float | None,
    ) -> RetrievalResult:
        """Brute-force a budget-sized prefix of the candidate pairs.

        The prefix length is planned from an EWMA of observed scan
        throughput so the rung adapts to the hardware it runs on; the
        answer is the exact top-n *of the scanned prefix* (``exact``
        only when the prefix covered everything).
        """
        # Snapshot the throughput estimate under its lock: the EWMA is
        # shared mutable state updated by every concurrent truncated
        # scan (REP007 guards it).
        with self._trunc_lock:
            rows_per_s = self._trunc_rows_per_s
        planned = (
            space.n_pairs
            if budget_s is None
            else int(rows_per_s * budget_s * _TRUNC_BUDGET_FRACTION)
        )
        m = max(min(space.n_pairs, planned), min(space.n_pairs, 8 * n))
        # The canonical (descending score, ascending index) order holds
        # for the prefix too — it is reported exact when it covers the
        # whole space.
        start = time.perf_counter()
        result = scan_top_n(space, q, n, exclude_partner=exclude, stop=m)
        seconds = time.perf_counter() - start
        if seconds > 0:
            observed = m / seconds
            with self._trunc_lock:
                self._trunc_rows_per_s = (
                    0.3 * observed + 0.7 * self._trunc_rows_per_s
                )
        return result
