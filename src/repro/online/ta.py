"""Threshold-Algorithm retrieval over the transformed pair space.

After the Section IV space transformation, top-n event-partner
recommendation is maximum-inner-product search between the query
:math:`\\vec q_u` and the candidate points :math:`\\vec p_{xu'}`.  The
paper adopts the TA-based technique of LCARS (ref [32]) — Fagin's
Threshold Algorithm adapted to weighted inner products:

offline, each of the ``2K+1`` dimensions keeps a list of candidates sorted
by their value on that dimension; online, sorted access proceeds
round-robin down the lists (restricted to dimensions with positive query
weight), each newly seen candidate is fully scored by random access, and
the scan stops as soon as the n-th best full score reaches the *threshold*
:math:`T = \\sum_f q_f \\cdot z_f` (``z_f`` = value at the current depth of
list ``f``), which upper-bounds every unseen candidate.  TA therefore
returns the exact top-n while examining a prefix of the lists — the
"minimum number of event-partner pairs" property the paper cites.

Non-negativity of the embeddings (the ReLU projection) guarantees the
query weights are non-negative, which TA's monotone-aggregation
requirement needs; dimensions with zero weight cannot raise any score and
are skipped.
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.contracts import check_shapes
from repro.online.transform import PairSpace


@dataclass(slots=True)
class RetrievalResult:
    """Top-n pairs plus the access statistics the efficiency study reports.

    ``exact`` is ``True`` when the result is the provably exact top-n
    over the indexed space (TA's stop condition reached, or a complete
    scan).  A budget-capped TA query that ran out of time returns its
    best-so-far with ``exact=False`` — the serving engine's degradation
    ladder records this so approximate answers are never silent.
    """

    pair_indices: np.ndarray  # indices into the PairSpace, best first
    scores: np.ndarray  # inner products, aligned with pair_indices
    n_examined: int  # distinct candidates fully scored
    n_sorted_accesses: int  # total sorted-access steps
    fraction_examined: float  # n_examined / n_candidates
    exact: bool = True  # stop condition reached (vs budget early exit)
    n_clusters_probed: int = 0  # IVF coarse cells scanned (0 = non-IVF)
    # Decoded pair identities, aligned with pair_indices.  Filled by the
    # serving index layer (repro.serving.index), or by the bounded scan,
    # which reads them off its rows and columns, so a cached or stale
    # answer never has to keep its PairSpace alive to be decoded.
    event_ids: np.ndarray | None = None
    partner_ids: np.ndarray | None = None

    def pairs(self, space: PairSpace) -> list[tuple[int, int, float]]:
        """Decode to ``(event_id, partner_id, score)`` triples."""
        events, partners = space.decode(self.pair_indices)
        return list(
            zip(events.tolist(), partners.tolist(), self.scores.tolist(), strict=True)
        )


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Per column of ``values``, each entry's dense rank by descending value.

    The largest value ranks 0 and equal values (``-0.0 == 0.0``) share a
    rank, so ranks order and tie exactly as the values do.  ``int16`` while
    every column has at most ``2^15`` distinct values (what a stable sort
    radix-sorts), else ``int32``.  Values are finite.
    """
    ranks = np.empty(values.shape, dtype=np.int32)
    # replint: allow-loop(K factor columns, not rows)
    for j, column in enumerate(values.T):
        ranks[:, j] = np.unique(-column, return_inverse=True)[1]
    if ranks.size == 0 or ranks.max() <= np.iinfo(np.int16).max:
        return ranks.astype(np.int16)
    return ranks


def _sorted_lists(space: PairSpace, start: int = 0) -> np.ndarray:
    """``argsort(-space.dense_rows(start), axis=0, kind="stable")``, sorted
    by rank keys instead of floats.

    An ``x`` column's value is a function of the pair's event row, a
    ``u'`` column's of its partner row: each is sorted by the dense rank
    of that row's factor (:func:`_dense_ranks` over *all* of ``space``'s
    rows, so an appended block's keys agree with the old ones) — small
    integers, a radix sort — and the ties a stable sort keeps in pair
    order are the ties of the values.  Only the interaction column, one
    value per pair, is sorted as floats.
    """
    k = space.embedding_dim
    lists = np.empty((space.n_pairs - start, space.dim), dtype=np.intp)
    events, partners = space.pair_rows(slice(start, None))
    # replint: allow-loop(two factor sides, each sorted column by column)
    for factors, index, columns in (
        (space.event_factors, events, slice(0, k)),
        (space.partner_factors, partners, slice(k, 2 * k)),
    ):
        # (K, m) keys: each column's sort reads and writes contiguous rows.
        keys = _dense_ranks(factors).T[:, index]
        lists[:, columns] = np.argsort(keys, axis=1, kind="stable").T
    lists[:, 2 * k] = np.argsort(-space.interaction[start:], kind="stable")
    return lists


class ThresholdAlgorithmIndex:
    """Offline index: per-dimension descending-order candidate lists.

    The only holder of the dense ``(n_pairs, 2K+1)`` points: sorted and
    random access both read them, and scores are ``points @ q`` — equal
    to the factored scan's up to summation-order rounding.
    """

    def __init__(self, space: PairSpace) -> None:
        self.space = space
        self.points = space.points
        # (n_pairs, dim): column f lists candidate indices by value desc.
        self.sorted_lists = _sorted_lists(space)

    @property
    def n_candidates(self) -> int:
        return self.space.n_pairs

    def memory_bytes(self) -> int:
        """Resident bytes: the space, its dense points, the sorted lists."""
        return int(
            self.space.nbytes + self.points.nbytes + self.sorted_lists.nbytes
        )

    def extend(self, space: PairSpace, n_old: int) -> "ThresholdAlgorithmIndex":
        """A new index: this one plus rows ``[n_old:]`` of ``space``.

        ``space`` must contain this index's current candidates, unchanged
        and in order, as its first ``n_old`` rows.  The per-dimension
        sorted lists are *merged* — the new block is sorted on its own
        (:func:`_sorted_lists`, rank keys from the extended space's factor
        rows) and spliced into the existing lists
        with a stable two-way merge (O((n+m)) via ``searchsorted``) —
        instead of re-sorting the whole space, which is what makes a
        fold-in refresh cheaper than a cold rebuild.  The dense points are
        re-concatenated: one more O(n · dim) copy beside the O(n · dim)
        merge, accepted rather than keeping append buffers for TA alone.
        This index is left untouched for the readers still holding it.
        """
        n_new = self.space.n_appended(space, n_old)
        grown = copy.copy(self)
        grown.space = space
        if n_new == 0:
            return grown
        points = np.concatenate([self.points, space.dense_rows(n_old)])
        old_lists = self.sorted_lists
        new_lists = _sorted_lists(space, n_old) + n_old
        merged = np.empty((space.n_pairs, space.dim), dtype=np.int64)
        # replint: allow-loop(per-dimension merge; dim = 2K+1, not n_pairs)
        for f in range(space.dim):
            a = old_lists[:, f]
            b = new_lists[:, f]
            av = -points[a, f]  # ascending views of the descending lists
            bv = -points[b, f]
            # Stable merge: old entries precede equal-valued new ones.
            pos_b = np.searchsorted(av, bv, side="right") + np.arange(n_new)
            pos_a = np.searchsorted(bv, av, side="left") + np.arange(n_old)
            merged[pos_a, f] = a
            merged[pos_b, f] = b
        grown.points = points
        grown.sorted_lists = merged
        return grown

    # ------------------------------------------------------------------
    @check_shapes("(M,)", nonneg=["q"])
    def query(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude: int | None = None,
        budget_s: float | None = None,
        chunk: int = 64,
    ) -> RetrievalResult:
        """Exact top-n retrieval for an extended query (Fagin's TA).

        Sorted access is *greedily scheduled*: each round advances the list
        whose frontier contributes most to the threshold (``q_f · z_f``),
        by ``chunk`` positions.  This is the standard TA refinement — the
        threshold :math:`T = \\sum_f q_f z_f` stays a valid upper bound on
        every unseen candidate regardless of how accesses are interleaved,
        so exactness is preserved while skewed dimensions (the common case
        for ReLU-sparse embeddings) are drained first.

        ``exclude`` removes the querying user from the candidate partners
        (one cannot be one's own partner).

        ``budget_s`` bounds the scan's wall-clock: the deadline is
        checked once per round (every ``chunk`` sorted accesses), and on
        expiry the best-so-far heap is returned immediately with
        ``exact=False`` — the deadline-aware serving path's in-rung
        early exit.  ``None`` (the default) preserves the exact
        run-to-threshold behaviour.
        """
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        deadline = (
            time.perf_counter() + budget_s if budget_s is not None else None
        )
        space = self.space
        q = space.checked_query(q, n)

        active_dims = np.flatnonzero(q > 0.0)
        n_cand = space.n_pairs
        if n_cand == 0:
            return RetrievalResult(
                pair_indices=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
                n_examined=0,
                n_sorted_accesses=0,
                fraction_examined=0.0,
            )
        if active_dims.size == 0:
            # Degenerate query (no positive weight anywhere, e.g. an
            # all-zero vector): every candidate scores q·p identically, so
            # any eligible prefix is an exact top-n — matching what the
            # brute-force oracle returns for the same tie.
            eligible = (
                np.flatnonzero(space.partner_ids != exclude)
                if exclude is not None
                else np.arange(n_cand, dtype=np.int64)
            )
            take = eligible[: min(n, eligible.size)].astype(np.int64)
            return RetrievalResult(
                pair_indices=take,
                scores=self.points[take] @ q,
                n_examined=int(take.size),
                n_sorted_accesses=0,
                fraction_examined=take.size / n_cand,
            )

        points = self.points
        lists = self.sorted_lists
        excluded_mask = (
            (space.candidate_partners == exclude)[space.pair_rows(slice(None))[1]]
            if exclude is not None
            else None
        )

        D = active_dims.size
        depths = np.zeros(D, dtype=np.int64)
        qa = q[active_dims]
        # Frontier values start at each list's maximum (depth 0 not yet
        # consumed): z_f = value of the first entry.
        frontier = np.array(
            [points[lists[0, f], f] for f in active_dims], dtype=np.float64
        )
        contrib = qa * frontier  # q_f * z_f per active list

        # Min-heap of (score, -candidate): the weakest entry under the
        # canonical total order "descending score, ascending pair index"
        # sits at heap[0] (equal scores -> the *largest* index is weakest),
        # so boundary ties resolve identically to the brute-force oracle
        # and to per-shard indices merged by global index — bit-exact
        # tie-breaking everywhere, not just when scores are distinct.
        heap: list[tuple[float, int]] = []
        seen = np.zeros(n_cand, dtype=bool)
        n_examined = 0
        n_sorted = 0
        exact = True

        # replint: allow-loop(TA rounds are sequential; threshold depends on prior round)
        while True:
            threshold = float(contrib.sum())
            # Strict inequality: at heap-min == threshold an unseen
            # candidate could still tie the boundary score with a smaller
            # pair index, which the canonical order must prefer — one more
            # round resolves it (unseen scores are then < the heap min).
            if len(heap) >= n and heap[0][0] > threshold:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                exact = False
                break
            t = int(np.argmax(contrib))
            if depths[t] >= n_cand:
                # List exhausted; its contribution is zero from here on.
                contrib[t] = 0.0
                if not np.any(contrib > 0.0):
                    break
                continue
            f = int(active_dims[t])
            stop = min(depths[t] + chunk, n_cand)
            window = lists[depths[t] : stop, f]
            n_sorted += window.shape[0]
            fresh = window[~seen[window]]
            if fresh.size:
                seen[fresh] = True
                if excluded_mask is not None:
                    fresh = fresh[~excluded_mask[fresh]]
            if fresh.size:
                n_examined += int(fresh.size)
                scores = points[fresh] @ q  # random access, vectorised
                # replint: allow-loop(bounded heap maintenance, <= chunk items)
                for cand, score in zip(fresh.tolist(), scores.tolist(), strict=True):
                    entry = (score, -cand)
                    if len(heap) < n:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
            depths[t] = stop
            if stop < n_cand:
                frontier[t] = points[lists[stop, f], f]
                contrib[t] = qa[t] * frontier[t]
            else:
                contrib[t] = 0.0
                if not np.any(contrib > 0.0) and len(heap) >= min(n, n_cand):
                    break

        top = sorted(heap, key=lambda sc: (-sc[0], -sc[1]))
        return RetrievalResult(
            pair_indices=np.array([-c for _, c in top], dtype=np.int64),
            scores=np.array([s for s, _ in top], dtype=np.float64),
            n_examined=n_examined,
            n_sorted_accesses=n_sorted,
            fraction_examined=n_examined / n_cand,
            exact=exact,
        )
