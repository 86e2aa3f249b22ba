"""Brute-force online recommendation (the paper's GEM-BF / naive method).

Scores every candidate event-partner pair against the query and takes the
top-n — one factored pass (:func:`repro.online.transform.factored_scores`),
O(|candidates|) per query.  This is both the efficiency baseline of
Table VI and the correctness oracle every other retrieval path is tested
against; :func:`top_n` is the one canonical selection they all share.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.contracts import check_shapes
from repro.online.ta import RetrievalResult
from repro.online.transform import PairSpace


def top_n(
    scores: np.ndarray, n: int, pair_index: np.ndarray | None = None
) -> np.ndarray:
    """Positions of the canonical top-``n`` of ``scores``, best first.

    Canonical order: descending score, then ascending pair index
    (``pair_index[position]`` when the scored rows are a reordered subset,
    else the position itself).  Every candidate tied at the n-th score
    takes part in the sort, so the smallest-index ties win — which keeps
    single-index, TA, IVF and sharded-merge results bit-identical under
    ties.  Non-finite scores (excluded pairs) are never returned.
    """
    total = scores.shape[0]
    k = min(n, total)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # The k-th best score; clamped so that fewer than k eligible
    # candidates select exactly the finite ones.
    boundary = max(
        np.partition(scores, total - k)[total - k], np.finfo(np.float64).min
    )
    top = np.flatnonzero(scores >= boundary)
    keys = top if pair_index is None else pair_index[top]
    order = top[np.lexsort((keys, -scores[top]))][:k]
    return order[np.isfinite(scores[order])]


def _selected(
    space: PairSpace, scores: np.ndarray, n: int, start: int = 0
) -> RetrievalResult:
    """The canonical top-``n`` of the scored pairs ``[start:start + m]`` of
    ``space`` as a result."""
    order = top_n(scores, n)
    m = scores.shape[0]
    return RetrievalResult(
        pair_indices=order + start if start else order,
        scores=scores[order],
        n_examined=m,
        n_sorted_accesses=0,
        fraction_examined=m / max(space.n_pairs, 1),
        exact=m == space.n_pairs,
        n_events=space.candidate_events.size,
    )


def scan_top_n(
    space: PairSpace,
    q: np.ndarray,
    n: int,
    *,
    exclude_partner: int | None = None,
    start: int = 0,
    stop: int | None = None,
) -> RetrievalResult:
    """Exact top-``n`` of pairs ``[start:stop]`` of ``space`` (default: all)."""
    scores = space.scores(
        q, exclude_partner=exclude_partner, start=start, stop=stop
    )
    return _selected(space, scores, n, start)


def scan_top_n_batch(
    space: PairSpace, queries: np.ndarray, n: int, excludes: Sequence[int | None]
) -> list[RetrievalResult]:
    """:func:`scan_top_n` per row of ``queries`` over one shared scoring pass."""
    scores = space.scores_batch(queries, excludes)
    return [_selected(space, row, n) for row in scores]


class BruteForceIndex:
    """Full-scan retrieval over a pair space (GEM-BF).

    The surface the three index classes share, which
    :class:`repro.serving.index.CandidateIndex` serves its rungs through:
    ``query(q, n, *, exclude=None, budget_s=None)`` over the *extended*
    query :math:`\\vec q_u` (build it with
    :func:`~repro.online.transform.query_vector`), ``extend(space,
    n_old)`` and ``memory_bytes()``.  An index is immutable: ``extend``
    returns a new one and leaves this one untouched, so any number of
    threads may query it while a writer grows its successor.
    """

    def __init__(self, space: PairSpace) -> None:
        self.space = space

    @property
    def n_candidates(self) -> int:
        return self.space.n_pairs

    def memory_bytes(self) -> int:
        """Resident bytes: the factored pair space, nothing derived."""
        return self.space.nbytes

    def extend(self, space: PairSpace, n_old: int) -> "BruteForceIndex":
        """A new index over ``space``, whose pairs ``[n_old:]`` are appended
        (no derived state to carry over)."""
        self.space.n_appended(space, n_old)
        return BruteForceIndex(space)

    @check_shapes("(M,)")
    def query(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude: int | None = None,
        budget_s: float | None = None,
    ) -> RetrievalResult:
        """Exact top-n by scoring all candidates.

        ``exclude`` removes that partner's pairs (one cannot be one's own
        partner).  ``budget_s`` is ignored: the scan is one pass with no
        useful interruption point.
        """
        q = self.space.checked_query(q, n)
        return scan_top_n(self.space, q, n, exclude_partner=exclude)

    def query_batch(
        self, queries: np.ndarray, n: int, excludes: np.ndarray
    ) -> list[RetrievalResult]:
        """:meth:`query` per row of ``queries`` over one shared scoring pass."""
        return scan_top_n_batch(self.space, queries, n, excludes.tolist())
