"""Search-space pruning: top-k events per partner (Section IV).

Indexing every event-partner combination for TA costs
O(|users| · |events| · (2K+1)); the paper prunes it by keeping, for each
candidate partner ``u'``, only her top-k preferred events — "the user u'
will tend to refuse an invitation to attend her uninterested event x" —
shrinking the candidate set to O(|users| · k).  Fig 7 studies the
time/accuracy trade-off as k sweeps 1%-10% of the events.
"""

from __future__ import annotations

import numpy as np

from repro.online.transform import PairSpace, transform_pairs

#: Partner rows scored per chunk in :func:`top_k_events_per_partner` —
#: bounds the transient ``(chunk, n_events)`` score matrix so
#: million-partner pruned builds never materialise the full
#: partners-by-events product (each row's top-k is independent, so
#: chunking leaves the result bit-identical).
_PRUNE_CHUNK_ROWS = 65_536


def _top_k_rows(scores: np.ndarray, k: int, n_events: int) -> np.ndarray:
    """Per-row top-k column indices, descending score, stable ties."""
    if k == n_events:
        return np.argsort(-scores, axis=1, kind="stable")
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    row_scores = np.take_along_axis(scores, part, axis=1)
    order = np.argsort(-row_scores, axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1)


def top_k_events_per_partner(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """For each partner, the indices of her k highest-scoring events.

    Returns aligned ``(partner_rows, event_cols)`` index arrays of length
    ``n_partners * k`` (ordering: partner-major, events by descending
    preference within a partner).  Scoring is chunked over partner rows
    so only a ``(chunk, n_events)`` block is ever resident — the path
    million-user candidate sets build through.
    """
    event_vectors = np.asarray(event_vectors, dtype=np.float64)
    n_events = event_vectors.shape[0]
    n_partners = int(np.shape(partner_vectors)[0])
    if not 1 <= k <= n_events:
        raise ValueError(f"k must be in [1, {n_events}], got {k}")

    top = np.empty((n_partners, k), dtype=np.int64)
    # replint: allow-loop(chunked scoring bounds the transient matrix; rows independent)
    for lo in range(0, n_partners, _PRUNE_CHUNK_ROWS):
        hi = min(lo + _PRUNE_CHUNK_ROWS, n_partners)
        block = np.asarray(partner_vectors[lo:hi], dtype=np.float64)
        scores = block @ event_vectors.T  # (chunk, n_events)
        top[lo:hi] = _top_k_rows(scores, k, n_events)[:, :k]
    partner_rows = np.repeat(np.arange(n_partners, dtype=np.int64), k)
    event_cols = top.reshape(-1)
    return partner_rows, event_cols


def build_pruned_pair_space(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    k: int,
    *,
    event_ids: np.ndarray | None = None,
    partner_ids: np.ndarray | None = None,
) -> PairSpace:
    """Prune to top-k events per partner, then transform (offline path).

    ``event_ids``/``partner_ids`` translate the row positions of the
    vector matrices into global entity ids (defaults: positions).

    ``partner_vectors`` is scored in chunks and widened to float64 once,
    as the space's ``(n_partners, K)`` factor rows — a million-row
    ``np.memmap`` slice never becomes a per-pair matrix.
    """
    rows, cols = top_k_events_per_partner(event_vectors, partner_vectors, k)
    return transform_pairs(
        event_vectors,
        partner_vectors,
        event_index=cols,
        partner_index=rows,
        event_ids=event_ids,
        partner_ids=partner_ids,
    )
