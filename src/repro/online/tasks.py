"""Task-level recommendation APIs beyond the joint task.

The paper notes (Section VI-B) that the existing EBSN recommendation
paradigms are special cases once GEM's shared space is learned: "our
developed GEM model can be applied to all existing recommendation
problems on EBSNs".  This module provides those projections of the joint
scorer:

* :func:`recommend_events` — classic (cold-start-capable) event
  recommendation for a user;
* :func:`recommend_partners` — activity-partner recommendation (CFAPR's
  task): user and event given, rank companions by ``u'·x + u·u'``;
* :func:`recommend_participants` — participant recommendation (Jiang &
  Li's task): event given, rank users by ``u·x``.

The joint task itself is served by
:class:`repro.serving.engine.ServingEngine`.
"""

from __future__ import annotations

import numpy as np


def _top_n(ids: np.ndarray, scores: np.ndarray, n: int) -> list[tuple[int, float]]:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = min(n, scores.shape[0])
    if k == 0:
        return []
    top = np.argpartition(-scores, k - 1)[:k]
    order = top[np.lexsort((ids[top], -scores[top]))]
    return [(int(ids[i]), float(scores[i])) for i in order]


def recommend_events(
    user_vectors: np.ndarray,
    event_vectors: np.ndarray,
    user: int,
    candidate_events: np.ndarray,
    n: int = 10,
) -> list[tuple[int, float]]:
    """Top-n events for ``user`` by the GEM preference ``u·x``."""
    candidate_events = np.asarray(candidate_events, dtype=np.int64)
    scores = (
        event_vectors[candidate_events].astype(np.float64)
        @ user_vectors[user].astype(np.float64)
    )
    return _top_n(candidate_events, scores, n)


def recommend_partners(
    user_vectors: np.ndarray,
    event_vectors: np.ndarray,
    user: int,
    event: int,
    n: int = 10,
    *,
    candidate_partners: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Activity-partner recommendation: both user and event fixed.

    Scores candidates by ``u'·x + u·u'`` — the two terms of Eqn 8 that
    involve the partner (the ``u·x`` term is constant for fixed inputs).
    The querying user is never her own partner.
    """
    if candidate_partners is None:
        candidate_partners = np.arange(user_vectors.shape[0], dtype=np.int64)
    candidate_partners = np.asarray(candidate_partners, dtype=np.int64)
    candidate_partners = candidate_partners[candidate_partners != user]
    partners = user_vectors[candidate_partners].astype(np.float64)
    scores = partners @ event_vectors[event].astype(np.float64)
    scores += partners @ user_vectors[user].astype(np.float64)
    return _top_n(candidate_partners, scores, n)


def recommend_participants(
    user_vectors: np.ndarray,
    event_vectors: np.ndarray,
    event: int,
    n: int = 10,
    *,
    candidate_users: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Participant recommendation: who should be invited to ``event``."""
    if candidate_users is None:
        candidate_users = np.arange(user_vectors.shape[0], dtype=np.int64)
    candidate_users = np.asarray(candidate_users, dtype=np.int64)
    scores = (
        user_vectors[candidate_users].astype(np.float64)
        @ event_vectors[event].astype(np.float64)
    )
    return _top_n(candidate_users, scores, n)
