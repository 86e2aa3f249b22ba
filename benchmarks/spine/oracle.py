"""Independent Eqn-8 oracle and answer checks.

The oracle never touches ``PairSpace`` or any index: it scores every
(partner, event) pair for a user from first principles,

    a = X u        (u . x  per event)
    b = U' u       (u . u' per partner)
    C = U' X^T     (u' . x per pair, query independent)
    score[u', x] = a[x] + b[u'] + C[u', x]      with  u' != u,

so it survives a change of representation inside the program (ROADMAP
items 2-3).  Summation order differs from the program's single
``points @ q`` product, hence the 1e-9 tolerance; ties are accepted.
"""

from __future__ import annotations

import numpy as np

SCORE_TOL = 1e-9


class Oracle:
    """Exact Eqn-8 scores over ``users x events`` (all users are partners)."""

    def __init__(self, users: np.ndarray, events: np.ndarray) -> None:
        self.users = np.asarray(users, dtype=np.float64)
        self.events = np.asarray(events, dtype=np.float64)
        self.cross = self.users @ self.events.T  # C[u', x]

    def score(self, user: int, partner: int, event: int) -> float:
        """Eqn 8 for one triple."""
        u, other, x = self.users[user], self.users[partner], self.events[event]
        return float(u @ x + u @ other + other @ x)

    def scores(self, user: int) -> np.ndarray:
        """``(n_partners, n_events)`` scores; the user's own row is -inf."""
        u = self.users[user]
        out = self.cross + (self.events @ u)[None, :] + (self.users @ u)[:, None]
        out[user, :] = -np.inf
        return out

    def is_exact(self, user: int, recs: list, n: int) -> bool:
        """Whether ``recs`` is *a* correct top-``n`` for ``user``.

        Every served pair must carry its true score, no pair may repeat
        or name the user as their own partner, and the served scores must
        equal the oracle's top-``n`` scores — which accepts any order
        among tied pairs.
        """
        if len(recs) != n or len({(r.event, r.partner) for r in recs}) != n:
            return False
        scores = self.scores(user)
        served = np.array([r.score for r in recs], dtype=np.float64)
        truth = np.array(
            [scores[r.partner, r.event] for r in recs], dtype=np.float64
        )
        if not np.all(np.isfinite(truth)):
            return False
        return bool(
            np.all(np.abs(served - truth) <= SCORE_TOL)
            and np.all(np.abs(np.sort(served)[::-1] - _top(scores, n)) <= SCORE_TOL)
        )

    def recall(self, user: int, recs: list, n: int) -> float:
        """Share of the true top-``n`` that ``recs`` found (ties accepted)."""
        scores = self.scores(user)
        threshold = _top(scores, n)[-1] - SCORE_TOL
        pairs = {(r.event, r.partner) for r in recs}
        hits = sum(
            1
            for event, partner in pairs
            if partner != user and scores[partner, event] >= threshold
        )
        return min(hits, n) / n


def _top(scores: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` best entries of a score matrix, descending."""
    flat = scores.ravel()
    return np.sort(np.partition(flat, flat.size - n)[flat.size - n :])[::-1]


def sample_triples(seed: int, n_users: int, n_events: int, count: int) -> np.ndarray:
    """``count`` seeded ``(u, u', x)`` triples with ``u != u'``."""
    rng = np.random.default_rng([seed, 6])
    u = rng.integers(0, n_users, size=count)
    other = (u + rng.integers(1, n_users, size=count)) % n_users
    x = rng.integers(0, n_events, size=count)
    return np.column_stack([u, other, x]).astype(np.int64)
