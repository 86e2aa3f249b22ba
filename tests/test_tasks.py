"""Tests for the task-level recommendation APIs."""

import numpy as np
import pytest

from repro.online.tasks import (
    recommend_events,
    recommend_participants,
    recommend_partners,
)


@pytest.fixture()
def vectors(rng):
    U = np.abs(rng.normal(0.3, 0.3, (20, 6)))
    E = np.abs(rng.normal(0.3, 0.3, (12, 6)))
    return U, E


class TestRecommendEvents:
    def test_returns_sorted_top_n(self, vectors):
        U, E = vectors
        out = recommend_events(U, E, 0, np.arange(12), n=5)
        assert len(out) == 5
        scores = [s for _, s in out]
        assert scores == sorted(scores, reverse=True)
        best_event = max(range(12), key=lambda x: U[0] @ E[x])
        assert out[0][0] == best_event

    def test_candidate_subset_respected(self, vectors):
        U, E = vectors
        out = recommend_events(U, E, 0, np.array([2, 5, 7]), n=10)
        assert {e for e, _ in out} <= {2, 5, 7}

    def test_invalid_n(self, vectors):
        U, E = vectors
        with pytest.raises(ValueError):
            recommend_events(U, E, 0, np.arange(3), n=0)


class TestRecommendPartners:
    def test_never_self(self, vectors):
        U, E = vectors
        out = recommend_partners(U, E, 4, 0, n=20)
        assert all(p != 4 for p, _ in out)

    def test_score_is_partner_terms_of_eqn8(self, vectors):
        U, E = vectors
        out = recommend_partners(U, E, 0, 3, n=3)
        for p, s in out:
            expected = U[p] @ E[3] + U[p] @ U[0]
            assert s == pytest.approx(expected)

    def test_candidate_restriction(self, vectors):
        U, E = vectors
        out = recommend_partners(
            U, E, 0, 3, n=10, candidate_partners=np.array([1, 2, 3])
        )
        assert {p for p, _ in out} <= {1, 2, 3}


class TestRecommendParticipants:
    def test_ranks_users_by_event_affinity(self, vectors):
        U, E = vectors
        out = recommend_participants(U, E, 5, n=4)
        best_user = max(range(20), key=lambda u: U[u] @ E[5])
        assert out[0][0] == best_user

    def test_candidate_subset(self, vectors):
        U, E = vectors
        out = recommend_participants(U, E, 5, n=10, candidate_users=np.array([0, 9]))
        assert {u for u, _ in out} == {0, 9}
