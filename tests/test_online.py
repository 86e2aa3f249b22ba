"""Tests for the online recommendation engine (Section IV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import (
    BruteForceIndex,
    ThresholdAlgorithmIndex,
    build_pruned_pair_space,
    query_vector,
    top_k_events_per_partner,
    transform_all_pairs,
    transform_pairs,
)
from repro.serving import ServingEngine


def random_vectors(rng, n_events=25, n_partners=40, k=6, sparsity=0.4):
    E = np.abs(rng.normal(0.3, 0.3, (n_events, k)))
    U = np.abs(rng.normal(0.3, 0.3, (n_partners, k)))
    E[rng.random(E.shape) < sparsity] = 0.0
    U[rng.random(U.shape) < sparsity] = 0.0
    return E, U


class TestTransform:
    def test_query_vector_layout(self):
        q = query_vector(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(q, [1.0, 2.0, 1.0, 2.0, 1.0])

    def test_transform_dimension_is_2k_plus_1(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        assert space.dim == 2 * E.shape[1] + 1
        assert space.embedding_dim == E.shape[1]
        assert space.n_pairs == E.shape[0] * U.shape[0]

    def test_inner_product_equals_eqn8(self, rng):
        # The defining identity: q_u . p_xu' == u.x + u'.x + u.u'
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        u = U[7]
        q = query_vector(u)
        scores = space.points @ q
        for t in rng.integers(0, space.n_pairs, size=50):
            x_id, p_id = space.pair(int(t))
            expected = u @ E[x_id] + U[p_id] @ E[x_id] + u @ U[p_id]
            assert scores[t] == pytest.approx(expected, rel=1e-9)

    def test_transform_pairs_alignment_validation(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError):
            transform_pairs(E[:3], U[:2], np.arange(3), np.arange(2))

    def test_pair_decoding(self, rng):
        E, U = random_vectors(rng, n_events=3, n_partners=2)
        space = transform_all_pairs(
            E, U, event_ids=np.array([10, 11, 12]), partner_ids=np.array([7, 8])
        )
        decoded = {space.pair(i) for i in range(space.n_pairs)}
        assert decoded == {(e, p) for e in (10, 11, 12) for p in (7, 8)}


class TestBruteForce:
    def test_returns_descending_scores(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        result = BruteForceIndex(space).query(U[0], 10)
        assert np.all(np.diff(result.scores) <= 1e-12)
        assert result.n_examined == space.n_pairs
        assert result.fraction_examined == 1.0

    def test_exclude_partner(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        result = BruteForceIndex(space).query(U[3], 20, exclude_partner=3)
        for idx in result.pair_indices:
            assert space.partner_ids[idx] != 3

    def test_n_larger_than_candidates(self, rng):
        E, U = random_vectors(rng, n_events=2, n_partners=2)
        space = transform_all_pairs(E, U)
        result = BruteForceIndex(space).query(U[0], 50)
        assert len(result.pair_indices) == space.n_pairs

    def test_rejects_bad_n(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        with pytest.raises(ValueError):
            BruteForceIndex(space).query(U[0], 0)


class TestThresholdAlgorithm:
    def test_exactness_against_brute_force(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        ta = ThresholdAlgorithmIndex(space)
        bf = BruteForceIndex(space)
        for user in range(10):
            rt = ta.query(U[user], 8, exclude_partner=user)
            rb = bf.query(U[user], 8, exclude_partner=user)
            np.testing.assert_allclose(
                np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9
            )

    def test_statistics_bounded(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        result = ThresholdAlgorithmIndex(space).query(U[0], 5)
        assert 0 < result.n_examined <= space.n_pairs
        assert 0.0 < result.fraction_examined <= 1.0
        assert result.n_sorted_accesses >= result.n_examined

    def test_zero_query_returns_empty(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        # A zero user vector still has the constant-1 dimension active, so
        # use a fully zero candidate set instead: all scores tie at 0.
        result = ThresholdAlgorithmIndex(space).query(
            np.zeros(E.shape[1]), 3
        )
        assert len(result.pair_indices) == 3  # constant dim still ranks

    def test_chunk_parameter_validated(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        with pytest.raises(ValueError):
            ThresholdAlgorithmIndex(space).query(U[0], 3, chunk=0)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_property_ta_equals_bf(self, seed):
        rng = np.random.default_rng(seed)
        E, U = random_vectors(
            rng,
            n_events=int(rng.integers(2, 15)),
            n_partners=int(rng.integers(2, 20)),
            k=int(rng.integers(2, 6)),
        )
        space = transform_all_pairs(E, U)
        n = int(rng.integers(1, 8))
        user = int(rng.integers(0, U.shape[0]))
        rt = ThresholdAlgorithmIndex(space).query(U[user], n)
        rb = BruteForceIndex(space).query(U[user], n)
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9, atol=1e-12
        )


class TestTaBruteForceParity:
    """Property-style checks that TA's exact top-n matches the oracle,
    including the degenerate corners a serving layer actually hits."""

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_parity_across_seeds_including_overlong_n(self, seed):
        rng = np.random.default_rng(seed)
        E, U = random_vectors(
            rng,
            n_events=int(rng.integers(1, 12)),
            n_partners=int(rng.integers(2, 15)),
            k=int(rng.integers(2, 6)),
        )
        space = transform_all_pairs(E, U)
        user = int(rng.integers(0, U.shape[0]))
        exclude = user if rng.random() < 0.5 else None
        # Deliberately spans n > n_candidates.
        n = int(rng.integers(1, 2 * space.n_pairs + 2))
        rt = ThresholdAlgorithmIndex(space).query(
            U[user], n, exclude_partner=exclude
        )
        rb = BruteForceIndex(space).query(U[user], n, exclude_partner=exclude)
        assert rt.scores.shape == rb.scores.shape
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9, atol=1e-12
        )
        if exclude is not None:
            assert not np.any(space.partner_ids[rt.pair_indices] == exclude)

    def test_n_exceeding_candidates_returns_everything(self, rng):
        E, U = random_vectors(rng, n_events=3, n_partners=4)
        space = transform_all_pairs(E, U)
        rt = ThresholdAlgorithmIndex(space).query(U[0], 500)
        rb = BruteForceIndex(space).query(U[0], 500)
        assert len(rt.pair_indices) == len(rb.pair_indices) == space.n_pairs
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9
        )

    def test_exclusion_removes_a_top_hit(self, rng):
        E, U = random_vectors(rng, n_events=4, n_partners=6)
        # Make partner 2 dominate: it owns the unexcluded top pair.
        U[2] = 10.0
        space = transform_all_pairs(E, U)
        ta = ThresholdAlgorithmIndex(space)
        bf = BruteForceIndex(space)
        top = ta.query(U[0], 1)
        assert space.partner_ids[top.pair_indices[0]] == 2
        rt = ta.query(U[0], 5, exclude_partner=2)
        rb = bf.query(U[0], 5, exclude_partner=2)
        assert not np.any(space.partner_ids[rt.pair_indices] == 2)
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9
        )

    def test_all_zero_extended_query(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        q = np.zeros(space.dim)
        rt = ThresholdAlgorithmIndex(space).query_extended(
            q, 7, exclude_partner=1
        )
        rb = BruteForceIndex(space).query_extended(q, 7, exclude_partner=1)
        # Every candidate ties at score 0; both must return a full top-7
        # of zero scores, honouring the exclusion.
        assert rt.scores.shape == rb.scores.shape == (7,)
        np.testing.assert_allclose(rt.scores, 0.0)
        np.testing.assert_allclose(rb.scores, 0.0)
        assert not np.any(space.partner_ids[rt.pair_indices] == 1)
        assert not np.any(space.partner_ids[rb.pair_indices] == 1)


class TestPruning:
    def test_top_k_shapes(self, rng):
        E, U = random_vectors(rng)
        rows, cols = top_k_events_per_partner(E, U, 5)
        assert rows.shape == cols.shape == (U.shape[0] * 5,)

    def test_top_k_selects_best_events(self, rng):
        E, U = random_vectors(rng)
        rows, cols = top_k_events_per_partner(E, U, 3)
        scores = U @ E.T
        for p in range(U.shape[0]):
            mine = cols[rows == p]
            worst_kept = scores[p][mine].min()
            dropped = np.setdiff1d(np.arange(E.shape[0]), mine)
            assert np.all(scores[p][dropped] <= worst_kept + 1e-12)

    def test_k_equals_n_events_keeps_everything(self, rng):
        E, U = random_vectors(rng, n_events=6)
        rows, cols = top_k_events_per_partner(E, U, 6)
        for p in range(U.shape[0]):
            assert set(cols[rows == p].tolist()) == set(range(6))

    def test_invalid_k(self, rng):
        E, U = random_vectors(rng, n_events=6)
        with pytest.raises(ValueError):
            top_k_events_per_partner(E, U, 0)
        with pytest.raises(ValueError):
            top_k_events_per_partner(E, U, 7)

    def test_pruned_space_size(self, rng):
        E, U = random_vectors(rng)
        space = build_pruned_pair_space(E, U, 4)
        assert space.n_pairs == U.shape[0] * 4

    def test_pruned_space_respects_global_ids(self, rng):
        E, U = random_vectors(rng, n_events=5)
        event_ids = np.array([100, 101, 102, 103, 104])
        space = build_pruned_pair_space(E, U, 2, event_ids=event_ids)
        assert set(space.event_ids.tolist()) <= set(event_ids.tolist())


class TestRecommender:
    def test_ta_and_bf_agree_end_to_end(self, rng):
        E, U = random_vectors(rng)
        events = np.arange(E.shape[0])
        ta = ServingEngine(U, E, events, backend="ta")
        bf = ServingEngine(U, E, events, backend="bruteforce")
        for user in (0, 5, 9):
            a = ta.recommend(user, n=6)
            b = bf.recommend(user, n=6)
            assert [r.score for r in a] == pytest.approx(
                [r.score for r in b], rel=1e-9
            )

    def test_never_recommends_self_as_partner(self, rng):
        E, U = random_vectors(rng)
        reco = ServingEngine(U, E, np.arange(E.shape[0]), backend="ta")
        for rec in reco.recommend(4, n=15):
            assert rec.partner != 4

    def test_pruning_shrinks_candidate_pairs(self, rng):
        E, U = random_vectors(rng)
        full = ServingEngine(U, E, np.arange(E.shape[0]))
        pruned = ServingEngine(
            U, E, np.arange(E.shape[0]), top_k_events=3
        )
        assert pruned.n_candidate_pairs == U.shape[0] * 3
        assert pruned.n_candidate_pairs < full.n_candidate_pairs

    def test_candidate_partner_restriction(self, rng):
        E, U = random_vectors(rng)
        partners = np.array([2, 4, 6])
        reco = ServingEngine(
            U, E, np.arange(E.shape[0]), candidate_partners=partners
        )
        for rec in reco.recommend(0, n=10):
            assert rec.partner in {2, 4, 6}

    def test_invalid_method(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError):
            ServingEngine(U, E, np.arange(3), backend="psychic")

    def test_empty_candidate_events_rejected(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError):
            ServingEngine(U, E, np.array([], dtype=np.int64))

    def test_recommendation_scores_match_eqn8(self, rng):
        E, U = random_vectors(rng)
        reco = ServingEngine(U, E, np.arange(E.shape[0]))
        for rec in reco.recommend(3, n=5):
            expected = (
                U[3] @ E[rec.event]
                + U[rec.partner] @ E[rec.event]
                + U[3] @ U[rec.partner]
            )
            assert rec.score == pytest.approx(expected, rel=1e-9)
