"""Cross-module property-based tests (hypothesis).

These pin the invariants the system's correctness rests on:

* the space transformation is an exact reformulation of Eqn 8;
* TA retrieval equals brute force on arbitrary inputs;
* pruning keeps exactly the per-partner argmax events;
* the trainer's ReLU projection and the samplers' candidate restriction
  hold under arbitrary seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samplers import sample_truncated_geometric
from repro.core.scoring import triple_score_matrix
from repro.online import (
    BruteForceIndex,
    ThresholdAlgorithmIndex,
    build_pruned_pair_space,
    query_vector,
    transform_all_pairs,
)

seeds = st.integers(min_value=0, max_value=10_000)


def _vectors(seed, max_items=12, max_dim=5, nonnegative=True):
    rng = np.random.default_rng(seed)
    n_events = int(rng.integers(1, max_items))
    n_partners = int(rng.integers(1, max_items))
    k = int(rng.integers(1, max_dim))
    E = rng.normal(0.3, 0.4, (n_events, k))
    U = rng.normal(0.3, 0.4, (n_partners, k))
    if nonnegative:
        E, U = np.abs(E), np.abs(U)
        E[rng.random(E.shape) < 0.3] = 0.0
        U[rng.random(U.shape) < 0.3] = 0.0
    return E, U, rng


class TestTransformIdentity:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_inner_product_is_eqn8_everywhere(self, seed):
        E, U, rng = _vectors(seed, nonnegative=False)
        space = transform_all_pairs(E, U)
        u = rng.normal(size=E.shape[1])
        scores = space.points @ query_vector(u)
        oracle = triple_score_matrix(u, U, E)
        for idx in range(space.n_pairs):
            x_id, p_id = space.pair(idx)
            assert np.isclose(scores[idx], oracle[p_id, x_id], rtol=1e-9)


class TestTAEqualsBruteForce:
    @given(seeds, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_top_n_scores_identical(self, seed, n):
        E, U, rng = _vectors(seed)
        space = transform_all_pairs(E, U)
        user_vec = np.abs(rng.normal(0.3, 0.4, E.shape[1]))
        q = query_vector(user_vec)
        rt = ThresholdAlgorithmIndex(space).query(q, n)
        rb = BruteForceIndex(space).query(q, n)
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9, atol=1e-12
        )

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_exclusion_respected(self, seed):
        E, U, _rng = _vectors(seed)
        if U.shape[0] < 2:
            return
        space = transform_all_pairs(E, U)
        result = ThresholdAlgorithmIndex(space).query(
            query_vector(U[0]), 5, exclude=0
        )
        assert all(space.partner_ids[i] != 0 for i in result.pair_indices)


class TestPruningInvariant:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_pruned_space_contains_partner_optima(self, seed):
        E, U, rng = _vectors(seed)
        k = int(rng.integers(1, E.shape[0] + 1))
        space = build_pruned_pair_space(E, U, k)
        scores = U @ E.T
        kept = {
            (int(p), int(x))
            for p, x in zip(space.partner_ids, space.event_ids)
        }
        for p in range(U.shape[0]):
            best_event = int(np.argmax(scores[p]))
            best_score = scores[p, best_event]
            # The partner's argmax event (or a tie of it) must survive.
            assert any(
                (p, x) in kept and np.isclose(scores[p, x], best_score)
                for x in range(E.shape[0])
            ) or (p, best_event) in kept


class TestGeometricLawInvariants:
    @given(
        seeds,
        st.floats(min_value=0.2, max_value=5000.0),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_support_and_monotonicity(self, seed, lam, n):
        rng = np.random.default_rng(seed)
        out = sample_truncated_geometric(rng, lam, n, 256)
        assert out.min() >= 0 and out.max() < n
        if n >= 10 and lam <= n / 4:
            # Enough concentration to check the head beats the tail.
            head = (out < n // 4).mean()
            tail = (out >= 3 * n // 4).mean()
            assert head >= tail
