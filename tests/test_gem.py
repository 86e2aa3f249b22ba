"""Tests for the GEM facade."""

import numpy as np
import pytest

from repro.core.gem import GEM
from repro.core.scoring import triple_score_matrix, triple_scores
from repro.core.trainer import TrainerConfig


@pytest.fixture(scope="module")
def fitted_gem(tiny_bundle):
    return GEM.gem_a(dim=8, n_samples=20_000, seed=5).fit(tiny_bundle)


class TestConstruction:
    def test_variant_labels(self):
        assert GEM.gem_a().variant == "GEM-A"
        assert GEM.gem_p().variant == "GEM-P"
        assert GEM.pte().variant == "PTE"

    def test_decay_horizon_defaults_to_budget(self):
        model = GEM.gem_a(n_samples=12345)
        assert model.config.decay_horizon == 12345

    def test_explicit_decay_horizon_kept(self):
        model = GEM.gem_a(n_samples=100, decay_horizon=999)
        assert model.config.decay_horizon == 999

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            GEM(n_samples=-1)

    def test_unfitted_access_raises(self):
        model = GEM.gem_a()
        with pytest.raises(RuntimeError):
            _ = model.user_vectors
        with pytest.raises(RuntimeError):
            model.score_user_event(0, np.array([0]))


class TestFitAndScore:
    def test_fit_returns_self_and_sets_vectors(self, tiny_bundle):
        model = GEM.gem_a(dim=8, n_samples=2000, seed=5)
        assert model.fit(tiny_bundle) is model
        assert model.user_vectors.shape[1] == 8
        assert model.event_vectors.shape[1] == 8

    def test_incremental_fit_continues(self, tiny_bundle):
        model = GEM.gem_a(dim=8, n_samples=3000, seed=5)
        model.fit(tiny_bundle, n_samples=1000)
        assert model.trainer.steps_done == 1000
        model.fit(tiny_bundle, n_samples=500)
        assert model.trainer.steps_done == 1500

    def test_score_user_event_is_dot_product(self, fitted_gem):
        events = np.array([0, 1, 2])
        scores = fitted_gem.score_user_event(3, events)
        expected = (
            fitted_gem.event_vectors[events].astype(np.float64)
            @ fitted_gem.user_vectors[3].astype(np.float64)
        )
        np.testing.assert_allclose(scores, expected)

    def test_score_user_user_symmetric(self, fitted_gem):
        a = fitted_gem.score_user_user(1, np.array([2]))[0]
        b = fitted_gem.score_user_user(2, np.array([1]))[0]
        assert a == pytest.approx(b)

    def test_score_triples_matches_eqn8(self, fitted_gem):
        partners = np.array([1, 2, 4])
        events = np.array([0, 3, 5])
        scores = fitted_gem.score_triples(0, partners, events)
        U = fitted_gem.user_vectors.astype(np.float64)
        X = fitted_gem.event_vectors.astype(np.float64)
        expected = [
            U[0] @ X[x] + U[p] @ X[x] + U[0] @ U[p]
            for p, x in zip(partners, events)
        ]
        np.testing.assert_allclose(scores, expected, rtol=1e-6)

    def test_score_aligned_matches_per_user_calls(self, fitted_gem):
        users = np.array([0, 1, 0, 2])
        events = np.array([3, 4, 5, 6])
        aligned = fitted_gem.score_user_event_aligned(users, events)
        for t in range(users.size):
            single = fitted_gem.score_user_event(
                int(users[t]), np.array([events[t]])
            )[0]
            assert aligned[t] == pytest.approx(single)

    def test_score_all_pairs_matches_triples(self, fitted_gem):
        partners = np.array([1, 2])
        events = np.array([0, 3, 5])
        matrix = fitted_gem.score_all_pairs(0, partners, events)
        assert matrix.shape == (2, 3)
        for pi, p in enumerate(partners):
            for xi, x in enumerate(events):
                one = fitted_gem.score_triples(0, np.array([p]), np.array([x]))[0]
                assert matrix[pi, xi] == pytest.approx(one)

    def test_mismatched_triple_arrays_rejected(self, fitted_gem):
        with pytest.raises(ValueError):
            fitted_gem.score_triples(0, np.array([1]), np.array([1, 2]))


class TestPersistence:
    def test_save_load_round_trip(self, fitted_gem, tmp_path):
        path = fitted_gem.save(tmp_path / "gem")
        restored = GEM.load(path)
        for etype, matrix in fitted_gem.embeddings.matrices.items():
            loaded = restored.embeddings.of(etype)
            np.testing.assert_array_equal(loaded, matrix)
            # A private in-memory copy, not a view of the store's files.
            assert type(loaded) is np.ndarray and loaded.flags.writeable

    def test_loaded_model_scores_identically(self, fitted_gem, tmp_path):
        path = fitted_gem.save(tmp_path / "gem")
        restored = GEM.load(path)
        events = np.arange(5)
        np.testing.assert_array_equal(
            restored.score_user_event(0, events),
            fitted_gem.score_user_event(0, events),
        )

    def test_from_embeddings_adopts_dim(self, fitted_gem):
        clone = GEM.from_embeddings(fitted_gem.embeddings)
        assert clone.config.dim == fitted_gem.config.dim


class TestScoringHelpers:
    def test_triple_scores_shape_validation(self, rng):
        with pytest.raises(ValueError):
            triple_scores(rng.normal(size=4), rng.normal(size=(2, 4)), rng.normal(size=(3, 4)))

    def test_matrix_equals_aligned_cross_product(self, rng):
        u = rng.normal(size=5)
        partners = rng.normal(size=(3, 5))
        events = rng.normal(size=(4, 5))
        matrix = triple_score_matrix(u, partners, events)
        for p in range(3):
            for x in range(4):
                aligned = triple_scores(
                    u, partners[p : p + 1], events[x : x + 1]
                )[0]
                assert matrix[p, x] == pytest.approx(aligned)
