"""Tests for the shared embedding store."""

import numpy as np
import pytest

from repro.core.embeddings import EmbeddingSet
from repro.ebsn.graphs import EntityType

COUNTS = {
    EntityType.USER: 10,
    EntityType.EVENT: 7,
    EntityType.LOCATION: 4,
    EntityType.TIME: 33,
    EntityType.WORD: 12,
}


class TestRandomInit:
    def test_shapes_and_dtype(self, rng):
        emb = EmbeddingSet.random(COUNTS, dim=5, rng=rng)
        for etype, count in COUNTS.items():
            assert emb.of(etype).shape == (count, 5)
            assert emb.of(etype).dtype == np.float32
            assert emb.of(etype).flags.c_contiguous

    def test_nonnegative_by_default(self, rng):
        emb = EmbeddingSet.random(COUNTS, dim=4, rng=rng)
        for matrix in emb.matrices.values():
            assert matrix.min() >= 0.0

    def test_signed_init_when_disabled(self, rng):
        emb = EmbeddingSet.random(COUNTS, dim=64, nonnegative=False, rng=rng)
        assert emb.of(EntityType.USER).min() < 0.0

    def test_scale_controls_magnitude(self, rng):
        small = EmbeddingSet.random(COUNTS, dim=32, scale=0.01, rng=np.random.default_rng(0))
        large = EmbeddingSet.random(COUNTS, dim=32, scale=1.0, rng=np.random.default_rng(0))
        assert large.of(EntityType.USER).std() > 10 * small.of(EntityType.USER).std()

    def test_seed_reproducibility(self):
        a = EmbeddingSet.random(COUNTS, dim=3, rng=42)
        b = EmbeddingSet.random(COUNTS, dim=3, rng=42)
        for etype in COUNTS:
            np.testing.assert_array_equal(a.of(etype), b.of(etype))

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            EmbeddingSet.random(COUNTS, dim=0, rng=rng)
        with pytest.raises(ValueError):
            EmbeddingSet.random(COUNTS, dim=2, scale=0.0, rng=rng)
        with pytest.raises(ValueError):
            EmbeddingSet.random({EntityType.USER: -1}, dim=2, rng=rng)


class TestValidation:
    def test_rejects_wrong_dim(self, rng):
        matrices = {EntityType.USER: np.zeros((3, 4), dtype=np.float32)}
        with pytest.raises(ValueError):
            EmbeddingSet(matrices=matrices, dim=5)

    def test_rejects_wrong_dtype(self):
        matrices = {EntityType.USER: np.zeros((3, 4), dtype=np.float64)}
        with pytest.raises(ValueError):
            EmbeddingSet(matrices=matrices, dim=4)

    @pytest.mark.parametrize(
        "view",
        [
            np.zeros((3, 8), dtype=np.float32)[:, ::2],  # column slice
            np.zeros((4, 3), dtype=np.float32).T,  # transpose
        ],
        ids=["column-sliced", "transposed"],
    )
    def test_rejects_non_contiguous_layout(self, view):
        # The trainer scatters through each matrix's flat view; a strided
        # matrix would reshape to a copy and silently lose every update.
        assert view.shape == (3, 4)
        with pytest.raises(ValueError, match="EntityType.EVENT.*C-contiguous"):
            EmbeddingSet(matrices={EntityType.EVENT: view}, dim=4)


class TestAccessorsAndCopy:
    def test_users_events_shortcuts(self, rng):
        emb = EmbeddingSet.random(COUNTS, dim=4, rng=rng)
        assert emb.users is emb.of(EntityType.USER)
        assert emb.events is emb.of(EntityType.EVENT)

    def test_copy_is_deep(self, rng):
        emb = EmbeddingSet.random(COUNTS, dim=4, rng=rng)
        clone = emb.copy()
        clone.users[0, 0] = 99.0
        assert emb.users[0, 0] != 99.0


class TestNamedDictRoundTrip:
    def test_round_trip(self, rng):
        emb = EmbeddingSet.random(COUNTS, dim=6, rng=rng)
        named = emb.as_named_dict()
        assert set(named) == {etype.value for etype in COUNTS}
        for etype in COUNTS:
            assert named[etype.value] is emb.of(etype)
