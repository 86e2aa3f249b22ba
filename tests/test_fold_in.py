"""Tests for post-training event fold-in."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from repro.core import GEM
from repro.core import fold_in as fold_in_module
from repro.core.embeddings import EmbeddingSet
from repro.core.fold_in import EventFoldIn, FoldInConfig, NewEventDescription
from repro.core.objective import sigmoid
from repro.core.similarity import cosine_similarity_matrix
from repro.ebsn.graphs import EntityType
from repro.ebsn.timeslots import N_TIME_SLOTS
from repro.utils.rng import ensure_rng

ATTRIBUTE_TYPES = fold_in_module._ATTRIBUTE_TYPES


@pytest.fixture(scope="module")
def trained(tiny_split, tiny_bundle):
    model = GEM.gem_a(dim=16, n_samples=120_000, seed=5).fit(tiny_bundle)
    fold = EventFoldIn(
        model.embeddings, tiny_bundle.vocabulary, tiny_bundle.regions
    )
    return model, fold


def describe(ebsn, event_idx):
    event = ebsn.events[event_idx]
    venue = ebsn.venues[ebsn.venue_index[event.venue_id]]
    return NewEventDescription(
        description=event.description,
        venue_lat=venue.lat,
        venue_lon=venue.lon,
        start_time=event.start_time,
    )


def interleaved_draws(fold, event, config):
    """The pre-vectorisation RNG consumption order: the initial vector,
    then per step one weighted positive draw and ``n_negatives`` uniform
    noise draws.  Same ``(init, types, index)`` layout as ``_draw``."""
    rng = ensure_rng(config.seed)
    edge_types, nodes, weights = fold._attribute_edges(event)
    probabilities = weights / weights.sum()
    init = np.abs(rng.normal(0.0, config.init_scale, size=fold.embeddings.dim))
    types = np.empty(config.n_steps, dtype=np.int64)
    index = np.empty((config.n_steps, 1 + config.n_negatives), dtype=np.int64)
    for step in range(config.n_steps):
        edge = int(rng.choice(nodes.size, p=probabilities))
        types[step], index[step, 0] = edge_types[edge], nodes[edge]
        n_rows = fold.embeddings.of(ATTRIBUTE_TYPES[types[step]]).shape[0]
        for j in range(config.n_negatives):
            index[step, 1 + j] = int(rng.integers(0, n_rows))
    return init, types, index


def scalar_fold(fold, config, init, types, index):
    """The pre-vectorisation optimiser, kept here as the reference: one
    event, one step and one negative at a time, the whole attribute
    matrix widened to float64 on every step.  Returns float64."""
    vec = init.copy()
    for step in range(config.n_steps):
        lr = config.learning_rate * max(1.0 - step / config.n_steps, 1e-3)
        etype = ATTRIBUTE_TYPES[types[step]]
        matrix = fold.embeddings.of(etype).astype(np.float64)
        target = matrix[index[step, 0]]
        g = 1.0 - float(sigmoid(np.array(vec @ target, dtype=np.float64)))
        grad = g * target
        for node in index[step, 1:]:
            noise = matrix[node]
            grad -= float(sigmoid(np.array(vec @ noise, dtype=np.float64))) * noise
        vec += lr * grad
        if config.nonnegative:
            np.maximum(vec, 0.0, out=vec)
    return vec


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FoldInConfig(n_steps=0).validate()
        with pytest.raises(ValueError):
            FoldInConfig(learning_rate=0).validate()
        with pytest.raises(ValueError):
            FoldInConfig(n_negatives=0).validate()
        with pytest.raises(ValueError, match="init_scale"):
            FoldInConfig(init_scale=-0.1).validate()
        FoldInConfig(init_scale=0.0).validate()


class TestFoldIn:
    def test_vector_shape_and_nonnegativity(self, trained, tiny_ebsn):
        model, fold = trained
        vec = fold.fold_in(describe(tiny_ebsn, 0))
        assert vec.shape == (model.embeddings.dim,)
        assert vec.dtype == np.float32
        assert vec.min() >= 0.0
        assert np.linalg.norm(vec) > 0.0

    def test_deterministic_given_seed(self, trained, tiny_ebsn):
        _model, fold = trained
        event = describe(tiny_ebsn, 3)
        a = fold.fold_in(event, FoldInConfig(seed=1))
        b = fold.fold_in(event, FoldInConfig(seed=1))
        np.testing.assert_array_equal(a, b)

    def test_empty_description_and_unknown_words(self, trained):
        _model, fold = trained
        vec = fold.fold_in(
            NewEventDescription(
                description="zzzunknownzzz qqq",
                venue_lat=39.9,
                venue_lon=116.4,
                start_time=1_600_000_000.0,
            )
        )
        # Time/location edges still exist, so the vector is learnable.
        assert np.linalg.norm(vec) > 0.0

    def test_fold_in_many_stacks(self, trained, tiny_ebsn):
        _model, fold = trained
        vecs = fold.fold_in_many([describe(tiny_ebsn, 0), describe(tiny_ebsn, 1)])
        assert vecs.shape[0] == 2
        assert fold.fold_in_many([]).shape == (0, fold.embeddings.dim)

    def test_frozen_embeddings_untouched(self, trained, tiny_ebsn):
        model, fold = trained
        snapshot = {
            etype: matrix.copy()
            for etype, matrix in model.embeddings.matrices.items()
        }
        fold.fold_in(describe(tiny_ebsn, 2))
        for etype, matrix in model.embeddings.matrices.items():
            np.testing.assert_array_equal(matrix, snapshot[etype])

    def test_folded_vector_ranks_like_trained_vector(
        self, trained, tiny_ebsn, tiny_split
    ):
        """The deployment property: folding in a (held-out) event produces
        a vector whose user-preference ranking correlates with the vector
        full training produced for that same event."""
        model, fold = trained
        agreements = []
        users = model.user_vectors.astype(np.float64)
        for event_idx in sorted(tiny_split.test_events):
            trained_vec = model.event_vectors[event_idx].astype(np.float64)
            folded_vec = fold.fold_in(
                describe(tiny_ebsn, event_idx), FoldInConfig(n_steps=800)
            ).astype(np.float64)
            if np.linalg.norm(trained_vec) == 0:
                continue
            s_trained = users @ trained_vec
            s_folded = users @ folded_vec
            agreements.append(np.corrcoef(s_trained, s_folded)[0, 1])
        assert np.nanmean(agreements) > 0.3


class TestVectorisedOptimiser:
    """The batched pass against the scalar loop it replaced."""

    @pytest.mark.parametrize("nonnegative", [True, False])
    def test_same_draws_same_arithmetic(self, trained, tiny_ebsn, nonnegative):
        _model, fold = trained
        config = FoldInConfig(n_negatives=3, nonnegative=nonnegative, seed=4)
        for event_idx in (0, 5, 9):
            event = describe(tiny_ebsn, event_idx)
            reference = scalar_fold(fold, config, *fold._draw(event, config))
            batched = fold._fold_block([event], config)[0]
            assert batched.dtype == np.float64
            np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-12)

    @given(
        picks=st.lists(st.integers(0, 19), max_size=2 * fold_in_module._BLOCK + 6),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_is_bit_identical_to_singles(
        self, trained, tiny_ebsn, picks, seed
    ):
        """Any subset, order, repetition and size (below, at and across
        the block constant) gives each event its ``fold_in`` bits."""
        _model, fold = trained
        config = FoldInConfig(n_steps=12, seed=seed)
        pool = [describe(tiny_ebsn, i) for i in range(20)]
        singles = np.stack([fold.fold_in(event, config) for event in pool])
        batch = fold.fold_in_many([pool[i] for i in picks], config)
        assert batch.dtype == np.float32
        np.testing.assert_array_equal(batch, singles[picks])

    def test_positive_draws_follow_edge_weights(self, trained, tiny_ebsn):
        _model, fold = trained
        event = describe(tiny_ebsn, 1)
        n_steps = 20_000
        edge_types, nodes, weights = fold._attribute_edges(event)
        _init, types, index = fold._draw(event, FoldInConfig(n_steps=n_steps))
        # Edges are distinct (type, node) pairs, so a draw names its edge.
        drawn = types * (nodes.max() + 1) + index[:, 0]
        edges = edge_types * (nodes.max() + 1) + nodes
        assert np.isin(drawn, edges).all()
        observed = (drawn[:, None] == edges[None, :]).sum(axis=0)
        expected = n_steps * weights / weights.sum()
        assert chisquare(observed, expected).pvalue > 1e-3

    def test_negatives_are_rows_of_the_positives_type(self, trained, tiny_ebsn):
        _model, fold = trained
        config = FoldInConfig(n_steps=4_000, n_negatives=3)
        n_rows = np.array(
            [fold.embeddings.of(etype).shape[0] for etype in ATTRIBUTE_TYPES]
        )
        assert len(set(n_rows.tolist())) == 3  # a wrong type is detectable
        _init, types, index = fold._draw(describe(tiny_ebsn, 1), config)
        assert index.shape == (4_000, 4)
        assert set(types.tolist()) == {0, 1, 2}
        assert index.min() >= 0
        assert (index < n_rows[types][:, None]).all()
        for code in range(3):
            # Uniform over the whole matrix of that type, not a prefix.
            noise = index[types == code, 1:]
            assert noise.max() >= 0.8 * (n_rows[code] - 1)

    def test_scratch_is_touched_rows_not_matrix_copies(self, trained, tiny_ebsn):
        _model, small = trained
        rng = np.random.default_rng(3)
        n_words, dim = 200_000, small.embeddings.dim
        matrices = {
            EntityType.WORD: rng.random((n_words, dim), dtype=np.float32),
            EntityType.TIME: rng.random((N_TIME_SLOTS, dim), dtype=np.float32),
            EntityType.LOCATION: rng.random(
                (small.regions.n_regions, dim), dtype=np.float32
            ),
        }
        fold = EventFoldIn(
            EmbeddingSet(matrices, dim), small.vocabulary, small.regions
        )
        events = [describe(tiny_ebsn, i) for i in range(4)]
        tracemalloc.start()
        try:
            vectors = fold.fold_in_many(events)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vectors.shape == (4, dim)
        assert peak < n_words * dim * 8

    def test_close_to_the_interleaved_draw_loop(
        self, trained, tiny_ebsn, tiny_split
    ):
        """Seeded quality guard: changing the RNG consumption order moved
        the folded vectors in value, not in direction."""
        _model, fold = trained
        config = FoldInConfig()
        held_out = sorted(tiny_split.test_events)
        events = [describe(tiny_ebsn, idx) for idx in held_out]
        folded = fold.fold_in_many(events, config)
        reference = np.stack(
            [
                scalar_fold(fold, config, *interleaved_draws(fold, event, config))
                for event in events
            ]
        )
        cosines = np.diag(cosine_similarity_matrix(folded, reference))
        assert cosines.mean() >= 0.95


class TestFoldIntoEngine:
    def test_folds_and_serves_incrementally(
        self, trained, tiny_ebsn, tiny_split
    ):
        from repro.serving import ServingEngine

        model, fold = trained
        candidate_events = np.array(
            sorted(tiny_split.test_events), dtype=np.int64
        )
        engine = ServingEngine(
            model.user_vectors,
            model.event_vectors,
            candidate_events,
            backend="ta",
        ).warm()
        n_events_before = engine.n_events
        version_before = engine.version

        arrivals = [describe(tiny_ebsn, 0), describe(tiny_ebsn, 1)]
        new_ids = fold.fold_into_engine(
            engine, arrivals, FoldInConfig(n_steps=50)
        )

        assert new_ids.tolist() == [n_events_before, n_events_before + 1]
        assert engine.version == version_before + 1
        # Incremental: the original build is the only full build.
        assert engine.build_stats.n_full_builds == 1
        assert engine.build_stats.n_incremental_refreshes == 1
        assert set(new_ids.tolist()) <= set(engine.candidate_events.tolist())
        assert set(new_ids.tolist()) <= set(engine.space.event_ids.tolist())
        assert len(engine.recommend(0, n=5)) == 5

    def test_no_arrivals_is_a_no_op(self, trained):
        from repro.serving import ServingEngine

        model, fold = trained
        engine = ServingEngine(
            model.user_vectors,
            model.event_vectors,
            np.arange(3, dtype=np.int64),
        )
        ids = fold.fold_into_engine(engine, [])
        assert ids.size == 0
        assert not engine.is_built
