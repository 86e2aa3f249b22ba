"""Tests for online-index persistence: ``engine.json`` in a frozen store."""

import json

import numpy as np
import pytest

from repro.core.embeddings import EmbeddingSet
from repro.core.store import MemmapStore
from repro.ebsn.graphs import EntityType
from repro.online.persistence import ENGINE_NAME, load_engine, save_engine
from repro.serving import ServingEngine, ShardedServingEngine


@pytest.fixture()
def vectors(rng):
    U = np.abs(rng.normal(0.3, 0.3, (15, 5))).astype(np.float32)
    E = np.abs(rng.normal(0.3, 0.3, (8, 5))).astype(np.float32)
    return U, E


def _frozen(directory, U, E, *, version=1):
    """A frozen store holding ``U`` / ``E`` at ``version``."""
    store = MemmapStore.from_embeddings(
        directory,
        EmbeddingSet({EntityType.USER: U, EntityType.EVENT: E}, dim=U.shape[1]),
    )
    store.freeze(embedding_version=version)
    return store


@pytest.fixture()
def store(vectors, tmp_path):
    return _frozen(tmp_path / "store", *vectors)


def _engine(store, **options):
    emb = store.embeddings()
    return ServingEngine(
        emb.users, emb.events, np.arange(emb.events.shape[0]), **options
    )


class TestWritesAreAtomic:
    """The engine writer swaps ``engine.json`` in with one rename.

    A write that raises half-way leaves the previous artefact loadable
    and no temp file behind; a reader never finds a truncated file.
    """

    @pytest.fixture(params=["engine"])
    def artefact(self, store):
        """``(save(top_k), load() -> top_k)`` of the writer."""

        def save(top_k):
            return save_engine(_engine(store, top_k_events=top_k), store)

        return save, lambda: load_engine(store.directory).top_k_events

    @pytest.mark.parametrize("fail_at", ["mid-write", "rename"])
    def test_failed_write_keeps_the_previous_artefact(
        self, artefact, store, monkeypatch, break_write, fail_at
    ):
        save, load = artefact
        assert save(3) == store.directory
        listing = sorted(p.name for p in store.directory.iterdir())
        assert ENGINE_NAME in listing
        break_write(fail_at)
        with pytest.raises(OSError):
            save(2)
        monkeypatch.undo()
        assert load() == 3
        assert sorted(p.name for p in store.directory.iterdir()) == listing
        save(2)
        assert load() == 2
        assert sorted(p.name for p in store.directory.iterdir()) == listing


class TestEngineRoundTrip:
    @pytest.mark.parametrize("backend", ["ta", "bruteforce"])
    def test_version_and_queries_survive(self, vectors, tmp_path, backend):
        store = _frozen(tmp_path / "store", *vectors, version=2)
        engine = _engine(store, backend=backend, cache_size=16).warm()
        # Age the version past 1 so the tag is distinguishable from a
        # fresh engine's.
        engine.rebuild()
        restored = load_engine(save_engine(engine, store))
        assert restored.backend_name == backend
        assert restored.version == engine.version == 2
        assert not restored.is_built  # lazy on load
        for user in (0, 5):
            a = engine.recommend(user, n=4)
            b = restored.recommend(user, n=4)
            assert [(r.event, r.partner) for r in a] == [
                (r.event, r.partner) for r in b
            ]
            assert [r.score for r in a] == [r.score for r in b]
        assert restored.space.version == 2

    def test_ladder_knobs_survive(self, store):
        # Dropping them silently cost a reloaded engine its ivf rung.
        engine = _engine(
            store, backend="bruteforce",
            ivf_clusters=4, ivf_nprobe=2, stale_cache_size=7,
        )
        restored = load_engine(save_engine(engine, store))
        assert "ivf" in restored.warm_ladder().index.snapshot().rungs()
        assert (restored.ivf_clusters, restored.ivf_nprobe) == (4, 2)
        assert restored.stale_cache_size == 7

    def test_sharded_engine_keeps_its_shard_count(self, store):
        emb = store.embeddings()
        with ShardedServingEngine(
            emb.users, emb.events, np.arange(emb.events.shape[0]), n_shards=3
        ) as fleet:
            directory = save_engine(fleet, store)
            with load_engine(directory) as restored, load_engine(
                directory, n_shards=2
            ) as two:
                assert isinstance(restored, ShardedServingEngine)
                assert (restored.n_shards, two.n_shards) == (3, 2)
                for engine in (restored, two):
                    np.testing.assert_array_equal(
                        engine.query(4, 5).pair_indices, fleet.query(4, 5).pair_indices
                    )

    @pytest.mark.parametrize(
        "format_key", ["__serving_engine_format__", "__store_engine_format__"]
    )
    def test_refuses_format_1_files(self, store, format_key):
        # What the two earlier writers recorded, found where an artefact
        # now lives: no converter.
        config = {"backend": "ta", "top_k_events": None, "cache_size": 256,
                  "format_version": 1, "embedding_version": 1,
                  "candidate_events": [0, 1], "candidate_partners": [0, 1]}
        if format_key == "__store_engine_format__":
            config.update(n_shards=None, store_directory=str(store.directory))
        (store.directory / ENGINE_NAME).write_text(json.dumps(config))
        with pytest.raises(ValueError, match="unsupported index format 1"):
            load_engine(store.directory)

    def test_rejects_foreign_npz(self, store, tmp_path):
        # An archive where the artefact should be, and an archive path
        # handed over in place of a store directory.
        with open(store.directory / ENGINE_NAME, "wb") as handle:
            np.savez(handle, data=np.ones(3))
        with pytest.raises(ValueError, match="not a recognised index file"):
            load_engine(store.directory)
        np.savez(tmp_path / "other.npz", data=np.ones(3))
        with pytest.raises(ValueError, match="not an embedding store"):
            load_engine(tmp_path / "other.npz")


class TestRecommenderRoundTrip:
    """The removed recommender facade's round-trip tests, on the engine."""

    @pytest.mark.parametrize("method", ["ta", "bruteforce"])
    def test_queries_identical_after_reload(self, store, method):
        original = _engine(store, top_k_events=3, backend=method)
        restored = load_engine(save_engine(original, store))
        assert restored.backend_name == method
        assert restored.top_k_events == 3
        assert restored.n_candidate_pairs == original.n_candidate_pairs
        for user in (0, 7):
            a = original.recommend(user, n=4)
            b = restored.recommend(user, n=4)
            assert [(r.event, r.partner) for r in a] == [
                (r.event, r.partner) for r in b
            ]
            assert [r.score for r in a] == [r.score for r in b]

    def test_unpruned_recommender_round_trip(self, store):
        original = _engine(store)
        restored = load_engine(save_engine(original, store))
        assert restored.top_k_events is None
        assert restored.n_candidate_pairs == original.n_candidate_pairs

    def test_rejects_foreign_npz(self, store):
        # A store with only a stray archive beside it has no artefact;
        # JSON that is not an engine config is refused too.
        np.savez(store.directory / "other.npz", data=np.ones(3))
        with pytest.raises(ValueError, match="not a recognised index file"):
            load_engine(store.directory)
        (store.directory / ENGINE_NAME).write_text(json.dumps({"data": [1, 2]}))
        with pytest.raises(ValueError, match="unsupported index format None"):
            load_engine(store.directory)
        config = json.loads(
            (save_engine(_engine(store), store) / ENGINE_NAME).read_text()
        )
        del config["candidate_events"]
        (store.directory / ENGINE_NAME).write_text(json.dumps(config))
        with pytest.raises(ValueError, match="not a recognised index file"):
            load_engine(store.directory)
