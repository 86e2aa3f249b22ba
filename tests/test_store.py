"""Memory-mapped embedding store: lifecycle, parity, rejection matrix.

The store's contract has three legs:

1. **backend parity** — the store's chunked fill of mapped files draws
   the identical matrices ``EmbeddingSet.random`` draws into RAM;
2. **lifecycle** — write state for trainers, frozen state for serving,
   with every illegal transition rejected at open/write time;
3. **rejection matrix** — corrupted manifests, truncated data files and
   stale artefacts are refused loudly, never served silently.
"""

import json

import numpy as np
import pytest

from repro.core.embeddings import EmbeddingSet
from repro.core.store import (
    MANIFEST_NAME,
    MemmapStore,
)
from repro.ebsn.graphs import EntityType
from repro.online.persistence import load_engine, save_engine
from repro.serving import ServingEngine, ShardedServingEngine

COUNTS = {EntityType.USER: 12, EntityType.EVENT: 7, EntityType.WORD: 0}


def _frozen_store(directory, *, seed=5, dim=6):
    store = MemmapStore.create(directory, COUNTS, dim)
    store.fill_random(rng=np.random.default_rng(seed))
    store.freeze()
    return MemmapStore.open(directory)


class TestBackendParity:
    def test_fill_random_matches_embedding_set_random(self, tmp_path):
        # Chunked store filling must reproduce the canonical draw:
        # entity matrices in sorted-by-name order, one RNG stream.
        store = MemmapStore.create(tmp_path / "s", COUNTS, 6)
        store.fill_random(rng=np.random.default_rng(3))
        ordered = {
            etype: COUNTS[etype]
            for etype in sorted(COUNTS, key=lambda t: t.value)
        }
        direct = EmbeddingSet.random(
            ordered, 6, rng=np.random.default_rng(3)
        )
        for etype in COUNTS:
            np.testing.assert_array_equal(
                store.embeddings().matrices[etype], direct.matrices[etype]
            )


class TestLifecycle:
    def test_round_trip_through_freeze(self, tmp_path):
        init = EmbeddingSet.random(COUNTS, 6, rng=7)
        store = MemmapStore.from_embeddings(tmp_path / "s", init)
        assert store.state == "write"
        store.freeze(embedding_version=3)
        ro = MemmapStore.open(tmp_path / "s")
        assert ro.state == "frozen"
        assert ro.embedding_version == 3
        for etype, matrix in init.matrices.items():
            np.testing.assert_array_equal(
                ro.embeddings().matrices[etype], matrix
            )

    def test_read_only_open_requires_frozen(self, tmp_path):
        MemmapStore.create(tmp_path / "s", COUNTS, 6)
        with pytest.raises(ValueError, match="require a frozen store"):
            MemmapStore.open(tmp_path / "s")

    def test_writable_open_requires_write_state(self, tmp_path):
        _frozen_store(tmp_path / "s")
        with pytest.raises(ValueError, match="require the write state"):
            MemmapStore.open(tmp_path / "s", writable=True)

    def test_writes_after_freeze_raise(self, tmp_path):
        store = MemmapStore.create(tmp_path / "s", COUNTS, 6)
        users = store.embeddings().users
        users[0, 0] = 1.0  # fine: still in the write state
        store.freeze()
        with pytest.raises((ValueError, RuntimeError)):
            store.embeddings().users[0, 0] = 2.0

    def test_zero_count_entities_round_trip(self, tmp_path):
        ro = _frozen_store(tmp_path / "s")
        assert ro.embeddings().matrices[EntityType.WORD].shape == (0, 6)


class TestManifestWriteIsAtomic:
    """A failed manifest write keeps the previous manifest (one rename)."""

    @pytest.mark.parametrize("fail_at", ["mid-write", "rename"])
    def test_failed_freeze_leaves_the_write_state_store_openable(
        self, tmp_path, monkeypatch, break_write, fail_at
    ):
        directory = tmp_path / "s"
        store = MemmapStore.create(directory, COUNTS, 6)
        store.fill_random(rng=np.random.default_rng(5))
        before = sorted(path.name for path in directory.iterdir())
        break_write(fail_at)
        with pytest.raises(OSError):
            store.freeze(embedding_version=4)
        monkeypatch.undo()
        # On disk: the manifest `create` wrote, whole, and no temp file.
        assert sorted(path.name for path in directory.iterdir()) == before
        reopened = MemmapStore.open(directory, writable=True)
        assert reopened.state == "write" and reopened.embedding_version == 0
        reopened.freeze(embedding_version=4)
        assert MemmapStore.open(directory).embedding_version == 4
        assert sorted(path.name for path in directory.iterdir()) == before


class TestRejectionMatrix:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            MemmapStore.open(tmp_path)

    def test_corrupted_manifest_json(self, tmp_path):
        _frozen_store(tmp_path / "s")
        (tmp_path / "s" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            MemmapStore.open(tmp_path / "s")

    def test_unsupported_format_version(self, tmp_path):
        _frozen_store(tmp_path / "s")
        path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            MemmapStore.open(tmp_path / "s")

    def test_truncated_data_file(self, tmp_path):
        _frozen_store(tmp_path / "s")
        dat = tmp_path / "s" / f"{EntityType.USER.value}.dat"
        dat.write_bytes(dat.read_bytes()[:-8])
        with pytest.raises(ValueError, match="corrupted store"):
            MemmapStore.open(tmp_path / "s")

    def test_rejects_non_float32(self, tmp_path):
        with pytest.raises(ValueError, match="float32"):
            MemmapStore.create(tmp_path / "s", COUNTS, 6, dtype="float64")


class TestStoreEnginePersistence:
    def _engine(self, store, *, n_shards=None):
        emb = store.embeddings()
        cand = np.arange(5, dtype=np.int64)
        if n_shards is None:
            return ServingEngine(emb.users, emb.events, cand, cache_size=0)
        return ShardedServingEngine(
            emb.users, emb.events, cand, n_shards=n_shards, cache_size=0
        )

    def test_round_trip_single(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        engine = self._engine(store).warm()
        path = save_engine(engine, tmp_path / "a.npz", store=store)
        loaded = load_engine(path)
        assert isinstance(loaded, ServingEngine)
        assert loaded.version == store.embedding_version
        for u in range(4):
            ref, got = engine.query(u, 6), loaded.query(u, 6)
            np.testing.assert_array_equal(ref.pair_indices, got.pair_indices)
            np.testing.assert_array_equal(ref.scores, got.scores)

    def test_round_trip_sharded_and_override(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        with self._engine(store, n_shards=3) as fleet:
            fleet.warm()
            path = save_engine(fleet, tmp_path / "a.npz", store=store)
            loaded = load_engine(path)
            assert isinstance(loaded, ShardedServingEngine)
            assert loaded.n_shards == 3
            resharded = load_engine(path, n_shards=2)
            assert resharded.n_shards == 2
            # The shard legs slice the memmap zero-copy; the single
            # store-backed index is the reference they must merge to.
            single = self._engine(store)
            with loaded, resharded:
                for u in range(4):
                    ref = fleet.query(u, 6)
                    one = single.query(u, 6)
                    np.testing.assert_array_equal(
                        one.pair_indices, ref.pair_indices
                    )
                    np.testing.assert_array_equal(one.scores, ref.scores)
                    np.testing.assert_array_equal(
                        ref.pair_indices, loaded.query(u, 6).pair_indices
                    )
                    np.testing.assert_array_equal(
                        ref.pair_indices, resharded.query(u, 6).pair_indices
                    )

    def test_refuses_unfrozen_store(self, tmp_path):
        store = MemmapStore.create(tmp_path / "s", COUNTS, 6)
        init = EmbeddingSet.random(COUNTS, 6, rng=2)
        store.load_from(init)
        engine = ServingEngine(
            init.users, init.events, np.arange(5, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="freeze"):
            save_engine(engine, tmp_path / "a.npz", store=store)

    def test_rejects_stale_embedding_version(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        engine = self._engine(store)
        path = save_engine(engine, tmp_path / "a.npz", store=store)
        # Retrain: a new store generation lands at the same directory
        # with a bumped embedding version.
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        manifest["embedding_version"] = 2
        (tmp_path / "s" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="stale"):
            load_engine(path)

    def test_rejects_corrupted_store_on_load(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        path = save_engine(self._engine(store), tmp_path / "a.npz", store=store)
        dat = tmp_path / "s" / f"{EntityType.USER.value}.dat"
        dat.write_bytes(dat.read_bytes()[:-4])
        with pytest.raises(ValueError, match="corrupted store"):
            load_engine(path)

    def test_store_dir_override(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        path = save_engine(self._engine(store), tmp_path / "a.npz", store=store)
        moved = tmp_path / "replica-mount"
        moved.mkdir()
        for f in (tmp_path / "s").iterdir():
            (moved / f.name).write_bytes(f.read_bytes())
        loaded = load_engine(path, store_dir=moved)
        assert isinstance(loaded.user_vectors, np.memmap)
        assert str(moved) in str(loaded.user_vectors.filename)
