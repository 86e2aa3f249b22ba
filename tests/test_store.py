"""Memory-mapped embedding store: lifecycle, parity, rejection matrix.

The store's contract has four legs:

1. **backend parity** — the store's chunked fill of mapped files draws
   the identical matrices ``EmbeddingSet.random`` draws into RAM;
2. **lifecycle** — write state for trainers, frozen state for serving,
   with every illegal transition rejected at open/write time;
3. **rejection matrix** — corrupted manifests, truncated data files and
   stale artefacts are refused loudly, never served silently;
4. **crash consistency** — a publish killed at any write primitive
   leaves the old generation, the new one, or a store that is refused.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.embeddings import EmbeddingSet
from repro.core.gem import GEM
from repro.core.store import (
    MANIFEST_NAME,
    MemmapBackend,
    MemmapStore,
    StoreManifest,
)
from repro.ebsn.graphs import EntityType
from repro.online.persistence import load_engine, save_engine
from repro.serving import ServingEngine, ShardedServingEngine
from repro.utils.files import write_text_atomic

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
        loaded = load_engine(save_engine(engine, store))
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
            path = save_engine(fleet, store)
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
            save_engine(engine, store)

    def test_rejects_stale_embedding_version(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        engine = self._engine(store)
        path = save_engine(engine, store)
        # Retrain: a new store generation lands at the same directory
        # with a bumped embedding version.
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        manifest["embedding_version"] = 2
        (tmp_path / "s" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="stale"):
            load_engine(path)

    def test_rejects_an_artefact_of_an_earlier_generation(self, tmp_path):
        # Two saves into one directory both freeze embedding version 1;
        # only the generation tells the first save's engine.json from
        # the second save's matrices.
        directory = tmp_path / "s"
        GEM.from_embeddings(EmbeddingSet.random(COUNTS, 6, rng=31)).save(directory)
        store = MemmapStore.open(directory)
        save_engine(self._engine(store), store)
        assert load_engine(directory).version == 1
        GEM.from_embeddings(EmbeddingSet.random(COUNTS, 6, rng=32)).save(directory)
        with pytest.raises(ValueError, match="stale.*generation"):
            load_engine(directory)
        assert MemmapStore.open(directory).generation == store.generation + 1

    def test_a_manifest_without_a_generation_reads_as_zero(self, tmp_path):
        directory = tmp_path / "s"
        _frozen_store(directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        del manifest["generation"]
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert MemmapStore.open(directory).generation == 0
        assert MemmapStore.create(directory, COUNTS, 6).generation == 1

    def test_rejects_corrupted_store_on_load(self, tmp_path):
        store = _frozen_store(tmp_path / "s")
        path = save_engine(self._engine(store), store)
        dat = tmp_path / "s" / f"{EntityType.USER.value}.dat"
        dat.write_bytes(dat.read_bytes()[:-4])
        with pytest.raises(ValueError, match="corrupted store"):
            load_engine(path)

    def test_store_dir_override(self, tmp_path):
        # The artefact lives in the store and names no path: a replica
        # that mounts a copy of the directory elsewhere serves that copy.
        store = _frozen_store(tmp_path / "s")
        save_engine(self._engine(store), store)
        moved = tmp_path / "replica-mount"
        moved.mkdir()
        for f in (tmp_path / "s").iterdir():
            (moved / f.name).write_bytes(f.read_bytes())
        loaded = load_engine(moved)
        assert isinstance(loaded.user_vectors, np.memmap)
        assert str(moved) in str(loaded.user_vectors.filename)


class TestTornRecreate:
    """Re-creating a store over a frozen generation never serves zeros.

    ``create`` used to truncate the ``.dat`` files before its write-state
    manifest landed, so a crash in between left the old "frozen v7"
    manifest over zero-filled data.  Now a crash before the manifest
    leaves v7 whole, and a crash after it leaves a store serving opens
    refuse.
    """

    @pytest.mark.parametrize("crash", ["before-manifest", "after-manifest"])
    def test_crashed_recreate_never_serves_zeros(self, tmp_path, monkeypatch, crash):
        directory = tmp_path / "s"
        old = EmbeddingSet.random(COUNTS, 6, rng=11)
        MemmapStore.from_embeddings(directory, old).freeze(embedding_version=7)
        real_save = StoreManifest.save

        def killed(manifest, where):
            if crash == "after-manifest":
                real_save(manifest, where)
            raise OSError(5, "killed")

        monkeypatch.setattr(StoreManifest, "save", killed)
        with pytest.raises(OSError, match="killed"):
            MemmapStore.from_embeddings(
                directory, EmbeddingSet.random(COUNTS, 6, rng=12)
            )
        monkeypatch.undo()
        if crash == "after-manifest":
            with pytest.raises(ValueError, match="require a frozen store"):
                MemmapStore.open(directory)
            return
        reopened = MemmapStore.open(directory)
        assert reopened.embedding_version == 7
        for etype, matrix in old.matrices.items():
            np.testing.assert_array_equal(reopened.embeddings().matrices[etype], matrix)


class TestRecreateKeepsOldMaps:
    """A re-create replaces the ``.dat`` files instead of truncating them,
    so a reader still mapping the previous generation keeps its values."""

    def test_old_views_read_the_old_values(self, tmp_path):
        directory = tmp_path / "s"
        old = EmbeddingSet.random(COUNTS, 6, rng=41)
        MemmapStore.from_embeddings(directory, old).freeze()
        served = MemmapStore.open(directory).embeddings()
        MemmapStore.from_embeddings(
            directory, EmbeddingSet.random(COUNTS, 6, rng=42)
        ).freeze()
        for etype, matrix in old.matrices.items():
            np.testing.assert_array_equal(served.matrices[etype], matrix)


def _crash_at(op, k):
    """Run ``op()`` with the ``k``-th write primitive failing; returns how
    many primitives it reached (``k=None``: none fails).

    The primitives are ``os.replace``, ``os.fsync``, the memmap
    allocation and the text write; a failing text write leaves half its
    text behind, as a full disk would.  The exception stands in for the
    process dying there: nothing after it runs.
    """
    calls = [0]

    def primitive(real, *, half_write=False):
        def run(*args, **kwargs):
            calls[0] += 1
            if calls[0] - 1 != k:
                return real(*args, **kwargs)
            if half_write:
                target, text = args[:2]
                real(target, text[: len(text) // 2])
            raise OSError(5, "crash injected")

        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", primitive(os.replace))
        mp.setattr(os, "fsync", primitive(os.fsync))
        mp.setattr(MemmapBackend, "allocate", primitive(MemmapBackend.allocate))
        mp.setattr(Path, "write_text", primitive(Path.write_text, half_write=True))
        if k is None:
            op()
        else:
            with pytest.raises(OSError, match="crash injected"):
                op()
    return calls[0]


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[key].shape == b[key].shape and np.array_equal(a[key], b[key]) for key in a
    )


class TestCrashConsistency:
    """Kill a publish at its k-th write primitive, for every k.

    A reopen then yields the old generation, the new one, or a
    ``ValueError`` — never arrays equal to neither.
    """

    def _sweep(self, tmp_path, prepare, reopen):
        """``prepare(directory) -> (op, old, new)``; ``reopen(directory)``
        returns what a replica would serve.  Returns the outcomes seen."""

        def outcome(directory, old, new):
            try:
                got = reopen(directory)
            except ValueError:
                return "refused"
            if old is not None and _same(got, old):
                return "old"
            assert _same(got, new), f"torn generation at {directory.name}"
            return "new"

        op, old, new = prepare(tmp_path / "clean")
        n = _crash_at(op, None)
        assert outcome(tmp_path / "clean", old, new) == "new"
        seen = []
        for k in range(n):
            directory = tmp_path / f"crash-{k}"
            op, old, new = prepare(directory)
            assert _crash_at(op, k) == k + 1
            seen.append(outcome(directory, old, new))
        return seen

    def test_gem_save_over_an_existing_generation(self, tmp_path):
        def prepare(directory):
            old = EmbeddingSet.random(COUNTS, 6, rng=21)
            GEM.from_embeddings(old).save(directory)
            new_counts = {**COUNTS, EntityType.USER: 15}
            new = EmbeddingSet.random(new_counts, 6, rng=22)
            model = GEM.from_embeddings(new)
            return (
                lambda: model.save(directory),
                {e.value: m.copy() for e, m in old.matrices.items()},
                new.as_named_dict(),
            )

        seen = self._sweep(
            tmp_path, prepare, lambda d: GEM.load(d).embeddings.as_named_dict()
        )
        assert seen[0] == "old" and seen[-1] == "new" and "refused" in seen

    def test_freeze(self, tmp_path):
        def prepare(directory):
            emb = EmbeddingSet.random(COUNTS, 6, rng=23)
            store = MemmapStore.from_embeddings(directory, emb)
            return (
                lambda: store.freeze(embedding_version=2),
                None,  # the write state is not servable
                {**emb.as_named_dict(), "version": np.array(2)},
            )

        def reopen(directory):
            store = MemmapStore.open(directory)
            return {
                **store.embeddings().as_named_dict(),
                "version": np.array(store.embedding_version),
            }

        seen = self._sweep(tmp_path, prepare, reopen)
        assert seen[0] == "refused" and seen[-1] == "new"

    def test_save_engine(self, tmp_path):
        def served(engine):
            return {
                "candidates": np.asarray(engine.candidate_events),
                "top_k": np.array(engine.top_k_events or -1),
                "version": np.array(engine.version),
                "answer": engine.query(3, 5).pair_indices,
            }

        def prepare(directory):
            store = _frozen_store(directory, seed=24)
            emb = store.embeddings()
            before = ServingEngine(
                emb.users, emb.events, np.arange(4), top_k_events=2
            )
            save_engine(before, store)
            after = ServingEngine(emb.users, emb.events, np.arange(7))
            return (
                lambda: save_engine(after, store),
                served(before),
                served(after),
            )

        seen = self._sweep(tmp_path, prepare, lambda d: served(load_engine(d)))
        assert seen[0] == "old" and seen[-1] == "new"


class TestDurabilityOrder:
    """Data is on disk before the rename that publishes it, and the
    rename is on disk before the publish returns."""

    @pytest.fixture()
    def trace(self, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, Path(dst).name))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return events

    def test_temp_fsync_then_replace_then_directory_fsync(self, tmp_path, trace):
        out = write_text_atomic(tmp_path / "x.json", "{}")
        ino = out.stat().st_ino
        assert trace == [
            ("fsync", ino),
            ("replace", ino, "x.json"),
            ("fsync", tmp_path.stat().st_ino),
        ]

    def test_freeze_fsyncs_every_dat_before_the_manifest_replace(
        self, tmp_path, trace
    ):
        directory = tmp_path / "s"
        store = MemmapStore.create(directory, COUNTS, 6)
        store.fill_random(rng=np.random.default_rng(5))
        trace.clear()
        store.freeze()
        manifest = (directory / MANIFEST_NAME).stat().st_ino
        swap = trace.index(("replace", manifest, MANIFEST_NAME))
        dats = {path.stat().st_ino for path in directory.glob("*.dat")}
        assert len(dats) == 2  # the zero-row matrix has no file
        assert dats <= {e[1] for e in trace[:swap] if e[0] == "fsync"}
        assert trace[swap - 1] == ("fsync", manifest)
        assert trace[-1] == ("fsync", directory.stat().st_ino)
