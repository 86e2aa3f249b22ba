"""Tests for online-index persistence."""

import dataclasses
import json

import numpy as np
import pytest

from repro.online import transform_all_pairs
from repro.online.persistence import (
    load_engine,
    load_pair_space,
    save_engine,
    save_pair_space,
)
from repro.serving import ServingEngine, ShardedServingEngine


@pytest.fixture()
def vectors(rng):
    U = np.abs(rng.normal(0.3, 0.3, (15, 5)))
    E = np.abs(rng.normal(0.3, 0.3, (8, 5)))
    return U, E


class TestPairSpaceRoundTrip:
    def test_round_trip(self, vectors, tmp_path):
        U, E = vectors
        space = transform_all_pairs(E, U)
        path = save_pair_space(space, tmp_path / "space.npz")
        restored = load_pair_space(path)
        for field in dataclasses.fields(space):
            before, after = getattr(space, field.name), getattr(restored, field.name)
            np.testing.assert_array_equal(after, before)
            assert np.asarray(after).dtype == np.asarray(before).dtype
        # The factored arrays are all there is: the dense points are
        # derived, and decode the same.
        np.testing.assert_array_equal(restored.points, space.points)
        np.testing.assert_array_equal(restored.partner_ids, space.partner_ids)
        np.testing.assert_array_equal(restored.event_ids, space.event_ids)

    def test_refuses_version_1_dense_file(self, vectors, tmp_path):
        # What save_pair_space wrote before the factored format: no
        # converter, no second reader.
        U, E = vectors
        space = transform_all_pairs(E, U)
        np.savez_compressed(
            tmp_path / "v1.npz",
            points=space.points,
            partner_ids=space.partner_ids,
            event_ids=space.event_ids,
            embedding_version=np.array([3], dtype=np.int64),
            __pair_space_format__=np.array([1], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="unsupported pair-space format 1"):
            load_pair_space(tmp_path / "v1.npz")

    def test_rejects_foreign_npz(self, tmp_path):
        np.savez(tmp_path / "other.npz", data=np.ones(3))
        with pytest.raises(ValueError):
            load_pair_space(tmp_path / "other.npz")

    def test_version_tag_round_trips(self, vectors, tmp_path):
        U, E = vectors
        space = transform_all_pairs(E, U)
        space.version = 7
        restored = load_pair_space(save_pair_space(space, tmp_path / "s.npz"))
        assert restored.version == 7

    def test_unversioned_space_defaults_to_zero(self, vectors, tmp_path):
        U, E = vectors
        space = transform_all_pairs(E, U)
        restored = load_pair_space(save_pair_space(space, tmp_path / "s.npz"))
        assert restored.version == 0


class TestWritesAreAtomic:
    """Both writers swap the archive in with one rename.

    A write that raises half-way leaves the previous artefact loadable
    and no temp file behind; a reader never finds a truncated archive.
    """

    @pytest.fixture(params=["pair_space", "engine"])
    def artefact(self, request, vectors):
        """``(save(version, path), load(path) -> version)`` of one writer."""
        U, E = vectors
        if request.param == "pair_space":
            space = transform_all_pairs(E, U)

            def save(version, path):
                return save_pair_space(
                    dataclasses.replace(space, version=version), path
                )

            return save, lambda path: load_pair_space(path).version

        def save(version, path):
            engine = ServingEngine(U, E, np.arange(E.shape[0]))
            engine.index.restamp(version)
            return save_engine(engine, path)

        return save, lambda path: load_engine(path).version

    @pytest.mark.parametrize("fail_at", ["mid-write", "rename"])
    def test_failed_write_keeps_the_previous_artefact(
        self, artefact, tmp_path, monkeypatch, break_write, fail_at
    ):
        save, load = artefact
        target = tmp_path / "out.npz"
        assert save(1, target) == target
        real_savez = np.savez_compressed

        def disk_full(file, **arrays):
            first = next(iter(arrays))
            real_savez(file, **{first: arrays[first]})
            file.write(b"half of the next member")
            raise OSError(28, "No space left on device")

        if fail_at == "mid-write":
            monkeypatch.setattr(np, "savez_compressed", disk_full)
        else:
            break_write(fail_at)
        with pytest.raises(OSError):
            save(2, target)
        monkeypatch.undo()
        assert load(target) == 1
        assert list(tmp_path.iterdir()) == [target]
        save(2, target)
        assert load(target) == 2
        assert list(tmp_path.iterdir()) == [target]

    def test_suffix_rule_and_returned_path_are_numpys(self, artefact, tmp_path):
        # np.savez appends ".npz" to a path without it; the writers hand
        # it an open file, so they keep that rule themselves.
        save, load = artefact
        assert save(3, tmp_path / "bare") == tmp_path / "bare"
        assert [p.name for p in tmp_path.iterdir()] == ["bare.npz"]
        assert load(tmp_path / "bare.npz") == 3


class TestEngineRoundTrip:
    @pytest.mark.parametrize("backend", ["ta", "bruteforce"])
    def test_version_and_queries_survive(self, vectors, tmp_path, backend):
        U, E = vectors
        engine = ServingEngine(
            U, E, np.arange(E.shape[0]), backend=backend, cache_size=16
        ).warm()
        # Age the version past 1 so the tag is distinguishable from a
        # fresh engine's.
        engine.rebuild()
        path = save_engine(engine, tmp_path / "engine.npz")
        restored = load_engine(path)
        assert restored.backend_name == backend
        assert restored.version == engine.version == 2
        assert not restored.is_built  # lazy on load
        for user in (0, 5):
            a = engine.recommend(user, n=4)
            b = restored.recommend(user, n=4)
            assert [(r.event, r.partner) for r in a] == [
                (r.event, r.partner) for r in b
            ]
            assert [r.score for r in a] == pytest.approx([r.score for r in b])
        assert restored.space.version == 2

    def test_ladder_knobs_survive(self, vectors, tmp_path):
        # Dropping them silently cost a reloaded engine its ivf rung.
        U, E = vectors
        engine = ServingEngine(
            U, E, np.arange(E.shape[0]), backend="bruteforce",
            ivf_clusters=4, ivf_nprobe=2, stale_cache_size=7,
        )
        restored = load_engine(save_engine(engine, tmp_path / "engine.npz"))
        assert "ivf" in restored.warm_ladder().index.snapshot().rungs()
        assert (restored.ivf_clusters, restored.ivf_nprobe) == (4, 2)
        assert restored.stale_cache_size == 7

    def test_sharded_engine_keeps_its_shard_count(self, vectors, tmp_path):
        U, E = vectors
        with ShardedServingEngine(U, E, np.arange(E.shape[0]), n_shards=3) as fleet:
            path = save_engine(fleet, tmp_path / "fleet.npz")
            with load_engine(path) as restored, load_engine(path, n_shards=2) as two:
                assert isinstance(restored, ShardedServingEngine)
                assert (restored.n_shards, two.n_shards) == (3, 2)
                for engine in (restored, two):
                    np.testing.assert_array_equal(
                        engine.query(4, 5).pair_indices, fleet.query(4, 5).pair_indices
                    )

    @pytest.mark.parametrize(
        "format_key", ["__serving_engine_format__", "__store_engine_format__"]
    )
    def test_refuses_format_1_files(self, vectors, tmp_path, format_key):
        # What the two earlier writers left on disk: no converter.
        U, E = vectors
        config = {"backend": "ta", "top_k_events": None, "cache_size": 256,
                  "format_version": 1, "embedding_version": 1}
        arrays = {"user_vectors": U, "event_vectors": E}
        if format_key == "__store_engine_format__":
            config.update(n_shards=None, store_directory=str(tmp_path / "store"))
            arrays = {}
        np.savez_compressed(
            tmp_path / "v1.npz",
            candidate_events=np.arange(E.shape[0]),
            candidate_partners=np.arange(U.shape[0]),
            config=np.frombuffer(json.dumps(config).encode(), dtype=np.uint8),
            **arrays,
            **{format_key: np.array([1], dtype=np.int64)},
        )
        with pytest.raises(ValueError, match="unsupported index format 1"):
            load_engine(tmp_path / "v1.npz")

    def test_rejects_foreign_npz(self, tmp_path):
        np.savez(tmp_path / "other.npz", data=np.ones(3))
        with pytest.raises(ValueError):
            load_engine(tmp_path / "other.npz")

    def test_rejects_recommender_file(self, vectors, tmp_path):
        # An artefact of the removed recommender format (same arrays,
        # no engine format key) still on disk must not load as an engine.
        U, E = vectors
        engine = ServingEngine(U, E, np.arange(E.shape[0]))
        path = save_engine(engine, tmp_path / "reco.npz")
        with np.load(path) as data:
            legacy = {
                k: data[k] for k in data.files if not k.startswith("__")
            }
        np.savez(path, config_marker=np.array([1]), **legacy)
        with pytest.raises(ValueError):
            load_engine(path)


class TestRecommenderRoundTrip:
    """The removed recommender facade's round-trip tests, on the engine."""

    @pytest.mark.parametrize("method", ["ta", "bruteforce"])
    def test_queries_identical_after_reload(self, vectors, tmp_path, method):
        U, E = vectors
        original = ServingEngine(
            U, E, np.arange(E.shape[0]), top_k_events=3, backend=method
        )
        path = save_engine(original, tmp_path / "reco.npz")
        restored = load_engine(path)
        assert restored.backend_name == method
        assert restored.top_k_events == 3
        assert restored.n_candidate_pairs == original.n_candidate_pairs
        for user in (0, 7):
            a = original.recommend(user, n=4)
            b = restored.recommend(user, n=4)
            assert [(r.event, r.partner) for r in a] == [
                (r.event, r.partner) for r in b
            ]
            assert [r.score for r in a] == pytest.approx([r.score for r in b])

    def test_unpruned_recommender_round_trip(self, vectors, tmp_path):
        U, E = vectors
        original = ServingEngine(U, E, np.arange(E.shape[0]))
        restored = load_engine(save_engine(original, tmp_path / "r.npz"))
        assert restored.top_k_events is None
        assert restored.n_candidate_pairs == original.n_candidate_pairs

    def test_rejects_foreign_npz(self, tmp_path):
        np.savez(tmp_path / "other.npz", data=np.ones(3))
        with pytest.raises(ValueError):
            load_engine(tmp_path / "other.npz")
