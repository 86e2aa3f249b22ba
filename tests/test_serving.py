"""Tests for the unified serving engine (backends, versioning, refresh,
batching, caching, telemetry)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.online import BruteForceIndex, ThresholdAlgorithmIndex
from repro.online.transform import PairSpace
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall
from repro.serving import (
    CandidateIndex,
    MetricsRegistry,
    ServingEngine,
    ShardedServingEngine,
)


def random_vectors(rng, n_events=12, n_partners=18, k=5, sparsity=0.4):
    E = np.abs(rng.normal(0.3, 0.3, (n_events, k)))
    U = np.abs(rng.normal(0.3, 0.3, (n_partners, k)))
    E[rng.random(E.shape) < sparsity] = 0.0
    U[rng.random(U.shape) < sparsity] = 0.0
    return E, U


def default_k(n_events):
    """Fig 7's pruning level: 5% of the candidate events."""
    return max(1, round(0.05 * n_events))


def make_engine(rng, backend="ta", pruned=False, **kwargs):
    """``pruned``: at :func:`default_k`, what the retired ``*-pruned`` names meant."""
    E, U = random_vectors(rng)
    if pruned:
        kwargs["top_k_events"] = default_k(E.shape[0])
    return ServingEngine(U, E, np.arange(E.shape[0]), backend=backend, **kwargs)


class TestBackendRegistry:
    def test_unknown_backend_rejected(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError, match="unknown backend 'psychic'"):
            CandidateIndex(U, E, np.arange(E.shape[0]), backend="psychic")

    def test_engine_rejects_unknown_backend(self, rng):
        # The retired spellings are unknown names now; the message says
        # where their behaviour went.
        E, U = random_vectors(rng)
        for name in ("ta-pruned", "bruteforce-pruned", "ivf"):
            for build in (ServingEngine, ShardedServingEngine):
                extra = {"n_shards": 2} if build is ShardedServingEngine else {}
                with pytest.raises(ValueError, match="top_k_events.*ivf_clusters"):
                    build(U, E, np.arange(E.shape[0]), backend=name, **extra)

    def test_default_backend_is_the_fast_exact_scan(self, rng):
        # GEM-BF over the factored space is the default on every
        # construction surface; GEM-TA stays one keyword away.
        E, U = random_vectors(rng)
        cand = np.arange(E.shape[0])
        engine = ServingEngine(U, E, cand)
        assert engine.backend_name == CandidateIndex(U, E, cand).label
        assert type(engine.backend) is BruteForceIndex
        with ShardedServingEngine(U, E, cand, n_shards=2).warm() as fleet:
            assert {type(s.backend) for s in fleet.shards} == {BruteForceIndex}
        ta = ServingEngine(U, E, cand, backend="ta")
        assert type(ta.backend) is ThresholdAlgorithmIndex
        assert ta.query(0, 4).pair_indices.tolist() == (
            engine.query(0, 4).pair_indices.tolist()
        )

    def test_default_k_prunes_like_the_retired_pruned_backends(self, rng):
        full = make_engine(rng, backend="ta")
        k = default_k(full.candidate_events.size)
        pruned = make_engine(rng, backend="ta", pruned=True)
        assert pruned.top_k_events == k
        assert pruned.n_candidate_pairs == k * pruned.candidate_partners.size
        assert pruned.n_candidate_pairs < full.n_candidate_pairs
        # Pruning is the primary index's: the ladder gains no rung.
        assert pruned.warm_ladder().index.snapshot().rungs() == ("full", "truncated")

    def test_memory_bytes_reported(self, rng):
        engine = make_engine(rng, backend="ta")
        assert engine.memory_bytes() == 0  # lazy: nothing built yet
        engine.warm()
        assert engine.memory_bytes() > 0
        # TA keeps the dense points and sorted lists on top of the
        # factored space, which is all a scan needs: 8 B per pair (its
        # interaction; a cross pair's rows are its position) plus the
        # candidates' factor rows and ids.
        ta = engine.backend
        assert engine.memory_bytes() == (
            engine.space.nbytes + ta.points.nbytes + ta.sorted_lists.nbytes
        )
        bf = make_engine(rng, backend="bruteforce", ivf_clusters=4).warm_ladder()
        space = bf.space
        n_rows = space.candidate_events.size + space.candidate_partners.size
        # Plus one float64 ``cross_max`` per event row: the
        # query-independent half of brute force's per-event bound.
        assert bf.memory_bytes() == space.nbytes == (
            8 * space.n_pairs
            + n_rows * 8 * (space.embedding_dim + 1)
            + 8 * space.candidate_events.size
        )
        # The ivf sibling adds labels, order and a cluster-major
        # (event row, partner row, c) copy of the pairs, 16 B each — no
        # second dense matrix.
        ivf = bf._ivf_index
        assert ivf.memory_bytes() == space.nbytes + 32 * space.n_pairs + (
            ivf.centroids.nbytes + ivf._offsets.nbytes
        )


class TestLazyBuildAndVersioning:
    def test_build_is_lazy(self, rng):
        engine = make_engine(rng)
        assert not engine.is_built
        assert engine.build_stats.n_full_builds == 0
        engine.recommend(0, n=3)
        assert engine.is_built
        assert engine.build_stats.n_full_builds == 1

    def test_space_carries_engine_version(self, rng):
        engine = make_engine(rng)
        assert engine.space.version == engine.version == 1

    def test_rebuild_bumps_version(self, rng):
        engine = make_engine(rng).warm()
        engine.rebuild()
        assert engine.version == 2
        assert engine.space.version == 2
        assert engine.build_stats.n_full_builds == 2


class TestUserValidation:
    @pytest.mark.parametrize("bad_user", [-1, 18, 1000])
    def test_engine_raises_value_error(self, rng, bad_user):
        engine = make_engine(rng)
        with pytest.raises(ValueError, match="out of range"):
            engine.query(bad_user, 3)

    def test_batch_validates_every_user(self, rng):
        # The bulk path checks every user before it serves any of them.
        engine = make_engine(rng)
        with pytest.raises(ValueError, match="out of range"):
            engine.recommend_many([0, 1, 999], n=3)
        assert not engine.is_built
        assert len(engine.metrics) == 0


class TestResultCache:
    def test_repeat_query_hits_cache(self, rng):
        engine = make_engine(rng, cache_size=8)
        first = engine.query(2, 4)
        second = engine.query(2, 4)
        assert second is first  # the cached object itself
        records = engine.metrics.records
        assert [r.cache_hit for r in records] == [False, True]

    def test_cache_disabled(self, rng):
        engine = make_engine(rng, cache_size=0)
        engine.query(2, 4)
        engine.query(2, 4)
        assert all(not r.cache_hit for r in engine.metrics.records)

    def test_cache_evicts_lru(self, rng):
        engine = make_engine(rng, cache_size=2)
        engine.query(0, 3)
        engine.query(1, 3)
        engine.query(2, 3)  # evicts user 0
        assert len(engine._cache) == 2
        engine.query(1, 3)
        assert engine.metrics.records[-1].cache_hit

    def test_stale_answers_do_not_pin_retired_pair_spaces(self, rng):
        # The stale-answer cache outlives version bumps on purpose; its
        # entries must hold decoded answers, not the PairSpace they were
        # scanned from.
        engine = make_engine(rng, backend="bruteforce").warm()
        assert engine.recommend_within(0, 3, budget_s=5.0).answered
        engine.query(1, 3)
        old_pairs = weakref.ref(engine.space.interaction)
        engine.rebuild()
        gc.collect()
        assert old_pairs() is None
        assert len(engine._stale) == 2  # the answers themselves survive

    def test_refresh_invalidates_cache(self, rng):
        # A refresh publishes a new version, and a cached answer replays
        # only at its own: over either backend the read after it is a
        # scan, equal to a fresh engine's, and the repeat is a hit.
        # rebuild() retires it the same way.
        def append_one_event(*engines):
            K = engines[0].event_vectors.shape[1]
            for e in engines:
                assert e.refresh(
                    np.array([e.n_events]), new_event_vectors=np.ones((1, K))
                )

        for backend in ("bruteforce", "ta"):
            engine, fresh = (
                make_engine(np.random.default_rng(5), backend, **size).warm()
                for size in ({"cache_size": 8}, {"cache_size": 0})
            )
            engine.query(0, 3)
            append_one_event(engine, fresh)
            got, ref = engine.query(0, 3), fresh.query(0, 3)
            for field in ("pair_indices", "scores", "event_ids", "partner_ids"):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(ref, field)
                )
            last = engine.metrics.records[-1]
            assert not last.cache_hit and last.exact and last.rung == "full"
            assert last.version == engine.version == 2
            assert engine.query(0, 3) is got  # stored: the repeat is a hit
            last = engine.metrics.records[-1]
            assert last.cache_hit and last.n_examined == 0
            engine.rebuild()
            engine.query(0, 3)
            assert not engine.metrics.records[-1].cache_hit


#: One step of the property below: a read of (user, n), a refresh that
#: appends copies of served events, or a rebuild.
_steps = st.one_of(
    st.tuples(
        st.just("read"),
        st.integers(min_value=0, max_value=17),
        st.sampled_from([1, 4, 30]),
    ),
    st.tuples(st.just("refresh"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("rebuild")),
)


class TestAWriteRetiresCachedAnswers:
    """The answer cache replays; a write retires it."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.sampled_from([None, 2]),
        backend=st.sampled_from(["bruteforce", "ta"]),
        pruned=st.booleans(),
        steps=st.lists(_steps, max_size=30),
    )
    @example(
        seed=0, n_shards=None, backend="bruteforce", pruned=False,
        steps=[("read", 3, 4), ("refresh", 2), ("read", 3, 4), ("read", 3, 4)],
    )
    @example(
        seed=1, n_shards=2, backend="bruteforce", pruned=False,
        steps=[("read", 5, 4), ("refresh", 1), ("read", 5, 4), ("rebuild",),
               ("read", 5, 4)],
    )
    @settings(max_examples=40, deadline=None)
    def test_property_cached_engine_equals_its_cacheless_twin(
        self, seed, n_shards, backend, pruned, steps
    ):
        """Over any reads, refreshes and rebuilds, a cached engine answers
        as its cache-less twin, field for field; a read is a hit exactly
        when its ``(user, n)`` was read since the last write, and a hit
        scans nothing."""
        rng = np.random.default_rng(seed)
        E, U = random_vectors(rng)
        k = default_k(E.shape[0]) if pruned else None

        def engine(cache_size):
            options = dict(backend=backend, top_k_events=k, cache_size=cache_size)
            if n_shards is None:
                return ServingEngine(U, E, np.arange(E.shape[0]), **options)
            return ShardedServingEngine(
                U, E, np.arange(E.shape[0]), n_shards=n_shards, **options
            )

        cached, twin = engine(256).warm(), engine(0).warm()
        read, served = set(), np.arange(E.shape[0])
        for step in steps:
            if step[0] == "read":
                got, want = cached.query(*step[1:]), twin.query(*step[1:])
                for field in ("pair_indices", "event_ids", "partner_ids"):
                    np.testing.assert_array_equal(
                        getattr(got, field), getattr(want, field), err_msg=field
                    )
                assert got.scores.tobytes() == want.scores.tobytes()
                stats = cached.metrics.records[-1]
                assert stats.cache_hit == (step[1:] in read)
                assert stats.cache_hit == (stats.n_examined == 0)
                read.add(step[1:])
                served = got.event_ids if got.event_ids.size else served
                continue
            if step[0] == "refresh":
                # Copies of served events tie with their originals, so
                # they enter the top-n lists across the append.
                copies = cached.event_vectors[rng.choice(served, step[1])]
                ids = np.arange(cached.n_events, cached.n_events + step[1])
                for e in (cached, twin):
                    assert e.refresh(ids, copies) == step[1]
            else:
                cached.rebuild()
                twin.rebuild()
            read.clear()
        cached.close()
        twin.close()



class TestDensePointsAreForTaOnly:
    """The (n_pairs, 2K+1) matrix is the TA index's, never a scan's."""

    @pytest.fixture()
    def taken(self, monkeypatch):
        """Pair counts of every space whose dense points were materialised."""
        sizes = []
        dense = PairSpace.points.fget

        def counting(space):
            sizes.append(space.n_pairs)
            return dense(space)

        monkeypatch.setattr(PairSpace, "points", property(counting))
        return sizes

    def test_bruteforce_ivf_and_truncated_paths_never_materialise(
        self, rng, taken
    ):
        engine = make_engine(
            rng, backend="bruteforce", cache_size=0, ivf_clusters=4, ivf_nprobe=2
        )
        engine.warm()
        assert taken == []
        engine.warm_ladder()
        assert taken == []
        K = engine.event_vectors.shape[1]
        engine.refresh(
            np.array([engine.n_events]), new_event_vectors=np.full((1, K), 0.5)
        )
        assert taken == []
        assert engine.index.snapshot().rungs() == ("full", "ivf", "truncated")
        engine.recommend(0, 3)
        sites = {"full": "backend.query", "ivf": "backend.ivf"}
        try:
            for rung, failed in (("full", ()), ("ivf", ("full",)),
                                 ("truncated", ("full", "ivf"))):
                install(FaultPlan(
                    [FaultSpec(site=sites[r], error_rate=1.0) for r in failed]
                ))
                out = engine.recommend_within(1, 3, budget_s=5.0)
                assert out.answered and out.rung == rung
        finally:
            uninstall()
        assert taken == []

    def test_ta_engine_still_does(self, rng, taken):
        engine = make_engine(rng, backend="ta").warm()
        assert taken == [engine.n_candidate_pairs]
        assert engine.backend.points.shape == (
            engine.n_candidate_pairs, engine.space.dim
        )


class TestRefresh:
    def test_refresh_is_incremental(self, rng):
        engine = make_engine(rng, backend="ta").warm()
        n_partners = engine.candidate_partners.size
        old_pairs = engine.n_candidate_pairs
        transformed_before = engine.build_stats.n_pairs_transformed
        old_points = engine.space.dense_rows(0, old_pairs)

        K = engine.event_vectors.shape[1]
        new_vecs = np.abs(np.full((2, K), 0.5))
        added = engine.refresh(
            np.arange(engine.n_events, engine.n_events + 2),
            new_event_vectors=new_vecs,
        )
        assert added == 2
        assert engine.version == 2
        assert engine.space.version == 2
        # No cold rebuild: only the new (event x partner) pairs were
        # transformed, and the pre-existing rows are untouched.
        assert engine.build_stats.n_full_builds == 1
        assert engine.build_stats.n_incremental_refreshes == 1
        assert (
            engine.build_stats.n_pairs_transformed - transformed_before
            == 2 * n_partners
        )
        assert engine.n_candidate_pairs == old_pairs + 2 * n_partners
        np.testing.assert_array_equal(
            engine.space.dense_rows(0, old_pairs), old_points
        )
        np.testing.assert_array_equal(
            engine.backend.points[:old_pairs], old_points
        )

    @pytest.mark.parametrize("backend", ["ta", "bruteforce"])
    def test_refreshed_engine_matches_cold_build(self, rng, backend):
        E, U = random_vectors(rng)
        K = E.shape[1]
        extra = np.abs(
            np.random.default_rng(5).normal(0.3, 0.3, (3, K))
        )
        incremental = ServingEngine(
            U, E, np.arange(E.shape[0]), backend=backend, cache_size=0
        ).warm()
        incremental.refresh(
            np.arange(E.shape[0], E.shape[0] + 3), new_event_vectors=extra
        )
        cold = ServingEngine(
            U,
            np.vstack([E, extra]),
            np.arange(E.shape[0] + 3),
            backend=backend,
            cache_size=0,
        )
        for user in (0, 4, 9):
            a = incremental.recommend(user, n=6)
            b = cold.recommend(user, n=6)
            assert [(r.event, r.partner) for r in a] == [
                (r.event, r.partner) for r in b
            ]
            assert [r.score for r in a] == pytest.approx(
                [r.score for r in b], rel=1e-9
            )

    def test_refresh_serves_new_events(self, rng):
        engine = make_engine(rng).warm()
        K = engine.event_vectors.shape[1]
        # A dominant event: every user's best recommendation.
        hot = np.full((1, K), 10.0)
        new_id = engine.n_events
        engine.refresh(np.array([new_id]), new_event_vectors=hot)
        recs = engine.recommend(0, n=3)
        assert recs[0].event == new_id

    def test_refresh_before_build_defers_to_lazy_build(self, rng):
        engine = make_engine(rng)
        K = engine.event_vectors.shape[1]
        engine.refresh(
            np.array([engine.n_events]),
            new_event_vectors=np.abs(np.ones((1, K))),
        )
        assert not engine.is_built
        engine.warm()
        assert engine.build_stats.n_full_builds == 1
        assert engine.build_stats.n_incremental_refreshes == 0
        assert engine.n_events - 1 in set(engine.space.event_ids.tolist())

    def test_refresh_skips_already_served_events(self, rng):
        engine = make_engine(rng).warm()
        version = engine.version
        assert engine.refresh(np.array([0, 1])) == 0
        assert engine.version == version

    def test_refresh_rejects_unknown_ids_without_vectors(self, rng):
        engine = make_engine(rng).warm()
        with pytest.raises(ValueError, match="outside the embedding matrix"):
            engine.refresh(np.array([engine.n_events]))

    def test_refresh_rejects_misaligned_ids(self, rng):
        engine = make_engine(rng).warm()
        K = engine.event_vectors.shape[1]
        with pytest.raises(ValueError, match="appended embedding rows"):
            engine.refresh(
                np.array([engine.n_events + 5]),
                new_event_vectors=np.ones((1, K)),
            )


class TestTelemetry:
    def test_query_stats_recorded(self, rng):
        metrics = MetricsRegistry()
        engine = make_engine(rng, metrics=metrics)
        engine.query(1, 4)
        (record,) = metrics.records
        assert record.user == 1
        assert record.n == 4
        assert record.backend == "ta"
        assert record.version == 1
        assert record.n_candidates == engine.n_candidate_pairs
        assert 0 < record.n_examined <= record.n_candidates
        assert record.seconds_total > 0
        assert record.seconds_retrieval > 0
        assert not record.cache_hit
        assert record.as_dict()["user"] == 1

    def test_summary_filters(self, rng):
        metrics = MetricsRegistry()
        ta = make_engine(rng, backend="ta", metrics=metrics)
        bf = make_engine(rng, backend="bruteforce", metrics=metrics)
        for u in (0, 1):
            ta.query(u, 5)
            bf.query(u, 5)
        assert metrics.summary()["n_queries"] == 4
        assert metrics.summary(backend="ta")["n_queries"] == 2
        assert metrics.summary(backend="bruteforce", n=5)[
            "mean_fraction_examined"
        ] == pytest.approx(1.0)
        metrics.reset()
        assert len(metrics) == 0

    def test_concurrent_record_loses_nothing(self):
        # The class docstring guarantees lock-protected concurrent
        # record()/record_shed(); this is the threaded stress test that
        # guarantee points at.  N threads x M records each, plus
        # concurrent readers: every record and shed must survive.
        import threading

        from repro.serving.telemetry import QueryStats

        metrics = MetricsRegistry()
        n_threads, per_thread = 8, 250
        start = threading.Barrier(n_threads + 1)

        def writer(tid):
            start.wait()
            for i in range(per_thread):
                metrics.record(
                    QueryStats(
                        user=tid,
                        n=5,
                        backend="ta",
                        version=1,
                        n_candidates=100,
                        n_examined=i,
                        n_sorted_accesses=i,
                        fraction_examined=0.1,
                        seconds_total=0.001 * (tid + 1),
                        rung="full" if i % 2 else "ivf",
                    )
                )
                if i % 10 == 0:
                    metrics.record_shed("queue_full")

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        start.wait()
        # Concurrent readers must see consistent snapshots, not crash.
        for _ in range(50):
            metrics.summary()
            metrics.shed_counts()
        for t in threads:
            t.join()

        assert len(metrics) == n_threads * per_thread
        assert metrics.n_shed == n_threads * (per_thread // 10)
        assert metrics.shed_counts() == {"queue_full": metrics.n_shed}
        per_user = [metrics.summary(user=t)["n_queries"] for t in range(n_threads)]
        assert per_user == [per_thread] * n_threads
        rungs = metrics.rung_summary()
        assert rungs["full"]["count"] + rungs["ivf"]["count"] == len(metrics)

    def test_percentiles_nearest_rank(self):
        from repro.serving.telemetry import QueryStats

        metrics = MetricsRegistry()
        for i in range(1, 101):
            metrics.record(
                QueryStats(
                    user=0,
                    n=1,
                    backend="ta",
                    version=1,
                    n_candidates=1,
                    n_examined=1,
                    n_sorted_accesses=0,
                    fraction_examined=1.0,
                    seconds_total=i / 1000.0,
                )
            )
        p = metrics.percentiles()
        assert p["p50"] == pytest.approx(0.050)
        assert p["p95"] == pytest.approx(0.095)
        assert p["p99"] == pytest.approx(0.099)
        assert metrics.percentiles(qs=(100.0,))["p100"] == pytest.approx(0.1)
