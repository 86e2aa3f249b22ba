"""Tests for streaming ingestion: snapshot publication + fold-in pump.

The load-bearing test is :meth:`TestDoubleBufferedEngine.
test_fold_into_engine_old_or_new_only`: concurrent queries against an
engine being folded into must only ever observe *complete* index
versions — each recorded ``(version, n_candidates)`` pair matches a
published snapshot exactly, never a half-published combination.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.embeddings import EmbeddingSet
from repro.core.fold_in import EventFoldIn, FoldInConfig
from repro.data import ArrivalTraceConfig, generate_arrival_trace
from repro.data.synthetic import SyntheticConfig
from repro.ebsn.graphs import EntityType
from repro.ebsn.regions import RegionAssignment
from repro.ebsn.text import build_vocabulary
from repro.ebsn.timeslots import N_TIME_SLOTS
from repro.obs import foldin_families, parse_exposition, render_exposition
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall
from repro.serving import (
    DoubleBufferedEngine,
    FoldInPump,
    ServingEngine,
    ShardedServingEngine,
)
from tests.test_conformance import DIM as Q_DIM
from tests.test_conformance import N_USERS as Q_USERS
from tests.test_conformance import _Gate, oracle, triples

DIM = 8
SYN = SyntheticConfig(n_topics=3, words_per_topic=10, n_common_words=8)


def make_engine(*, users=30, events=40, seed=7, n_shards=None):
    """A warmed engine over one synthetic model (sharded with ``n_shards``)."""
    rng = np.random.default_rng(seed)
    user_vectors = np.abs(rng.normal(size=(users, DIM))).astype(np.float32)
    event_vectors = np.abs(rng.normal(size=(events, DIM))).astype(np.float32)
    args = (user_vectors, event_vectors, np.arange(events, dtype=np.int64))
    if n_shards is None:
        return ServingEngine(*args, backend="ta", cache_size=0).warm()
    return ShardedServingEngine(
        *args, n_shards=n_shards, backend="ta", cache_size=0
    ).warm()


def make_folder(seed=3) -> EventFoldIn:
    """A fold-in learner over a tiny attribute world matching ``SYN``."""
    documents = [
        [f"t{t}w{i}" for i in range(SYN.words_per_topic)]
        for t in range(SYN.n_topics)
    ] + [[f"common{i}" for i in range(SYN.n_common_words)]]
    vocabulary = build_vocabulary(documents)
    n_regions = 4
    rng = np.random.default_rng(seed)
    centroids = np.column_stack(
        [
            SYN.city_lat + rng.normal(0.0, 0.05, size=n_regions),
            SYN.city_lon + rng.normal(0.0, 0.05, size=n_regions),
        ]
    )
    regions = RegionAssignment(
        venue_ids=[f"r{i}" for i in range(n_regions)],
        labels=np.arange(n_regions),
        n_regions=n_regions,
        n_clustered_regions=n_regions,
        centroids=centroids,
    )
    embeddings = EmbeddingSet.random(
        {
            EntityType.WORD: len(vocabulary),
            EntityType.TIME: N_TIME_SLOTS,
            EntityType.LOCATION: n_regions,
        },
        DIM,
        rng=rng,
    )
    return EventFoldIn(embeddings, vocabulary, regions)


def make_arrivals(n, *, seed=5, **kwargs):
    trace = ArrivalTraceConfig(
        n_arrivals=n, duration_s=0.2, seed=seed, **kwargs
    )
    return generate_arrival_trace(SYN, trace)


def fold_vectors(rng, n):
    return np.abs(rng.normal(size=(n, DIM))).astype(np.float32)


class TestArrivalTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalTraceConfig(n_arrivals=0).validate()
        with pytest.raises(ValueError):
            ArrivalTraceConfig(duration_s=0.0).validate()
        with pytest.raises(ValueError):
            ArrivalTraceConfig(flash_crowds=-1).validate()
        with pytest.raises(ValueError):
            ArrivalTraceConfig(flash_crowd_mass=1.5).validate()

    def test_deterministic_and_sorted(self):
        a = make_arrivals(24, seed=9)
        b = make_arrivals(24, seed=9)
        assert [x.offset_s for x in a] == [x.offset_s for x in b]
        assert [x.event.description for x in a] == [
            x.event.description for x in b
        ]
        offsets = [x.offset_s for x in a]
        assert offsets == sorted(offsets)
        assert all(0.0 <= o <= 0.2 for o in offsets)

    def test_flash_crowd_concentrates_arrivals(self):
        def tightest_half_window(arrivals):
            offsets = sorted(x.offset_s for x in arrivals)
            half = len(offsets) // 2
            return min(
                offsets[i + half] - offsets[i]
                for i in range(len(offsets) - half)
            )

        smooth = make_arrivals(40, seed=9)
        bursty = make_arrivals(
            40,
            seed=9,
            flash_crowds=1,
            flash_crowd_width=0.01,
            flash_crowd_mass=0.9,
        )
        assert tightest_half_window(bursty) < tightest_half_window(smooth) / 2

    def test_tokens_recognised_by_matching_vocabulary(self):
        folder = make_folder()
        events = [a.event for a in make_arrivals(4)]
        vectors = folder.fold_in_many(events, FoldInConfig(n_steps=5))
        assert vectors.shape == (4, DIM)
        assert np.all(np.linalg.norm(vectors, axis=1) > 0)


class TestDoubleBufferedEngine:
    """The engine's refresh is the streaming front; the adapter the
    benchmark spine still builds answers as its primary."""

    def test_refresh_flips_and_serves(self):
        engine = make_engine(events=20)
        shadow = make_engine(events=20)
        front = DoubleBufferedEngine(engine, shadow)
        assert front.active is engine and front.replicas == (engine,)
        assert front.metrics is engine.metrics
        rng = np.random.default_rng(1)
        v0, n0 = front.version, front.n_events
        added = front.refresh(
            np.arange(n0, n0 + 3, dtype=np.int64), fold_vectors(rng, 3)
        )
        assert added == 3 and front.swap_count == 1
        assert (engine.version, engine.n_events) == (v0 + 1, n0 + 3)
        assert front.refresh(np.arange(n0, n0 + 1, dtype=np.int64)) == 0
        assert front.swap_count == 2  # every refresh call, as the flip was
        assert front.memory_bytes() == engine.memory_bytes()
        result = front.query(1, n=4)
        want = engine.query(1, n=4)
        np.testing.assert_array_equal(result.pair_indices, want.pair_indices)
        np.testing.assert_array_equal(result.scores, want.scores)

    def test_sharded_replicas_supported(self):
        rng = np.random.default_rng(11)
        user_vectors = np.abs(rng.normal(size=(10, DIM))).astype(np.float32)
        event_vectors = np.abs(rng.normal(size=(12, DIM))).astype(np.float32)

        def replica() -> ShardedServingEngine:
            return ShardedServingEngine(
                user_vectors,
                event_vectors,
                np.arange(12, dtype=np.int64),
                n_shards=2,
                cache_size=0,
            )

        primary, shadow = replica(), replica()
        front = DoubleBufferedEngine(primary, shadow)
        # The shadow is closed at construction and never built.
        with pytest.raises(RuntimeError, match="closed"):
            shadow.warm()
        front.warm()
        assert front.active.shards is primary.shards
        v0, n0 = front.version, front.n_events
        front.refresh(
            np.arange(n0, n0 + 2, dtype=np.int64), fold_vectors(rng, 2)
        )
        assert (primary.version, primary.n_events) == (v0 + 1, n0 + 2)
        assert front.query(3, n=4).pair_indices.size == 4
        front.close()

    def test_fold_into_engine_old_or_new_only(self):
        """Concurrent queries during folds see complete versions only —
        over a plain engine and a 2-shard one."""
        for n_shards in (None, 2):
            engine = make_engine(users=24, events=32, n_shards=n_shards)
            folder = make_folder()
            events = [a.event for a in make_arrivals(9)]
            snapshots = {engine.version: engine.n_candidate_pairs}
            stop = threading.Event()
            failures: list[str] = []

            def reader(seed: int) -> None:
                rng = np.random.default_rng(seed)
                try:
                    while not stop.is_set():
                        engine.query(int(rng.integers(0, 24)), 5)
                except Exception as exc:  # pragma: no cover - surfaced below
                    failures.append(f"reader {seed}: {exc!r}")

            threads = [
                threading.Thread(target=reader, args=(s,), daemon=True)
                for s in range(4)
            ]
            for t in threads:
                t.start()
            config = FoldInConfig(n_steps=8, seed=2)
            try:
                for start in range(0, len(events), 3):
                    folder.fold_into_engine(
                        engine, events[start:start + 3], config
                    )
                    snapshots[engine.version] = engine.n_candidate_pairs
                    time.sleep(0.01)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=10)
                engine.close()
            assert not failures
            assert engine.version == 4
            allowed = set(snapshots.items())
            observed = {
                (r.version, r.n_candidates) for r in engine.metrics.records
            }
            torn = observed - allowed
            assert not torn, f"half-published index observed: {torn}"
            # The queries actually ran, and spanned the folds.
            assert len(engine.metrics) > 0
            assert {v for v, _ in observed} <= set(snapshots)


Q_EVENTS = 6


def quantised(seed, rows):
    """Entries in {0, 0.5, 1}, the conformance suite's kind of world: every
    Eqn-8 score is exact, ties everywhere, and its oracle applies."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(rows, Q_DIM)).astype(np.float64) * 0.5


def eqn8_top_n(users, events, user, n):
    """The conformance oracle over every event of ``events``."""
    return oracle((users, events), np.arange(len(events)), user, n)


class _FirstPassGate(_Gate):
    """Holds only the first pass through its sites: a reader parked on one
    shard leg keeps one fan-out worker, and the rest of the pool serves."""

    def __init__(self, *sites):
        super().__init__(*sites)
        self._first = threading.Lock()

    def should_error(self, spec):
        if not self._first.acquire(blocking=False):
            return False  # never released: every later pass goes through
        return super().should_error(spec)


def make_cached_engine(users, events, **kwargs):
    """A 2-shard engine that caches answers."""
    return ShardedServingEngine(
        users,
        events,
        np.arange(len(events), dtype=np.int64),
        n_shards=2,
        cache_size=32,
        **kwargs,
    ).warm()


class TestAnswersFollowTheActiveReplica:
    """The one answer cache under concurrent refreshes: old-or-new, never
    topped up past the snapshot a reader loaded.  Gated on events, never
    sleeps."""

    @pytest.fixture(autouse=True)
    def clean_faults(self):
        uninstall()
        yield
        uninstall()

    def test_cached_answers_are_old_or_new_only(self):
        flips, reads_per_flip, hot = 6, 40, (0, 3, 7, 16)
        users, events = quantised(1, Q_USERS), quantised(2, Q_EVENTS)
        batches = [quantised(10 + k, 2) for k in range(flips)]
        batches[2][0] = events[1]  # ties across the old/new boundary
        served = {1: events}  # version -> the events it serves
        for k, batch in enumerate(batches):
            served[k + 2] = np.vstack([served[k + 1], batch])
        answers, failures = [], []
        progress = threading.Condition()
        stop = threading.Event()

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    user, n = int(rng.choice(hot)), int(rng.choice((3, 8)))
                    out = engine.recommend_within(user, n, budget_s=600.0)
                    with progress:
                        answers.append((user, n, out))
                        progress.notify_all()
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(f"reader {seed}: {exc!r}")

        with make_cached_engine(users, events) as engine:
            threads = [
                threading.Thread(target=reader, args=(s,), daemon=True)
                for s in range(3)
            ]
            for t in threads:
                t.start()
            try:
                for k in range(flips + 1):
                    # Each version is read, cached and re-read before the
                    # next refresh — and after the last one.
                    with progress:
                        assert progress.wait_for(
                            lambda: len(answers) >= (k + 1) * reads_per_flip
                            or failures,
                            timeout=120,
                        )
                    if k < flips:
                        base = engine.n_events
                        engine.refresh(np.arange(base, base + 2), batches[k])
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
        assert not failures
        assert engine.version == flips + 1
        for user, n, out in answers:
            assert out.answered and out.rung == "full" and out.stats.exact
            seen = served[out.stats.version]
            # Never a mix, never a newer answer under an older version:
            # exactly the events of the version the stats carry.
            assert out.stats.n_candidates == len(seen) * Q_USERS
            got = triples(out.recommendations)
            assert got == eqn8_top_n(users, seen, user, n)
            assert len({(e, p) for e, p, _ in got}) == len(got)
        stats = [out.stats for _, _, out in answers]
        # Almost every read was a hit or a top-up of exactly one batch.
        assert sum(s.cache_hit for s in stats) > len(stats) - 8 * (flips + 1)
        topped = [s for s in stats if s.cache_hit and s.n_examined]
        assert topped and {s.n_examined for s in topped} <= {
            k * 2 * Q_USERS for k in range(1, flips + 1)
        }

    def test_stragglers_late_store_stays_on_the_retired_replica(self):
        # A straggler is a batch held on an older snapshot: recommend_many
        # serves every request from the snapshot current at its call.
        users, events = quantised(3, Q_USERS), quantised(4, Q_EVENTS)
        batches = [quantised(20, 2), quantised(21, 2)]
        after = [np.vstack([events, *batches[:k]]) for k in range(3)]
        user, n, first = 5, 6, 9
        with make_cached_engine(users, events) as engine:
            gate = _FirstPassGate("backend.query")
            install(gate)
            late = []
            straggler = threading.Thread(
                target=lambda: late.extend(
                    engine.recommend_many(
                        np.array([first, user]), n, budget_s=600.0, workers=1
                    )
                ),
                daemon=True,
            )
            straggler.start()
            try:
                # Its first request is held inside its scan of version 1.
                assert gate.entered.wait(timeout=60)
                uninstall()
                engine.refresh(np.arange(6, 8), batches[0])
                newer = engine.recommend_within(user, n, budget_s=600.0)
                assert newer.stats.version == 2
                assert engine._cache[(user, n)][1].n_events == Q_EVENTS + 2
            finally:
                gate.release.set()
                straggler.join(timeout=60)
            assert not straggler.is_alive()
            # The straggler's (user, n) request found the newer entry and
            # did not take it: it scanned the version it was pinned to...
            _, old = late
            assert old.stats.version == 1 and not old.stats.cache_hit
            assert triples(old.recommendations) == eqn8_top_n(
                users, after[0], user, n
            )
            # ...and its late store did not write over the newer entry.
            assert engine._cache[(user, n)][1].n_events == Q_EVENTS + 2
            again = engine.recommend_within(user, n, budget_s=600.0)
            assert again.stats.cache_hit and again.stats.n_examined == 0
            assert (
                triples(again.recommendations)
                == triples(newer.recommendations)
                == eqn8_top_n(users, after[1], user, n)
            )
            # The next refresh leaves it one batch behind: the top-up
            # scans one batch, not the two a surviving late store would.
            engine.refresh(np.arange(8, 10), batches[1])
            final = engine.recommend_within(user, n, budget_s=600.0)
            assert final.stats.cache_hit
            assert final.stats.n_examined == 2 * Q_USERS
            assert triples(final.recommendations) == eqn8_top_n(
                users, after[2], user, n
            )

    def test_a_parked_reader_blocks_neither_refresh_nor_rebuild(self):
        users, events = quantised(7, Q_USERS), quantised(8, Q_EVENTS)
        with make_cached_engine(users, events) as engine:
            gate = _FirstPassGate("backend.query")
            install(gate)
            parked = []
            reader = threading.Thread(
                target=lambda: parked.append(engine.query(4, 5)), daemon=True
            )
            reader.start()
            written = threading.Event()

            def writer():
                engine.refresh(np.arange(6, 8), quantised(9, 2))
                engine.rebuild()
                written.set()

            try:
                assert gate.entered.wait(timeout=60)
                uninstall()
                threading.Thread(target=writer, daemon=True).start()
                # Both writes finish while the reader is still parked.
                assert written.wait(timeout=60)
                assert reader.is_alive() and not parked
            finally:
                gate.release.set()
                reader.join(timeout=60)
            assert not reader.is_alive()
            assert engine.version == 3
            # The parked reader answered from the snapshot it loaded.
            assert parked[0].n_events == Q_EVENTS
            assert engine.query(4, 5).n_events == Q_EVENTS + 2

    def test_scan_straddling_a_rebuild_stores_nothing_served_later(
        self, monkeypatch
    ):
        # A pruned primary: the appended event keeps all its pairs until
        # rebuild() reapplies the pruning, so pair indices move.
        users, events = quantised(5, Q_USERS), quantised(6, Q_EVENTS + 1)
        user, n = 2, 5

        def engine(**kwargs):
            built = ServingEngine(
                users, events, np.arange(Q_EVENTS), top_k_events=3, **kwargs
            ).warm()
            assert built.refresh(np.array([Q_EVENTS])) == 1
            return built

        served, fresh = engine(cache_size=8), engine(cache_size=0)
        scan = served.index.scan
        scanned, release = threading.Event(), threading.Event()

        def held_after_scanning(*args, **kwargs):
            result = scan(*args, **kwargs)
            scanned.set()
            assert release.wait(timeout=60)
            return result

        monkeypatch.setattr(served.index, "scan", held_after_scanning)
        late = []
        walker = threading.Thread(
            target=lambda: late.append(served.query(user, n)), daemon=True
        )
        walker.start()
        try:
            assert scanned.wait(timeout=60)
            monkeypatch.undo()
            served.rebuild()
            fresh.rebuild()
        finally:
            release.set()
            walker.join(timeout=60)
        assert not walker.is_alive()
        # The old lineage's answer landed in the cache after the rebuild...
        assert served._cache[(user, n)][1] is late[0]
        # ...and is never served: the next read is a miss, scanned afresh.
        got, ref = served.query(user, n), fresh.query(user, n)
        assert not served.metrics.records[-1].cache_hit
        assert got is not late[0]
        for field in ("pair_indices", "scores", "event_ids", "partner_ids"):
            np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))
        assert got.pair_indices.tolist() != late[0].pair_indices.tolist()


class ExplodingFolder:
    """A folder that always fails — exercises the explicit-drop path."""

    def fold_in_many(self, events, config=None):
        raise RuntimeError("boom")


class FlakyFolder:
    """Fails the first ``failures`` folds, then delegates."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures

    def fold_in_many(self, events, config=None):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("transient")
        return self.inner.fold_in_many(events, config)


class CountingFolder:
    """Delegates, counting ``fold_in_many`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def fold_in_many(self, events, config=None):
        self.calls += 1
        return self.inner.fold_in_many(events, config)


class TestFoldInPump:
    def test_knob_validation(self):
        engine = make_engine(events=8)
        folder = make_folder()
        with pytest.raises(ValueError):
            FoldInPump(engine, folder, max_batch=0)
        with pytest.raises(ValueError):
            FoldInPump(engine, folder, max_delay_s=-1.0)
        with pytest.raises(ValueError):
            FoldInPump(engine, folder, max_retries=0)

    def test_ledger_balances_and_staleness_recorded(self):
        engine = make_engine(events=16)
        base = engine.n_events
        pump = FoldInPump(
            engine,
            make_folder(),
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=4,
            max_delay_s=0.01,
        )
        with pump:
            for arrival in make_arrivals(10):
                pump.offer(arrival.event)
            assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["offered"] == 10
        assert counters["visible"] == 10
        assert counters["dropped"] == 0
        assert counters["pending"] == 0
        assert engine.n_events == base + 10
        records = pump.staleness_records()
        assert sum(r.n_events for r in records) == 10
        versions = [r.version for r in records]
        assert versions == sorted(versions)
        assert all(r.lag_max_s >= r.lag_p50_s >= 0.0 for r in records)
        lag = pump.lag_percentiles()
        assert set(lag) == {"p50", "p95", "p99"}
        summary = pump.summary()
        assert summary["batches"] == counters["batches"] == engine.version - 1
        assert summary["versions"][-1]["version"] == engine.version
        scrape = parse_exposition(render_exposition(foldin_families(pump)))
        assert scrape.value("repro_foldin_swaps_total") == counters["batches"]
        assert scrape.series("repro_foldin_errors_total") == 1  # kind="all"

    def test_full_batch_does_not_wait_out_the_delay(self):
        engine = make_engine(events=8)
        pump = FoldInPump(
            engine,
            make_folder(),
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=4,
            max_delay_s=30.0,
        )
        with pump:
            for arrival in make_arrivals(4):
                pump.offer(arrival.event)
            # max_delay_s bounds the wait for a batch to *fill*; a full
            # one folds at once (30 s could not pass inside this drain).
            assert pump.drain(timeout_s=10.0)
            assert pump.counters()["visible"] == 4

    def test_stop_wakes_a_pump_waiting_for_its_batch_to_fill(self):
        engine = make_engine(events=8)
        pump = FoldInPump(
            engine,
            make_folder(),
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=8,
            max_delay_s=600.0,
        ).start()
        for arrival in make_arrivals(2):
            pump.offer(arrival.event)
        # The pump sleeps on its condition, not a poll: stop() must wake
        # it to flush the part-filled batch.  A missed notification would
        # leave the thread asleep for ten minutes — reported here by the
        # bounded join, never by a slow pass.
        pump.stop(drain=False, timeout_s=30.0)
        assert not pump._thread.is_alive()
        assert pump.counters()["visible"] == 2 and pump.pending() == 0

    def test_persistent_failure_is_an_explicit_drop(self):
        engine = make_engine(events=8)
        base = engine.n_events
        pump = FoldInPump(
            engine,
            ExplodingFolder(),
            max_batch=4,
            max_delay_s=0.0,
            max_retries=3,
            retry_backoff_s=0.0,
        )
        # Offer before starting so both land in one deterministic batch.
        for arrival in make_arrivals(2):
            pump.offer(arrival.event)
        with pump:
            assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["dropped"] == 2
        assert counters["visible"] == 0
        assert counters["pending"] == 0
        assert counters["errors"] == 3
        assert engine.n_events == base
        assert "boom" in pump.summary()["last_error"]

    def test_transient_failure_retries_to_visible(self):
        engine = make_engine(events=8)
        pump = FoldInPump(
            engine,
            FlakyFolder(make_folder(), failures=2),
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=8,
            max_delay_s=0.0,
            retry_backoff_s=0.0,
        )
        events = [a.event for a in make_arrivals(3)]
        with pump:
            for event in events:
                pump.offer(event)
            assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["visible"] == 3
        assert counters["dropped"] == 0
        assert counters["errors"] == 2

    def test_apply_fault_retries_without_refolding(self):
        engine = make_engine(events=8)
        folder = CountingFolder(make_folder())
        pump = FoldInPump(
            engine,
            folder,
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=2,
            max_delay_s=0.0,
            retry_backoff_s=0.0,
        )
        # Offered before the start: three deterministic batches of two.
        for arrival in make_arrivals(6):
            pump.offer(arrival.event)
        # Seed 1 fails the applies as F. F. FF. ('.' = published).
        install(
            FaultPlan([FaultSpec(site="foldin.apply", error_rate=0.6)], seed=1)
        )
        try:
            with pump:
                assert pump.drain(timeout_s=30.0)
        finally:
            uninstall()
        counters = pump.counters()
        assert counters["visible"] == 6
        assert counters["dropped"] == 0
        assert counters["errors"] == 4
        assert folder.calls == counters["batches"] == 3

    def test_per_version_history_is_bounded(self):
        bound = 4
        engine = make_engine(events=8)
        pump = FoldInPump(
            engine,
            make_folder(),
            config=FoldInConfig(n_steps=2, seed=2),
            max_batch=1,
            max_delay_s=0.0,
            max_lag_samples=bound,
        )
        for arrival in make_arrivals(3 * bound):
            pump.offer(arrival.event)
        with pump:
            assert pump.drain(timeout_s=30.0)
        assert pump.counters()["batches"] == 3 * bound
        records = pump.staleness_records()
        assert len(records) == bound
        versions = [r.version for r in records]
        assert versions == list(range(engine.version - bound + 1, engine.version + 1))
