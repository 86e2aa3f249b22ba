"""Tests for streaming ingestion: double-buffered swap + fold-in pump.

The load-bearing test is :meth:`TestDoubleBufferedEngine.
test_fold_into_engine_old_or_new_only`: concurrent queries against a
front being folded into must only ever observe *complete* index
versions — each recorded ``(version, n_candidates)`` pair matches a
published snapshot exactly, never a half-swapped combination.
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
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall
from repro.serving import (
    DoubleBufferedEngine,
    FoldInPump,
    LadderPolicy,
    MetricsRegistry,
    ServingEngine,
    ShardedServingEngine,
    SwapWedgedError,
)
from repro.serving.streaming import _ReaderGate
from tests.test_conformance import DIM as Q_DIM
from tests.test_conformance import N_USERS as Q_USERS
from tests.test_conformance import _Gate, oracle, triples

DIM = 8
SYN = SyntheticConfig(n_topics=3, words_per_topic=10, n_common_words=8)


def make_front(
    *, users=30, events=40, seed=7, quiesce_timeout_s=5.0
) -> DoubleBufferedEngine:
    """Twin warmed engines over one synthetic model, shared telemetry."""
    rng = np.random.default_rng(seed)
    user_vectors = np.abs(rng.normal(size=(users, DIM))).astype(np.float32)
    event_vectors = np.abs(rng.normal(size=(events, DIM))).astype(np.float32)
    metrics = MetricsRegistry()
    ladder = LadderPolicy()

    def replica() -> ServingEngine:
        return ServingEngine(
            user_vectors,
            event_vectors,
            np.arange(events, dtype=np.int64),
            backend="ta",
            cache_size=0,
            metrics=metrics,
            ladder=ladder,
        )

    front = DoubleBufferedEngine(
        replica(), replica(), quiesce_timeout_s=quiesce_timeout_s
    )
    front.warm()
    return front


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
    def test_replica_validation(self):
        front = make_front()
        a, b = front.replicas
        with pytest.raises(ValueError):
            DoubleBufferedEngine(a, a)
        rng = np.random.default_rng(0)
        smaller = ServingEngine(
            np.abs(rng.normal(size=(3, DIM))).astype(np.float32),
            np.abs(rng.normal(size=(4, DIM))).astype(np.float32),
            np.arange(4, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            DoubleBufferedEngine(a, smaller)
        with pytest.raises(ValueError):
            DoubleBufferedEngine(a, b, quiesce_timeout_s=0.0)

    def test_refresh_flips_and_serves(self):
        front = make_front(events=20)
        rng = np.random.default_rng(1)
        v0, n0 = front.version, front.n_events

        added = front.refresh(
            np.arange(n0, n0 + 3, dtype=np.int64), fold_vectors(rng, 3)
        )
        assert added == 3
        assert front.version == v0 + 1
        assert front.n_events == n0 + 3
        assert front.swap_count == 1
        # The folded events are queryable through the front.
        assert len(front.recommend(0, n=5)) == 5
        result = front.query(1, n=4)
        assert result.pair_indices.size == 4

    def test_catch_up_keeps_replicas_convergent(self):
        front = make_front(events=16)
        rng = np.random.default_rng(2)
        base = front.n_events
        for k in range(4):
            ids = np.arange(base + k, base + k + 1, dtype=np.int64)
            front.refresh(ids, fold_vectors(rng, 1))
        # The retired replica lags by exactly the last (unreplayed)
        # batch; the replay log holds only what it still needs.
        counts = sorted(r.n_events for r in front.replicas)
        assert counts == [base + 3, base + 4]
        assert len(front._log) <= 1
        # One more refresh catches the laggard up past the previous tip.
        front.refresh(
            np.arange(base + 4, base + 5, dtype=np.int64),
            fold_vectors(rng, 1),
        )
        counts = sorted(r.n_events for r in front.replicas)
        assert counts == [base + 4, base + 5]

    def test_swap_wedged_reader_blocks_then_recovers(self):
        front = make_front(events=12, quiesce_timeout_s=0.05)
        rng = np.random.default_rng(3)
        base = front.n_events
        with front._pinned():
            # First refresh flips away from the pinned replica fine...
            front.refresh(
                np.arange(base, base + 1, dtype=np.int64),
                fold_vectors(rng, 1),
            )
            n_after_first = front.n_events
            # ...but the next one must quiesce it, and the straggler
            # never drains: wedged, and the fold is NOT applied.
            with pytest.raises(SwapWedgedError):
                front.refresh(
                    np.arange(
                        n_after_first, n_after_first + 1, dtype=np.int64
                    ),
                    fold_vectors(rng, 1),
                )
            assert front.n_events == n_after_first
        # Reader released: the identical retry succeeds.
        front.refresh(
            np.arange(n_after_first, n_after_first + 1, dtype=np.int64),
            fold_vectors(rng, 1),
        )
        assert front.n_events == n_after_first + 1

    def test_last_reader_out_wakes_the_quiescing_writer(self):
        gate = _ReaderGate()
        gate.enter()
        gate.enter()
        waiting, drained = threading.Event(), []

        def writer() -> None:
            waiting.set()
            drained.append(gate.quiesce(600.0))

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert waiting.wait(timeout=30)
        gate.exit()
        assert gate.readers() == 1 and not drained
        gate.exit()
        # Woken by the exit, not by a poll or the ten-minute timeout.
        thread.join(timeout=30)
        assert drained == [True]
        assert _ReaderGate().quiesce(0.0)  # nothing pinned: no wait at all
        gate.enter()
        assert not gate.quiesce(0.01)  # a straggler: bounded, then False

    def test_fold_into_engine_old_or_new_only(self):
        """Concurrent queries during folds see complete versions only."""
        front = make_front(users=24, events=32)
        folder = make_folder()
        events = [a.event for a in make_arrivals(9)]
        snapshots = {front.version: front.active.n_candidate_pairs}
        stop = threading.Event()
        failures: list[str] = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    front.query(int(rng.integers(0, 24)), 5)
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
                    front, events[start:start + 3], config
                )
                snapshots[front.version] = front.active.n_candidate_pairs
                time.sleep(0.01)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not failures
        assert front.swap_count == 3
        allowed = set(snapshots.items())
        observed = {
            (r.version, r.n_candidates) for r in front.metrics.records
        }
        torn = observed - allowed
        assert not torn, f"half-swapped index observed: {torn}"
        # The queries actually ran, and spanned the folds.
        assert len(front.metrics) > 0
        assert {v for v, _ in observed} <= set(snapshots)

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

        with DoubleBufferedEngine(replica(), replica()) as front:
            front.warm()
            assert front.ladder is front.active.ladder
            v0, n0 = front.version, front.n_events
            front.refresh(
                np.arange(n0, n0 + 2, dtype=np.int64), fold_vectors(rng, 2)
            )
            assert (front.version, front.n_events) == (v0 + 1, n0 + 2)
            assert front.query(3, n=4).pair_indices.size == 4


Q_EVENTS = 6


def quantised(seed, rows):
    """Entries in {0, 0.5, 1}, the conformance suite's kind of world: every
    Eqn-8 score is exact, ties everywhere, and its oracle applies."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(rows, Q_DIM)).astype(np.float64) * 0.5


def eqn8_top_n(users, events, user, n):
    """The conformance oracle over every event of ``events``."""
    return oracle((users, events), np.arange(len(events)), user, n)


def make_cached_front(users, events, **kwargs):
    """A double-buffered 2-shard front whose replicas cache answers."""
    metrics, ladder = MetricsRegistry(), LadderPolicy()

    def replica():
        return ShardedServingEngine(
            users,
            events,
            np.arange(len(events), dtype=np.int64),
            n_shards=2,
            cache_size=32,
            metrics=metrics,
            ladder=ladder,
            **kwargs,
        )

    return DoubleBufferedEngine(replica(), replica()).warm()


class TestAnswersFollowTheActiveReplica:
    """The answer cache under the swap: old-or-new, never topped up past
    the version a reader is pinned to.  Gated on events, never sleeps."""

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
                    out = front.recommend_within(user, n, budget_s=600.0)
                    with progress:
                        answers.append((user, n, out))
                        progress.notify_all()
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(f"reader {seed}: {exc!r}")

        with make_cached_front(users, events) as front:
            threads = [
                threading.Thread(target=reader, args=(s,), daemon=True)
                for s in range(3)
            ]
            for t in threads:
                t.start()
            try:
                for k in range(flips + 1):
                    # Each version is read, cached and re-read before the
                    # next flip — and after the last one.
                    with progress:
                        assert progress.wait_for(
                            lambda: len(answers) >= (k + 1) * reads_per_flip
                            or failures,
                            timeout=120,
                        )
                    if k < flips:
                        base = front.n_events
                        front.refresh(np.arange(base, base + 2), batches[k])
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
        assert not failures
        assert front.swap_count == flips
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
        users, events = quantised(3, Q_USERS), quantised(4, Q_EVENTS)
        batches = [quantised(20, 2), quantised(21, 2)]
        after = [np.vstack([events, *batches[:k]]) for k in range(3)]
        user, n = 5, 6
        with make_cached_front(users, events) as front:
            retiring = front.active
            gate = _Gate("backend.query")
            install(gate)
            late = []
            straggler = threading.Thread(
                target=lambda: late.append(
                    front.recommend_within(user, n, budget_s=600.0)
                ),
                daemon=True,
            )
            straggler.start()
            try:
                # Pinned to the replica about to retire, held inside its scan.
                assert gate.entered.wait(timeout=60)
                uninstall()
                front.refresh(np.arange(6, 8), batches[0])
                newer = front.recommend_within(user, n, budget_s=600.0)
            finally:
                gate.release.set()
                straggler.join(timeout=60)
            assert not straggler.is_alive()
            # The straggler answered from the version it was pinned to, and
            # stored that answer where it was pinned: the retired replica.
            (old,) = late
            assert old.stats.version == 1 and not old.stats.cache_hit
            assert triples(old.recommendations) == eqn8_top_n(
                users, after[0], user, n
            )
            assert retiring is not front.active
            assert retiring._cache[(user, n)][1].n_events == Q_EVENTS
            # Not served to the newer pin, not written over its entry.
            assert front.active._cache[(user, n)][1].n_events == Q_EVENTS + 2
            again = front.recommend_within(user, n, budget_s=600.0)
            assert again.stats.cache_hit and again.stats.n_examined == 0
            assert (
                triples(again.recommendations)
                == triples(newer.recommendations)
                == eqn8_top_n(users, after[1], user, n)
            )
            # The next flip hands the newer entry back: the top-up scans
            # one batch, not the two a surviving late store would need.
            front.refresh(np.arange(8, 10), batches[1])
            assert front.active is retiring
            final = front.recommend_within(user, n, budget_s=600.0)
            assert final.stats.cache_hit
            assert final.stats.n_examined == 2 * Q_USERS
            assert triples(final.recommendations) == eqn8_top_n(
                users, after[2], user, n
            )

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
        front = make_front(events=8)
        folder = make_folder()
        with pytest.raises(ValueError):
            FoldInPump(front, folder, max_batch=0)
        with pytest.raises(ValueError):
            FoldInPump(front, folder, max_delay_s=-1.0)
        with pytest.raises(ValueError):
            FoldInPump(front, folder, max_retries=0)

    def test_ledger_balances_and_staleness_recorded(self):
        front = make_front(events=16)
        base = front.n_events
        pump = FoldInPump(
            front,
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
        assert front.n_events == base + 10
        records = pump.staleness_records()
        assert sum(r.n_events for r in records) == 10
        versions = [r.version for r in records]
        assert versions == sorted(versions)
        assert all(r.lag_max_s >= r.lag_p50_s >= 0.0 for r in records)
        lag = pump.lag_percentiles()
        assert set(lag) == {"p50", "p95", "p99"}
        summary = pump.summary()
        assert summary["swaps"] == front.swap_count == counters["batches"]
        assert summary["versions"][-1]["version"] == front.version

    def test_full_batch_does_not_wait_out_the_delay(self):
        front = make_front(events=8)
        pump = FoldInPump(
            front,
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
        front = make_front(events=8)
        pump = FoldInPump(
            front,
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
        front = make_front(events=8)
        base = front.n_events
        pump = FoldInPump(
            front,
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
        assert front.n_events == base
        assert "boom" in pump.summary()["last_error"]

    def test_transient_failure_retries_to_visible(self):
        front = make_front(events=8)
        pump = FoldInPump(
            front,
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
        front = make_front(events=8)
        folder = CountingFolder(make_folder())
        pump = FoldInPump(
            front,
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
        front = make_front(events=8)
        pump = FoldInPump(
            front,
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
        assert versions == list(range(front.version - bound + 1, front.version + 1))
