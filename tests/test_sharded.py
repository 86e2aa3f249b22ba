"""Sharded index composition: exact merge, lifecycle, and telemetry.

The load-bearing claim of :mod:`repro.serving.sharded` is that the
threshold-stop merge of per-shard top-n lists replays a single-index
engine **bit for bit** — scores, global pair indices, and tie order.
The Hypothesis property test here attacks exactly the regime where a
sloppy merge diverges: heavily quantised scores (many exact ties,
including across shard boundaries), random shard counts, pruned and
unpruned layouts, and post-refresh appended blocks.  What every engine
composition must do alike (recommend / batch / deadline / many) is
asserted once, in ``tests/test_conformance.py``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracing import NULL_SPAN, Tracer
from repro.online.transform import partner_terms, query_vector
from repro.serving import ServingEngine, ShardedServingEngine
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall
from repro.serving.index import (
    _TRUNC_BUDGET_FRACTION,
    CandidateIndex,
    TopList,
    merge_sharded_topn,
)
from repro.serving.sharded import ShardedIndex
from tests.reference_kernels import full_scan_top_n, two_formula_global_keys


def _tie_heavy_vectors(seed: int, n_users: int, n_events: int, dim: int):
    """Quantised non-negative embeddings: many exact score ties."""
    rng = np.random.default_rng(seed)
    # Few distinct levels -> inner products collide constantly.
    users = rng.integers(0, 3, size=(n_users, dim)).astype(np.float64) * 0.5
    events = rng.integers(0, 3, size=(n_events, dim)).astype(np.float64) * 0.5
    return users, events


def _assert_same_result(ref, got) -> None:
    """Ids, score bits and decoded pairs, field for field."""
    for field in ("pair_indices", "scores", "event_ids", "partner_ids"):
        np.testing.assert_array_equal(
            getattr(ref, field), getattr(got, field), err_msg=field
        )


@pytest.fixture(autouse=True)
def _clean_faults():
    uninstall()
    yield
    uninstall()


def _count_passes(site: str) -> list[int]:
    """Install a plan that records the thread of every pass through
    ``site`` (its stall is spent by appending, not sleeping); the
    module's autouse fixture uninstalls it."""
    passes: list[int] = []
    install(
        FaultPlan(
            [FaultSpec(site=site, delay_s=1.0)],
            sleep=lambda _s: passes.append(threading.get_ident()),
        )
    )
    return passes


def _assert_bit_identical(single: ServingEngine, fleet: ShardedServingEngine,
                          users: "list[int]", n: int) -> None:
    for u in users:
        _assert_same_result(single.query(u, n), fleet.query(u, n))


class TestMergeFunction:
    def test_merge_of_single_list_is_identity_prefix(self):
        sl = TopList(
            scores=np.array([3.0, 2.0, 1.0]),
            keys=np.array([5, 1, 9], dtype=np.int64),
            event_ids=np.array([0, 0, 1], dtype=np.int64),
            partner_ids=np.array([5, 1, 4], dtype=np.int64),
        )
        scores, keys, events, partners = merge_sharded_topn([sl], 2)
        np.testing.assert_array_equal(scores, [3.0, 2.0])
        np.testing.assert_array_equal(keys, [5, 1])

    def test_merge_breaks_ties_by_global_key(self):
        a = TopList(
            scores=np.array([2.0, 2.0]),
            keys=np.array([4, 7], dtype=np.int64),
            event_ids=np.zeros(2, dtype=np.int64),
            partner_ids=np.array([4, 7], dtype=np.int64),
        )
        b = TopList(
            scores=np.array([2.0]),
            keys=np.array([5], dtype=np.int64),
            event_ids=np.zeros(1, dtype=np.int64),
            partner_ids=np.array([5], dtype=np.int64),
        )
        _scores, keys, _e, _p = merge_sharded_topn([a, b], 3)
        np.testing.assert_array_equal(keys, [4, 5, 7])

    def test_merge_skips_empty_shards(self):
        a = TopList(
            scores=np.array([1.0]),
            keys=np.array([0], dtype=np.int64),
            event_ids=np.array([0], dtype=np.int64),
            partner_ids=np.array([0], dtype=np.int64),
        )
        empty = TopList(
            scores=np.empty(0),
            keys=np.empty(0, dtype=np.int64),
            event_ids=np.empty(0, dtype=np.int64),
            partner_ids=np.empty(0, dtype=np.int64),
        )
        scores, keys, _e, _p = merge_sharded_topn([a, empty], 5)
        assert keys.tolist() == [0]


class TestShardedExactness:
    """The acceptance property: sharded == single-index, bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=1, max_value=7),
        n=st.integers(min_value=1, max_value=25),
        backend=st.sampled_from(["ta", "bruteforce"]),
        pruned=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sharded_equals_single(
        self, seed, n_shards, n, backend, pruned
    ):
        users, events = _tie_heavy_vectors(seed, n_users=23, n_events=11, dim=4)
        cand = np.arange(11, dtype=np.int64)
        k = 3 if pruned else None
        single = ServingEngine(
            users, events, cand, top_k_events=k, backend=backend, cache_size=0
        ).warm()
        with ShardedServingEngine(
            users,
            events,
            cand,
            n_shards=n_shards,
            top_k_events=k,
            backend=backend,
            cache_size=0,
        ) as fleet:
            _assert_bit_identical(single, fleet, list(range(0, 23, 3)), n)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=25),
        pruned=st.booleans(),
        appends=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),  # events appended
                st.booleans(),  # the first one duplicates an old vector
                st.integers(min_value=1, max_value=3),  # every k-th user reads
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_topped_up_equals_scanned(
        self, seed, n_shards, n, pruned, appends
    ):
        """Float world: a cached answer topped up across appends — one or
        several refreshes behind — is the cache-less single engine's full
        scan, ids and score bits, with no pair twice and no self-partner."""
        rng = np.random.default_rng(seed)
        users = np.abs(rng.normal(size=(23, 4)))
        events = np.abs(rng.normal(size=(11, 4)))
        cand = np.arange(11, dtype=np.int64)
        k = 3 if pruned else None
        scanned = ServingEngine(
            users, events, cand, top_k_events=k, cache_size=0
        ).warm()
        readers = list(range(0, 23, 2))

        def assert_same_answers(fleet, some):
            for u in some:
                got = fleet.query(u, n)
                _assert_same_result(scanned.query(u, n), got)
                assert np.unique(got.pair_indices).size == got.pair_indices.size
                assert u not in got.partner_ids

        with ShardedServingEngine(
            users, events, cand, n_shards=n_shards, top_k_events=k
        ) as fleet:
            assert_same_answers(fleet, readers)
            for m, duplicate, stride in appends:
                vectors = np.abs(rng.normal(size=(m, 4)))
                if duplicate:
                    vectors[0] = scanned.event_vectors[rng.integers(0, 11)]
                ids = np.arange(fleet.n_events, fleet.n_events + m)
                assert scanned.refresh(ids, vectors) == m
                assert fleet.refresh(ids, vectors) == m
                # The users who skip this round fall one more refresh behind.
                assert_same_answers(fleet, readers[::stride])
            assert_same_answers(fleet, readers)
            stats = fleet.metrics.records
            assert sum(s.cache_hit and s.n_examined > 0 for s in stats) >= len(
                readers[:: appends[0][2]]
            )

    @pytest.mark.parametrize("backend", ["ta", "bruteforce"])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_exact_after_refresh(self, backend, n_shards):
        rng = np.random.default_rng(11)
        users = np.abs(rng.normal(size=(30, 5)))
        events = np.abs(rng.normal(size=(12, 5)))
        cand = np.arange(8, dtype=np.int64)
        single = ServingEngine(users, events, cand, backend=backend,
                               cache_size=0).warm()
        with ShardedServingEngine(
            users, events, cand, n_shards=n_shards, backend=backend,
            cache_size=0,
        ) as fleet:
            fleet.warm()
            new_ids = np.array([8, 9], dtype=np.int64)
            assert single.refresh(new_ids) == 2
            assert fleet.refresh(new_ids) == 2
            _assert_bit_identical(single, fleet, list(range(0, 30, 4)), 15)


def _boundary_tie_world(seed: int, n_events: int, n_partners: int, n_shards: int):
    """Quantised factors whose partner rows repeat across every slice
    boundary, so equal scores straddle slices."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    events = rng.integers(0, 4, (n_events, dim)) / 4.0
    users = rng.integers(0, 4, (n_partners, dim)) / 4.0
    events[rng.integers(0, n_events, n_events // 3)] = events[0]
    sizes = [s.size for s in np.array_split(np.arange(n_partners), n_shards)]
    for cut in np.cumsum(sizes)[:-1]:
        users[cut] = users[cut - 1]
    return users, events, rng


def _assert_scan_equal(got, want) -> None:
    np.testing.assert_array_equal(got.pair_indices, want.pair_indices)
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.n_examined == want.n_examined
    assert got.exact == want.exact


class TestOnePassFullRung:
    """The ``full`` rung over brute-force slices is one bounded pass over
    all of them: the single index's answer, score bits, order and
    ``n_examined``, with no leg and no merge."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=1, max_value=5),
        n_events=st.integers(min_value=1, max_value=70),
        extra_partners=st.integers(min_value=0, max_value=9),
        n=st.integers(min_value=1, max_value=700),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_one_pass_equals_single_and_reference(
        self, seed, n_shards, n_events, extra_partners, n, data
    ):
        n_partners = n_shards + extra_partners  # uneven slices mostly
        users, events, rng = _boundary_tie_world(seed, n_events, n_partners, n_shards)
        sizes = [s.size for s in np.array_split(np.arange(n_partners), n_shards)]
        # No exclusion, any partner, or one at either side of a boundary.
        edges = [int(c) for c in np.cumsum(sizes)[:-1]]
        exclude = data.draw(
            st.sampled_from([None, *range(n_partners), *edges, *(e - 1 for e in edges)])
        )
        cand = np.arange(n_events, dtype=np.int64)
        single = CandidateIndex(users, events, cand)
        single.publish(single.built(1))
        sharded = ShardedIndex(users, events, cand, n_shards=n_shards)
        try:
            sharded.publish(sharded.built(1))
            q = query_vector(users[int(rng.integers(0, n_partners))])
            with Tracer(keep_last=1).request("request") as root:
                got = sharded.scan(sharded.snapshot(), "full", q, n, exclude, span=root)
            assert [node.name for node in root.walk()] == ["request"]
        finally:
            sharded.close()
        want = single.scan(single.snapshot(), "full", q, n, exclude)
        _assert_scan_equal(got, want)
        _assert_same_result(want, got)
        space = single.space
        pairs, scores = full_scan_top_n(space, q, n, exclude_partner=exclude)
        np.testing.assert_array_equal(got.pair_indices, pairs)
        assert got.scores.tobytes() == scores.tobytes()
        finite = n_events * (n_partners - (exclude is not None))
        assert got.pair_indices.size == min(n, finite)
        assert got.n_events == n_events

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_float_world_reads_the_single_rows(self, n_shards):
        """Distinct float partners: each slice's row maxima differ, so only
        the max over every slice bounds a row."""
        rng = np.random.default_rng(n_shards)
        users = np.abs(rng.normal(size=(37, 6)))
        events = np.abs(rng.normal(size=(120, 6)))
        cand = np.arange(120, dtype=np.int64)
        single = CandidateIndex(users, events, cand)
        single.publish(single.built(1))
        sharded = ShardedIndex(users, events, cand, n_shards=n_shards)
        try:
            sharded.publish(sharded.built(1))
            for u in range(37):
                q = query_vector(users[u])
                for n in (1, 10, 50):
                    got = sharded.scan(sharded.snapshot(), "full", q, n, u)
                    want = single.scan(single.snapshot(), "full", q, n, u)
                    _assert_scan_equal(got, want)
                    assert got.n_examined < 120 * 37
        finally:
            sharded.close()

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_snapshot_concatenates_the_columns_once(self, n_shards):
        """The one-pass columns are the slices' partner ids and factor
        rows side by side, made with the snapshot (a refresh included),
        counted by ``memory_bytes()``; their partner terms are the
        slices' terms concatenated, bit for bit."""
        rng = np.random.default_rng(n_shards)
        users = np.abs(rng.normal(size=(23, 6)))
        events = np.abs(rng.normal(size=(40, 6)))
        sharded = ShardedIndex(users, events[:36], np.arange(36), n_shards=n_shards)
        try:
            sharded.publish(sharded.built(1))
            sharded.publish(sharded.extended(np.arange(36, 40), events[36:], 2))
            snap = sharded.snapshot()
            spaces = [leg.primary.space for leg in snap.legs]
            ids, factors = snap.columns
            np.testing.assert_array_equal(ids, np.arange(23))
            assert factors.tobytes() == users.astype(np.float64).tobytes()
            q = query_vector(users[4])
            b = np.concatenate(
                [
                    partner_terms(sp.partner_factors, sp.candidate_partners, q, 4)
                    for sp in spaces
                ]
            )
            assert partner_terms(factors, ids, q, 4).tobytes() == b.tobytes()
            assert sharded.memory_bytes() == (
                sum(sl.memory_bytes() for sl in sharded.shards)
                + snap.cross_max.nbytes + ids.nbytes + factors.nbytes
            )
        finally:
            sharded.close()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=2, max_value=5),
        n=st.integers(min_value=1, max_value=60),
        w=st.sampled_from([-1.0, -0.25]),
    )
    @settings(max_examples=30, deadline=None)
    def test_negative_w_still_runs_legs_and_matches(self, seed, n_shards, n, w):
        users, events, rng = _boundary_tie_world(seed, 40, 11, n_shards)
        cand = np.arange(40, dtype=np.int64)
        single = CandidateIndex(users, events, cand)
        single.publish(single.built(1))
        q = np.concatenate([rng.integers(0, 4, 2 * users.shape[1]) / 4.0, [w]])
        sharded = ShardedIndex(users, events, cand, n_shards=n_shards)
        try:
            sharded.publish(sharded.built(1))
            with Tracer(keep_last=1).request("request") as root:
                got = sharded.scan(sharded.snapshot(), "full", q, n, 3, span=root)
            names = [node.name for node in root.walk()]
        finally:
            sharded.close()
        assert names.count("shard") == n_shards and names.count("merge") == 1
        want = single.scan(single.snapshot(), "full", q, n, 3)
        _assert_scan_equal(got, want)
        pairs, scores = full_scan_top_n(single.space, q, n, exclude_partner=3)
        np.testing.assert_array_equal(got.pair_indices, pairs)
        assert got.scores.tobytes() == scores.tobytes()

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_pruned_primary_still_runs_legs_and_matches(self, n_shards):
        users, events, _rng = _boundary_tie_world(5, 45, 13, n_shards)
        cand = np.arange(45, dtype=np.int64)
        tracer = Tracer(keep_last=64)
        single = ServingEngine(users, events, cand, top_k_events=6, cache_size=0).warm()
        with ShardedServingEngine(
            users, events, cand, n_shards=n_shards, top_k_events=6,
            cache_size=0, tracer=tracer,
        ) as fleet:
            for u in range(13):
                _assert_same_result(single.query(u, 9), fleet.query(u, 9))
                assert fleet.metrics.records[-1].n_examined == (
                    single.metrics.records[-1].n_examined
                )
        requests = [r for r in tracer.finished() if r.name == "request"]
        assert len(requests) == 13
        for root in requests:
            names = [node.name for node in root.walk()]
            assert names.count("shard") == n_shards and names.count("merge") == 1

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=80),
        pruned=st.booleans(),
        appends=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),  # events appended
                st.booleans(),  # the first one copies a served event
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_scan_appended_equals_single(
        self, seed, n_shards, n, pruned, appends
    ):
        """After 1-3 refreshes the one-pass scan of the appended rows, and
        a cached answer topped up through it, are the single index's."""
        users, events, rng = _boundary_tie_world(seed, 30, 11, n_shards)
        cand = np.arange(30, dtype=np.int64)
        k = 4 if pruned else None
        single = CandidateIndex(users, events, cand, top_k_events=k)
        single.publish(single.built(1))
        scanned = ServingEngine(
            users, events, cand, top_k_events=k, cache_size=0
        ).warm()
        readers = list(range(0, 11, 2))
        with ShardedServingEngine(
            users, events, cand, n_shards=n_shards, top_k_events=k
        ) as fleet:
            for u in readers:
                fleet.query(u, n)  # cached, then left behind by the appends
            for version, (m, duplicate) in enumerate(appends, start=2):
                vectors = rng.integers(0, 4, (m, users.shape[1])) / 4.0
                if duplicate:
                    vectors[0] = single.event_vectors[rng.integers(0, 30)]
                ids = np.arange(single.n_events, single.n_events + m)
                single.publish(single.extended(ids, vectors, version))
                assert scanned.refresh(ids, vectors) == m
                assert fleet.refresh(ids, vectors) == m
            snap, one = fleet.index.snapshot(), single.snapshot()
            for covered in {30, 30 + appends[0][0], one.candidate_events.size - 1}:
                u = int(rng.integers(0, 11))
                q = query_vector(users[u])
                got = fleet.index.scan_appended(snap, q, n, u, covered)
                want = single.scan_appended(one, q, n, u, covered)
                _assert_scan_equal(got, want)
                _assert_same_result(want, got)
            for u in readers:
                _assert_same_result(scanned.query(u, n), fleet.query(u, n))
            assert all(r.cache_hit for r in fleet.metrics.records[-len(readers):])


class TestGlobalKeys:
    """The local -> global key map (one formula unpruned, where both
    segments are one event-major layout) maps initial-only, appended-only
    and mixed indices as the two-formula map does."""

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_equals_the_two_formula_map(self, k, n_shards):
        users, events = _tie_heavy_vectors(21, n_users=11, n_events=14, dim=3)
        with ShardedServingEngine(
            users, events, np.arange(9, dtype=np.int64), n_shards=n_shards,
            top_k_events=k,
        ) as fleet:
            fleet.warm()
            fleet.refresh(np.array([9, 10, 11, 12, 13]))
            index, snap = fleet.index, fleet.index.snapshot()
            rng = np.random.default_rng(3)
            for shard, leg in enumerate(snap.legs):
                n_local = leg.backend.space.n_pairs
                base = (9 if k is None else k) * index._sizes[shard]
                every = np.arange(n_local)
                for local in (
                    every[:base],
                    every[base:],
                    rng.permutation(every),
                    every[[base - 1, base]],
                    every[:0],
                ):
                    want = two_formula_global_keys(index, snap, shard, local)
                    got = index._global_keys(snap, shard, local)
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, want)
            # Every global key once across the slices: the map is a bijection.
            keys = np.concatenate([
                index._global_keys(snap, s, np.arange(leg.backend.space.n_pairs))
                for s, leg in enumerate(snap.legs)
            ])
            np.testing.assert_array_equal(np.sort(keys), np.arange(snap.n_candidate_pairs))


class TestShardedLifecycle:
    def test_rejects_more_shards_than_partners(self):
        users, events = _tie_heavy_vectors(2, n_users=4, n_events=5, dim=3)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedServingEngine(
                users, events, np.arange(5, dtype=np.int64), n_shards=9
            )

    def test_aggregate_telemetry_recorded_on_both_surfaces(self):
        users, events = _tie_heavy_vectors(3, n_users=12, n_events=6, dim=3)
        cand = np.arange(6, dtype=np.int64)
        with ShardedServingEngine(
            users, events, cand, n_shards=2, cache_size=0
        ) as fleet:
            fleet.query(1, 5)
            fleet.recommend(2, 5)
            assert len(fleet.metrics.records) == 2
            # The default primary index is the fast exact one (GEM-BF).
            assert all(
                r.backend == "sharded[2]:bruteforce"
                for r in fleet.metrics.records
            )

    def test_deadline_path_aggregates_coherently(self):
        users, events = _tie_heavy_vectors(4, n_users=20, n_events=8, dim=4)
        cand = np.arange(8, dtype=np.int64)
        with ShardedServingEngine(
            users, events, cand, n_shards=2, cache_size=0
        ) as fleet:
            fleet.warm_ladder()
            out = fleet.recommend_within(3, 5, budget_s=5.0)
            assert out.answered and out.rung == "full"
            outs = fleet.recommend_many(
                list(range(12)), 5, budget_s=5.0, workers=2, queue_depth=4
            )
            assert len(outs) == 12  # zero silent drops
            shed = [o for o in outs if not o.answered]
            for o in shed:
                assert o.shed_reason is not None

    def test_closed_engine_refuses_queries(self):
        users, events = _tie_heavy_vectors(6, n_users=8, n_events=4, dim=3)
        fleet = ShardedServingEngine(
            users, events, np.arange(4, dtype=np.int64), n_shards=2
        )
        fleet.warm()
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.query(0, 3)


class TestLegsRunOnTheCallersThread:
    """A scan scores its legs in turn on the request's thread, and the
    cold builds run slice after slice there too.  No wall clock anywhere."""

    @pytest.fixture
    def legs(self, monkeypatch):
        """Every ``CandidateIndex.scan`` call: (thread, remaining_s, result)."""
        seen = []
        scan = CandidateIndex.scan

        def spy(self, snap, rung, q, n, exclude, remaining_s=None, span=NULL_SPAN):
            result = scan(self, snap, rung, q, n, exclude, remaining_s, span)
            seen.append((threading.get_ident(), remaining_s, result))
            return result

        monkeypatch.setattr(CandidateIndex, "scan", spy)
        return seen

    def test_query_and_deadline_legs_stay_on_the_caller(self, legs, monkeypatch):
        built_on = []
        built = CandidateIndex.built

        def recording(self, version, span):
            built_on.append(threading.get_ident())
            return built(self, version, span)

        monkeypatch.setattr(CandidateIndex, "built", recording)
        passes = _count_passes("backend.query")
        users, events = _tie_heavy_vectors(12, n_users=16, n_events=7, dim=3)
        me = threading.get_ident()
        with ShardedServingEngine(
            users, events, np.arange(7, dtype=np.int64), n_shards=3,
            cache_size=0,
        ) as fleet:
            fleet.warm()
            # The cold build ran every slice in turn, on this thread.
            assert built_on == [me] * 3
            fleet.query(2, 4)
            out = fleet.recommend_within(5, 4, budget_s=600.0)
            assert out.answered and out.rung == "full"
            # A full read is one pass over every slice: the backend.query
            # site once per request, on this thread, and no per-slice scan.
            assert passes == [me] * 2
            assert legs == []
            # A truncated read still scans the slices in turn, on this thread.
            index = fleet.index
            index.scan(index.snapshot(), "truncated", query_vector(users[3]), 4, 3)
            assert [thread for thread, _, _ in legs] == [me] * 3
            assert built_on == [me] * 3

    def test_serial_legs_share_the_deadline(self, legs):
        """Each leg plans its truncated prefix from ``remaining_s /
        n_shards``: the request's budget in total, not once per leg."""
        n_shards, rows_per_s, remaining_s = 3, 1000.0, 0.75
        users, events = _tie_heavy_vectors(13, n_users=30, n_events=40, dim=3)
        with ShardedServingEngine(
            users, events, np.arange(40, dtype=np.int64), n_shards=n_shards,
            cache_size=0,
        ) as fleet:
            fleet.warm()
            index = fleet.index
            for shard in index.shards:
                shard._trunc_rows_per_s = rows_per_s
            q = query_vector(users[4])
            result = index.scan(
                index.snapshot(), "truncated", q, 2, 4, remaining_s=remaining_s
            )
        planned = int(rows_per_s * (remaining_s / n_shards) * _TRUNC_BUDGET_FRACTION)
        # Above the 8n floor, and the prefix a leg given the whole budget
        # would plan (three times as long) still fits the 10 x 40 slice,
        # so the two plans are told apart.
        assert 8 * 2 < planned < 3 * planned < 10 * 40
        assert [budget for _, budget, _ in legs] == [remaining_s / n_shards] * 3
        assert [leg.n_examined for _, _, leg in legs] == [planned] * 3
        assert result.n_examined == 3 * planned and not result.exact


class TestMergedAnswerCache:
    """The engine's (user, n) answer cache sits above the slices."""

    def _fleet(self, **kwargs):
        # 12 embedded events but only 10 candidates: ids 10-11 stay free
        # for the refresh test.
        users, events = _tie_heavy_vectors(8, n_users=18, n_events=12, dim=4)
        return ShardedServingEngine(
            users, events, np.arange(10, dtype=np.int64), n_shards=3, **kwargs
        )

    def test_repeat_query_hits_without_fanning_out(self):
        tracer = Tracer(keep_last=8)
        passes = _count_passes("backend.query")
        with self._fleet(tracer=tracer) as fleet:
            first = fleet.query(4, 6)
            second = fleet.query(4, 6)
            np.testing.assert_array_equal(first.pair_indices, second.pair_indices)
            np.testing.assert_array_equal(first.scores, second.scores)
            # The miss was one pass over the three slices (no shard legs);
            # the hit answered above the slices without any scan.
            assert len(passes) == 1
            miss, hit = [
                [node.name for node in root.walk()]
                for root in tracer.finished()
                if root.name == "request"
            ]
            assert "rung.full" in miss and "shard" not in miss + hit
            assert "rung.full" not in hit
            agg = fleet.metrics.records
            assert not agg[0].cache_hit and agg[1].cache_hit
            assert agg[1].n_examined == 0 and agg[1].exact

    def test_deadline_path_reuses_exact_merged_answer(self):
        with self._fleet() as fleet:
            fleet.warm_ladder()
            ref = fleet.recommend(5, 6)
            out = fleet.recommend_within(5, 6, budget_s=5.0)
            assert out.answered and out.stats is not None
            assert out.stats.cache_hit and out.stats.rung == "full"
            assert [(r.event, r.partner, r.score) for r in out.recommendations] == [
                (r.event, r.partner, r.score) for r in ref
            ]

    def test_version_bump_invalidates(self):
        # A refresh no longer invalidates: the cached answer is topped up
        # with the appended pairs alone, above the slices, and is the
        # answer a fresh engine scans.  Only rebuild() starts over.
        tracer = Tracer(keep_last=8)
        with self._fleet(tracer=tracer) as fleet, self._fleet(
            cache_size=0
        ) as fresh:
            fleet.query(2, 5)
            new_ids = np.array([10, 11], dtype=np.int64)
            fleet.refresh(new_ids)
            fresh.refresh(new_ids)
            got = fleet.query(2, 5)
            _assert_same_result(fresh.query(2, 5), got)
            last = fleet.metrics.records[-1]
            assert last.cache_hit and last.exact and last.rung == "full"
            assert last.version == fleet.version == 2
            # Exactly the appended pairs: 2 events x 18 partners.
            assert last.n_examined == 2 * 18
            assert last.fraction_examined == 2 * 18 / last.n_candidates
            root = tracer.finished()[-1]
            assert root.tags["topped_up"] == 2
            assert [node.name for node in root.walk()].count("shard") == 0
            # Topped up once: the repeat is a plain hit on the stored answer.
            assert fleet.query(2, 5) is got
            assert fleet.metrics.records[-1].n_examined == 0
            fleet.rebuild()
            fleet.query(2, 5)
            assert not fleet.metrics.records[-1].cache_hit

    def test_zero_size_disables_cache(self):
        with self._fleet(cache_size=0) as fleet:
            fleet.query(1, 4)
            fleet.query(1, 4)
            assert not any(r.cache_hit for r in fleet.metrics.records)

    def test_cached_answer_stays_bit_identical_to_single(self):
        users, events = _tie_heavy_vectors(9, n_users=15, n_events=8, dim=4)
        cand = np.arange(8, dtype=np.int64)
        single = ServingEngine(users, events, cand, cache_size=0).warm()
        with ShardedServingEngine(users, events, cand, n_shards=2) as fleet:
            for _ in range(2):  # second pass served from the answer cache
                _assert_bit_identical(single, fleet, [0, 3, 7], 6)
