"""The bounded brute-force scan is the literal full scan, bit for bit.

:meth:`BruteForceIndex.query` scores an event-major cross-product space
row by row in order of the per-event bound ``a[e] + max(b) + w·cmax[e]``
and stops once no unvisited row can reach the n-th score.  Every answer
here — pair indices in order, score bits — is held to
``tests/reference_kernels.py::full_scan_top_n``, which scores every pair.
The worlds are quantised (exact sums, so ties are frequent) and repeat
whole event and partner rows, so the n-th score is often tied and the
strict stopping rule is what keeps the smaller-index tie.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.online import (
    BruteForceIndex,
    build_pruned_pair_space,
    query_vector,
    transform_all_pairs,
)
from repro.online.bruteforce import bounded_rows_top_n
from repro.serving import ServingEngine
from repro.serving.index import CandidateIndex
from repro.serving.sharded import ShardedIndex, ShardedServingEngine
from tests.reference_kernels import full_scan_top_n

seeds = st.integers(min_value=0, max_value=2**31 - 1)
#: The last coordinate of a general extended query: a user's is 1.
weights = st.sampled_from([1.0, 0.0, -0.0, 0.5, 3.0, -1.0, -0.25])


def _world(seed, max_events=80, max_partners=9):
    """Quantised non-negative factors with repeated event and partner rows."""
    rng = np.random.default_rng(seed)
    n_events = int(rng.integers(1, max_events + 1))
    n_partners = int(rng.integers(1, max_partners + 1))
    k = int(rng.integers(1, 5))
    E = rng.integers(0, 4, (n_events, k)) / 4.0
    U = rng.integers(0, 4, (n_partners, k)) / 4.0
    E[rng.integers(0, n_events, n_events // 3)] = E[0]
    U[rng.integers(0, n_partners, n_partners // 3)] = U[-1]
    return E, U, rng


def _query(rng, U, w):
    """A user's extended query when ``w == 1``, else a general one."""
    k = U.shape[1]
    if w == 1.0:
        return query_vector(U[rng.integers(0, U.shape[0])])
    return np.concatenate([rng.integers(0, 4, 2 * k) / 4.0, [w]])


def _exclude(rng, n_partners):
    """No exclusion, a random partner, or (one partner) the only one."""
    return [None, int(rng.integers(0, n_partners))][int(rng.integers(0, 2))]


def _assert_same(result, oracle):
    pairs, scores = oracle
    np.testing.assert_array_equal(result.pair_indices, pairs)
    assert result.scores.tobytes() == scores.tobytes()


class TestBoundedEqualsFullScan:
    @given(seed=seeds, w=weights, n=st.integers(min_value=1, max_value=800))
    @example(seed=3, w=1.0, n=10)
    @example(seed=5, w=-1.0, n=1)
    @settings(max_examples=150, deadline=None)
    def test_query(self, seed, w, n):
        E, U, rng = _world(seed)
        space = transform_all_pairs(E, U)
        index = BruteForceIndex(space)
        q = _query(rng, U, w)
        exclude = _exclude(rng, U.shape[0])
        result = index.query(q, n, exclude=exclude)
        _assert_same(result, full_scan_top_n(space, q, n, exclude_partner=exclude))
        assert result.exact
        assert 0 < result.n_examined <= space.n_pairs
        assert result.n_examined % U.shape[0] == 0

    @given(seed=seeds, n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_excluding_the_only_partner_answers_nothing(self, seed, n):
        E, _U, rng = _world(seed)
        U = rng.integers(0, 4, (1, E.shape[1])) / 4.0
        space = transform_all_pairs(E, U, partner_ids=np.array([7]))
        result = BruteForceIndex(space).query(query_vector(U[0]), n, exclude=7)
        assert result.pair_indices.size == 0
        _assert_same(result, full_scan_top_n(space, query_vector(U[0]), n, exclude_partner=7))

    def test_ties_at_the_nth_score_keep_the_smaller_index(self):
        # 60 identical event rows: every row's bound equals the n-th score,
        # so only the strict stop is correct, and it must read every row.
        E = np.ones((60, 2))
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        space = transform_all_pairs(E, U)
        q = query_vector(np.array([1.0, 1.0]))
        result = BruteForceIndex(space).query(q, 5)
        _assert_same(result, full_scan_top_n(space, q, 5))
        np.testing.assert_array_equal(result.pair_indices, [0, 1, 2, 3, 4])
        assert result.n_examined == space.n_pairs

    def test_a_user_query_reads_a_small_share(self):
        rng = np.random.default_rng(0)
        E = np.abs(rng.normal(size=(400, 8)))
        U = np.abs(rng.normal(size=(300, 8)))
        space = transform_all_pairs(E, U)
        index = BruteForceIndex(space)
        for user in range(20):
            q = query_vector(U[user])
            result = index.query(q, 10, exclude=user)
            _assert_same(result, full_scan_top_n(space, q, 10, exclude_partner=user))
            assert result.n_examined < space.n_pairs // 4


class TestEveryPartnerSlicing:
    @given(seed=seeds, w=weights, n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_each_slice_is_its_own_full_scan(self, seed, w, n):
        E, U, rng = _world(seed)
        q = _query(rng, U, w)
        exclude = _exclude(rng, U.shape[0])
        cuts = np.unique(rng.integers(0, U.shape[0] + 1, 3))
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, U.shape[0]]):
            ids = np.arange(lo, hi)
            space = transform_all_pairs(E, U[lo:hi], partner_ids=ids)
            result = BruteForceIndex(space).query(q, n, exclude=exclude)
            _assert_same(result, full_scan_top_n(space, q, n, exclude_partner=exclude))

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_sharded_engine_equals_single(self, n_shards):
        E, U, _rng = _world(11, max_events=60, max_partners=9)
        U = np.vstack([U] * 5)  # ≥ 5 partners, repeated rows
        events = np.arange(E.shape[0])
        single = ServingEngine(U, E, events, cache_size=0).warm()
        with ShardedServingEngine(
            U, E, events, n_shards=n_shards, cache_size=0
        ) as sharded:
            for user in range(U.shape[0]):
                for n in (1, 7, 40):
                    got, want = sharded.query(user, n), single.query(user, n)
                    np.testing.assert_array_equal(got.pair_indices, want.pair_indices)
                    assert got.scores.tobytes() == want.scores.tobytes()


class TestColumnBlocks:
    """:func:`bounded_rows_top_n` over any split of the partner columns is
    the one-block scan: same keys, score bits and rows read."""

    @given(
        seed=seeds,
        w=st.sampled_from([1.0, 0.0, -0.0, 0.5, 3.0]),
        n=st.integers(min_value=1, max_value=800),
        n_blocks=st.integers(min_value=1, max_value=5),
    )
    @example(seed=3, w=1.0, n=10, n_blocks=2)
    @settings(max_examples=120, deadline=None)
    def test_any_column_split_is_the_one_block_scan(self, seed, w, n, n_blocks):
        E, U, rng = _world(seed)
        space = transform_all_pairs(E, U)
        q = _query(rng, U, w)
        exclude = _exclude(rng, U.shape[0])
        a, b, w = space.query_terms(q, exclude)
        c = space.interaction.reshape(E.shape[0], U.shape[0])
        cuts = np.sort(rng.integers(0, U.shape[0] + 1, n_blocks - 1))
        keys, scores, rows = bounded_rows_top_n(
            a, b, w, np.split(c, cuts, axis=1), space.cross_max, n
        )
        pairs, want = full_scan_top_n(space, q, n, exclude_partner=exclude)
        np.testing.assert_array_equal(keys, pairs)
        assert scores.tobytes() == want.tobytes()
        assert rows == bounded_rows_top_n(a, b, w, [c], space.cross_max, n)[2]
        index = BruteForceIndex(space).query(q, n, exclude=exclude)
        assert index.n_examined == rows * U.shape[0]

    @given(
        seed=seeds,
        n_shards=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=800),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_full_rung_is_the_single_scan(self, seed, n_shards, n):
        E, U, rng = _world(seed)
        U = np.vstack([U] * 5)  # ≥ 5 partners, repeated rows
        q = _query(rng, U, 1.0)
        exclude = _exclude(rng, U.shape[0])
        events = np.arange(E.shape[0])
        index = ShardedIndex(U, E, events, n_shards=n_shards)
        try:
            index.publish(index.built(1))
            got = index.scan(index.snapshot(), "full", q, n, exclude)
        finally:
            index.close()
        space = transform_all_pairs(E, U)
        want = BruteForceIndex(space).query(q, n, exclude=exclude)
        _assert_same(got, full_scan_top_n(space, q, n, exclude_partner=exclude))
        assert got.n_examined == want.n_examined and got.exact


class TestAppendedBlocks:
    @given(
        seed=seeds,
        w=weights,
        n=st.integers(min_value=1, max_value=80),
        pruned=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_extended_index(self, seed, w, n, pruned):
        E, U, rng = _world(seed)
        n_old = int(rng.integers(1, E.shape[0] + 1))
        fresh = E[n_old:].copy()
        if fresh.shape[0]:
            fresh[0] = E[0]  # a copy of a served event ties across the boundary
        k = int(rng.integers(1, n_old + 1)) if pruned else None
        index = CandidateIndex(U, E[:n_old], np.arange(n_old), top_k_events=k)
        index.publish(index.built(1))
        snap = index.extended(np.arange(n_old, E.shape[0]), fresh, 2)
        primary = snap.backend
        space = primary.space
        assert space.cross_events == (E.shape[0] - n_old if pruned else E.shape[0])
        if not pruned:
            whole = transform_all_pairs(E[: n_old], U).cross_max
            np.testing.assert_array_equal(space.cross_max[:n_old], whole)
        q = _query(rng, U, w)
        exclude = _exclude(rng, U.shape[0])
        whole = primary.query(q, n, exclude=exclude)
        _assert_same(whole, full_scan_top_n(space, q, n, exclude_partner=exclude))
        assert whole.exact
        # A bounded answer reads its ids off its rows and columns.
        if whole.event_ids is not None:
            events, partners = space.decode(whole.pair_indices)
            np.testing.assert_array_equal(whole.event_ids, events)
            np.testing.assert_array_equal(whole.partner_ids, partners)


class TestLayoutIsRecordedNotInferred:
    """A pruned space with ``k = n_events`` holds exactly ``E·P`` pairs in
    partner-major order; reading it as an ``(E, P)`` matrix would be wrong."""

    def test_pruned_with_every_event_is_scanned_whole(self):
        E, U, _rng = _world(4, max_events=40)
        E, U = np.vstack([E, E[::-1]]), np.vstack([U, U])
        space = build_pruned_pair_space(E, U, E.shape[0])
        assert space.n_pairs == E.shape[0] * U.shape[0]
        assert space.cross_events == 0
        engine = ServingEngine(
            U, E, np.arange(E.shape[0]), top_k_events=E.shape[0], cache_size=0
        ).warm()
        assert engine.space.cross_events == 0
        for user in range(U.shape[0]):
            q = query_vector(U[user])
            result = engine.query(user, 9)
            assert result.n_examined == space.n_pairs
            _assert_same(result, full_scan_top_n(engine.space, q, 9, exclude_partner=user))

    def test_pruned_primary_extended_by_refresh(self):
        E, U, _rng = _world(8, max_events=50)
        E = np.vstack([E, E[:5]])
        n_old = E.shape[0] - 5
        engine = ServingEngine(
            U, E[:n_old], np.arange(n_old), top_k_events=3, cache_size=0
        ).warm()
        engine.refresh(np.arange(n_old, E.shape[0]), E[n_old:])
        assert engine.space.cross_events == 5
        for user in range(U.shape[0]):
            q = query_vector(U[user])
            _assert_same(
                engine.query(user, 12),
                full_scan_top_n(engine.space, q, 12, exclude_partner=user),
            )

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_cross_rows_are_the_whole_einsum(self, seed):
        # The layout and the row maxima are recorded with the space: the
        # bits of one einsum over the whole cross product.
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(int(rng.integers(0, 300)), int(rng.integers(1, 9))))
        U = rng.normal(size=(int(rng.integers(0, 3000)), E.shape[1]))
        space = transform_all_pairs(E, U)
        whole = np.einsum("ek,pk->ep", E, U)
        assert space.interaction.tobytes() == whole.reshape(-1).tobytes()
        # A pair's rows are its position: nothing is stored per pair but c.
        assert space.event_index.size == space.partner_index.size == 0
        events, partners = space.pair_rows(slice(None))
        np.testing.assert_array_equal(events, np.repeat(np.arange(E.shape[0]), U.shape[0]))
        np.testing.assert_array_equal(partners, np.tile(np.arange(U.shape[0]), E.shape[0]))
        maxima = whole.max(axis=1) if U.shape[0] else np.full(E.shape[0], -np.inf)
        assert space.cross_max.tobytes() == maxima.tobytes()

    def test_cross_max_is_checked(self):
        E, U, _rng = _world(1)
        space = transform_all_pairs(E, U)
        with pytest.raises(ValueError, match="cross_max"):
            type(space)(
                event_factors=space.event_factors,
                partner_factors=space.partner_factors,
                candidate_events=space.candidate_events,
                candidate_partners=space.candidate_partners,
                event_index=space.event_index,
                partner_index=space.partner_index,
                interaction=space.interaction,
                cross_max=np.zeros(E.shape[0] + 1),
            )
