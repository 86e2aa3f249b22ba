"""Tests for the online recommendation engine (Section IV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import (
    BruteForceIndex,
    PairSpace,
    ThresholdAlgorithmIndex,
    build_pruned_pair_space,
    query_vector,
    top_k_events_per_partner,
    transform_all_pairs,
    transform_pairs,
)
from repro.online import ta as ta_module
from repro.online.bruteforce import scan_top_n, top_n
from repro.online.ivf import IVFIndex
from repro.serving import ServingEngine
from tests.reference_kernels import explicit_pair_indices, float_sorted_lists


def random_vectors(rng, n_events=25, n_partners=40, k=6, sparsity=0.4):
    E = np.abs(rng.normal(0.3, 0.3, (n_events, k)))
    U = np.abs(rng.normal(0.3, 0.3, (n_partners, k)))
    E[rng.random(E.shape) < sparsity] = 0.0
    U[rng.random(U.shape) < sparsity] = 0.0
    return E, U


class TestTransform:
    def test_query_vector_layout(self):
        q = query_vector(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(q, [1.0, 2.0, 1.0, 2.0, 1.0])

    def test_transform_dimension_is_2k_plus_1(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        assert space.dim == 2 * E.shape[1] + 1
        assert space.embedding_dim == E.shape[1]
        assert space.n_pairs == E.shape[0] * U.shape[0]

    def test_inner_product_equals_eqn8(self, rng):
        # The defining identity: q_u . p_xu' == u.x + u'.x + u.u'
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        u = U[7]
        q = query_vector(u)
        scores = space.points @ q
        for t in rng.integers(0, space.n_pairs, size=50):
            x_id, p_id = space.pair(int(t))
            expected = u @ E[x_id] + U[p_id] @ E[x_id] + u @ U[p_id]
            assert scores[t] == pytest.approx(expected, rel=1e-9)

    def test_transform_pairs_alignment_validation(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError):
            transform_pairs(
                E[:3], U[:2], event_index=np.arange(3), partner_index=np.arange(2)
            )
        # The pre-factoring call shape (one vector and one global id per
        # pair, positionally) is refused rather than read as row indices.
        with pytest.raises(TypeError):
            transform_pairs(E[:3], U[:3], np.arange(3), np.arange(3))

    def test_pair_decoding(self, rng):
        E, U = random_vectors(rng, n_events=3, n_partners=2)
        space = transform_all_pairs(
            E, U, event_ids=np.array([10, 11, 12]), partner_ids=np.array([7, 8])
        )
        decoded = {space.pair(i) for i in range(space.n_pairs)}
        assert decoded == {(e, p) for e in (10, 11, 12) for p in (7, 8)}

    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
    def test_dense_rows_into_a_buffer_is_the_same_bits(self, rng, pruned):
        E, U = random_vectors(rng)
        if pruned:
            space = build_pruned_pair_space(E, U, 4)
        else:
            space = transform_all_pairs(E, U)
        n = space.n_pairs
        for lo, hi in [(0, n), (7, 7), (13, 90), (n - 5, n)]:
            # A view into a wider scratch, as the IVF build passes it.
            scratch = np.full((n + 3, space.dim), np.nan)
            got = space.dense_rows(lo, hi, scratch[: hi - lo])
            assert got.base is scratch
            np.testing.assert_array_equal(got, space.dense_rows(lo, hi))
            assert np.isnan(scratch[hi - lo :]).all()
        whole = np.empty((n, space.dim))
        np.testing.assert_array_equal(space.dense_rows(out=whole), space.points)

    def test_dense_rows_rejects_a_buffer_of_another_shape_or_dtype(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        for out in (
            np.empty((9, space.dim)),
            np.empty((10, space.dim - 1)),
            np.empty(10 * space.dim),
            np.empty((10, space.dim), dtype=np.float32),
        ):
            with pytest.raises(ValueError, match="out must be float64"):
                space.dense_rows(20, 30, out)


def reference_top_n(scores, n, excluded=None):
    """Loop reference of the canonical selection: (-score, index), finite."""
    ranked = sorted(
        (-score, i)
        for i, score in enumerate(scores.tolist())
        if np.isfinite(score) and (excluded is None or not excluded[i])
    )
    return [i for _neg, i in ranked[:n]]


class TestFactoredKernel:
    """The factored scan ``a[event] + b[partner] + w·c[pair]`` against the
    materialised ``points @ q`` it replaces — the scoring oracle."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=40),
        tie_heavy=st.booleans(),
        exclude=st.booleans(),
        pruned=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equals_dense_points(
        self, seed, n, tie_heavy, exclude, pruned
    ):
        rng = np.random.default_rng(seed)
        n_events, n_partners, dim = (int(rng.integers(1, 9)) for _ in range(3))
        if tie_heavy:
            # Quantised levels: every sum is exact in float64, so the two
            # summation orders agree bit for bit and ties are everywhere.
            def draw(*shape):
                return rng.integers(0, 3, size=shape).astype(np.float64) * 0.5
        else:
            def draw(*shape):
                return np.abs(rng.normal(size=shape))
        E, U = draw(n_events, dim), draw(n_partners, dim)
        # Any non-negative extended query, not only (u, u, 1).
        q = draw(2 * dim + 1)
        if pruned:
            space = build_pruned_pair_space(E, U, int(rng.integers(1, n_events + 1)))
        else:
            space = transform_all_pairs(E, U)
        who = int(rng.integers(0, n_partners)) if exclude else None
        stop = int(rng.integers(1, space.n_pairs + 1))

        dense = space.points @ q
        factored = space.scores(q)
        if tie_heavy:
            np.testing.assert_array_equal(factored, dense)
        else:
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(factored - dense).max() <= 1e-12 * scale
        np.testing.assert_array_equal(
            space.scores(q, stop=stop), factored[:stop]
        )

        excluded = space.partner_ids == who
        masked = space.scores(q, exclude_partner=who)
        assert np.all(np.isneginf(masked[excluded]))
        np.testing.assert_array_equal(masked[~excluded], factored[~excluded])

        got = scan_top_n(space, q, n, exclude_partner=who, stop=stop)
        want = reference_top_n(factored[:stop], n, excluded[:stop])
        assert got.pair_indices.tolist() == want
        np.testing.assert_array_equal(got.scores, factored[want])
        assert got.n_examined == stop
        assert got.exact == (stop == space.n_pairs)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        size=st.integers(min_value=1, max_value=20_000),
        n=st.integers(min_value=1, max_value=30),
        levels=st.sampled_from([2, 5, 10**6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_top_n_is_the_canonical_selection(
        self, seed, size, n, levels
    ):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=size).astype(np.float64)
        scores[rng.random(size) < 0.1] = -np.inf
        assert top_n(scores, n).tolist() == reference_top_n(scores, n)
        # A reordered subset breaks ties on the original pair index.
        pair_index = rng.permutation(size).astype(np.int64)
        got = top_n(scores, n, pair_index)
        inverse = np.argsort(pair_index)
        want = reference_top_n(scores[inverse], n)
        assert pair_index[got].tolist() == want

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_bits_do_not_depend_on_slicing(self, seed):
        # What makes sharded merge == single index and extend == build
        # bit-exact: every per-pair / per-partner number is a reduction
        # over that pair's (partner's) own K values only.
        rng = np.random.default_rng(seed)
        n_events, n_partners, dim = 7, 13, int(rng.integers(1, 20))
        E = np.abs(rng.normal(size=(n_events, dim)))
        U = np.abs(rng.normal(size=(n_partners, dim)))
        q = np.abs(rng.normal(size=2 * dim + 1))
        whole = transform_all_pairs(E, U)
        grid = whole.interaction.reshape(n_events, n_partners)
        _a, b, _w = whole.query_terms(q)
        lo, hi = sorted(rng.choice(n_partners + 1, size=2, replace=False))
        part = transform_all_pairs(E, U[lo:hi])
        np.testing.assert_array_equal(
            part.interaction.reshape(n_events, hi - lo), grid[:, lo:hi]
        )
        np.testing.assert_array_equal(part.query_terms(q)[1], b[lo:hi])
        # Listed pairs (the pruned layout) reduce exactly like the cross
        # product does.
        event_index, partner_index = explicit_pair_indices(whole)
        listed = transform_pairs(
            E, U, event_index=event_index, partner_index=partner_index
        )
        np.testing.assert_array_equal(listed.interaction, whole.interaction)


class TestBruteForce:
    def test_returns_descending_scores(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        result = BruteForceIndex(space).query(query_vector(U[0]), 10)
        assert np.all(np.diff(result.scores) <= 1e-12)
        # n_examined counts the pairs the bounded scan scored: whole
        # event rows, never more than the space.
        assert result.exact
        assert 0 < result.n_examined <= space.n_pairs
        assert result.n_examined % U.shape[0] == 0
        assert result.fraction_examined == result.n_examined / space.n_pairs

    def test_exclude_partner(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        result = BruteForceIndex(space).query(query_vector(U[3]), 20, exclude=3)
        for idx in result.pair_indices:
            assert space.partner_ids[idx] != 3

    def test_n_larger_than_candidates(self, rng):
        E, U = random_vectors(rng, n_events=2, n_partners=2)
        space = transform_all_pairs(E, U)
        result = BruteForceIndex(space).query(query_vector(U[0]), 50)
        assert len(result.pair_indices) == space.n_pairs

    def test_rejects_bad_n(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        with pytest.raises(ValueError):
            BruteForceIndex(space).query(query_vector(U[0]), 0)


class TestThresholdAlgorithm:
    def test_exactness_against_brute_force(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        ta = ThresholdAlgorithmIndex(space)
        bf = BruteForceIndex(space)
        for user in range(10):
            rt = ta.query(query_vector(U[user]), 8, exclude=user)
            rb = bf.query(query_vector(U[user]), 8, exclude=user)
            np.testing.assert_allclose(
                np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9
            )

    def test_statistics_bounded(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        result = ThresholdAlgorithmIndex(space).query(query_vector(U[0]), 5)
        assert 0 < result.n_examined <= space.n_pairs
        assert 0.0 < result.fraction_examined <= 1.0
        assert result.n_sorted_accesses >= result.n_examined

    def test_zero_query_returns_empty(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        # A zero user vector still has the constant-1 dimension active, so
        # use a fully zero candidate set instead: all scores tie at 0.
        result = ThresholdAlgorithmIndex(space).query(
            query_vector(np.zeros(E.shape[1])), 3
        )
        assert len(result.pair_indices) == 3  # constant dim still ranks

    def test_chunk_parameter_validated(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        with pytest.raises(ValueError):
            ThresholdAlgorithmIndex(space).query(query_vector(U[0]), 3, chunk=0)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_property_ta_equals_bf(self, seed):
        rng = np.random.default_rng(seed)
        E, U = random_vectors(
            rng,
            n_events=int(rng.integers(2, 15)),
            n_partners=int(rng.integers(2, 20)),
            k=int(rng.integers(2, 6)),
        )
        space = transform_all_pairs(E, U)
        n = int(rng.integers(1, 8))
        user = int(rng.integers(0, U.shape[0]))
        rt = ThresholdAlgorithmIndex(space).query(query_vector(U[user]), n)
        rb = BruteForceIndex(space).query(query_vector(U[user]), n)
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9, atol=1e-12
        )


class TestTaBruteForceParity:
    """Property-style checks that TA's exact top-n matches the oracle,
    including the degenerate corners a serving layer actually hits."""

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_parity_across_seeds_including_overlong_n(self, seed):
        rng = np.random.default_rng(seed)
        E, U = random_vectors(
            rng,
            n_events=int(rng.integers(1, 12)),
            n_partners=int(rng.integers(2, 15)),
            k=int(rng.integers(2, 6)),
        )
        space = transform_all_pairs(E, U)
        user = int(rng.integers(0, U.shape[0]))
        exclude = user if rng.random() < 0.5 else None
        # Deliberately spans n > n_candidates.
        n = int(rng.integers(1, 2 * space.n_pairs + 2))
        rt = ThresholdAlgorithmIndex(space).query(
            query_vector(U[user]), n, exclude=exclude
        )
        rb = BruteForceIndex(space).query(query_vector(U[user]), n, exclude=exclude)
        assert rt.scores.shape == rb.scores.shape
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9, atol=1e-12
        )
        if exclude is not None:
            assert not np.any(space.partner_ids[rt.pair_indices] == exclude)

    def test_n_exceeding_candidates_returns_everything(self, rng):
        E, U = random_vectors(rng, n_events=3, n_partners=4)
        space = transform_all_pairs(E, U)
        rt = ThresholdAlgorithmIndex(space).query(query_vector(U[0]), 500)
        rb = BruteForceIndex(space).query(query_vector(U[0]), 500)
        assert len(rt.pair_indices) == len(rb.pair_indices) == space.n_pairs
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9
        )

    def test_exclusion_removes_a_top_hit(self, rng):
        E, U = random_vectors(rng, n_events=4, n_partners=6)
        # Make partner 2 dominate: it owns the unexcluded top pair.
        U[2] = 10.0
        space = transform_all_pairs(E, U)
        ta = ThresholdAlgorithmIndex(space)
        bf = BruteForceIndex(space)
        top = ta.query(query_vector(U[0]), 1)
        assert space.partner_ids[top.pair_indices[0]] == 2
        rt = ta.query(query_vector(U[0]), 5, exclude=2)
        rb = bf.query(query_vector(U[0]), 5, exclude=2)
        assert not np.any(space.partner_ids[rt.pair_indices] == 2)
        np.testing.assert_allclose(
            np.sort(rt.scores), np.sort(rb.scores), rtol=1e-9
        )

    def test_all_zero_extended_query(self, rng):
        E, U = random_vectors(rng)
        space = transform_all_pairs(E, U)
        q = np.zeros(space.dim)
        rt = ThresholdAlgorithmIndex(space).query(
            q, 7, exclude=1
        )
        rb = BruteForceIndex(space).query(q, 7, exclude=1)
        # Every candidate ties at score 0; both must return a full top-7
        # of zero scores, honouring the exclusion.
        assert rt.scores.shape == rb.scores.shape == (7,)
        np.testing.assert_allclose(rt.scores, 0.0)
        np.testing.assert_allclose(rb.scores, 0.0)
        assert not np.any(space.partner_ids[rt.pair_indices] == 1)
        assert not np.any(space.partner_ids[rb.pair_indices] == 1)


def _tie_heavy_vectors(rng, n, k):
    """Three levels per entry — exact zeros, some of them ``-0.0`` — and a
    third of the rows copies of others."""
    v = rng.integers(0, 3, size=(n, k)).astype(np.float64) * 0.5
    v[(v == 0.0) & (rng.random(v.shape) < 0.5)] = -0.0
    v[rng.integers(0, n, size=n // 3)] = v[rng.integers(0, n, size=n // 3)]
    return v


def _appended_space(space, E, U, n_events):
    """``space`` (over ``E[:n_events]``) plus every pair of the events after
    it, appended as cross rows — how a refresh grows a pruned or unpruned
    space."""
    block = transform_all_pairs(E[n_events:], U)
    return PairSpace(
        event_factors=E,
        partner_factors=U,
        candidate_events=np.arange(E.shape[0]),
        candidate_partners=np.arange(U.shape[0]),
        interaction=np.concatenate([space.interaction, block.interaction]),
        event_index=space.event_index,
        partner_index=space.partner_index,
        cross_max=np.concatenate([space.cross_max, block.cross_max]),
    )


class TestRankKeyedLists:
    """TA's lists are sorted by the dense ranks of the factor rows; they
    must be the float sort's (``tests/reference_kernels.py``) exactly —
    every tie in pair order, ``-0.0`` tied with ``0.0``."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        pruned=st.booleans(),
        tie_heavy=st.booleans(),
        appended=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_lists_equal_the_float_sort(
        self, seed, pruned, tie_heavy, appended
    ):
        rng = np.random.default_rng(seed)
        n_events, n_partners = int(rng.integers(2, 30)), int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        if tie_heavy:
            E = _tie_heavy_vectors(rng, n_events + appended, k)
            U = _tie_heavy_vectors(rng, n_partners, k)
        else:
            E, U = random_vectors(rng, n_events + appended, n_partners, k)
        if pruned:  # partner-major, events in preference order
            top_k = int(rng.integers(1, n_events + 1))
            space = build_pruned_pair_space(E[:n_events], U, top_k)
        else:  # event-major
            space = transform_all_pairs(E[:n_events], U)
        ta = ThresholdAlgorithmIndex(space)
        np.testing.assert_array_equal(
            ta.sorted_lists, float_sorted_lists(space.points)
        )
        grown_space = _appended_space(space, E, U, n_events)
        grown = ta.extend(grown_space, space.n_pairs)
        np.testing.assert_array_equal(
            grown.sorted_lists, float_sorted_lists(grown_space.points)
        )

    def test_more_than_2_15_distinct_values_sort_int32_keys(self):
        rng = np.random.default_rng(3)
        n_events = 2**15 + 9
        E = np.abs(rng.normal(size=(n_events, 2)))
        E[::7, 1] = 0.0  # ties too: one key dtype serves every column
        U = np.abs(rng.normal(size=(2, 2)))
        assert ta_module._dense_ranks(E).dtype == np.int32
        assert ta_module._dense_ranks(E[:100]).dtype == np.int16
        space = transform_all_pairs(E[: n_events - 5], U)
        ta = ThresholdAlgorithmIndex(space)
        np.testing.assert_array_equal(
            ta.sorted_lists, float_sorted_lists(space.points)
        )
        grown_space = transform_all_pairs(E, U)
        grown = ta.extend(grown_space, space.n_pairs)
        np.testing.assert_array_equal(
            grown.sorted_lists, float_sorted_lists(grown_space.points)
        )


@pytest.mark.parametrize(
    "index_class",
    [BruteForceIndex, ThresholdAlgorithmIndex, IVFIndex],
    ids=lambda c: c.__name__,
)
class TestIndexContract:
    """The one surface ``CandidateIndex`` serves every rung through."""

    def _index(self, index_class, rng, n_events=6):
        E, U = random_vectors(rng, n_events=8, n_partners=9, k=4)
        return index_class(transform_all_pairs(E[:n_events], U)), E, U

    def test_surface(self, index_class, rng):
        index, _E, U = self._index(index_class, rng)
        space = index.space
        assert index.n_candidates == space.n_pairs
        assert index.memory_bytes() >= space.nbytes > 0
        result = index.query(query_vector(U[2]), 4, exclude=2)
        assert 0 < result.pair_indices.size <= 4
        assert not np.any(space.partner_ids[result.pair_indices] == 2)

    def test_rejects_bad_n(self, index_class, rng):
        index, _E, U = self._index(index_class, rng)
        with pytest.raises(ValueError, match="n must be >= 1"):
            index.query(query_vector(U[0]), 0)

    def test_rejects_wrong_query_dimension(self, index_class, rng):
        index, _E, U = self._index(index_class, rng)
        with pytest.raises(ValueError, match="query dim"):
            index.query(U[0], 3)  # the raw user vector, not (u, u, 1)

    def test_extend_rejects_wrong_n_old(self, index_class, rng):
        index, E, U = self._index(index_class, rng)
        with pytest.raises(ValueError, match="n_old"):
            index.extend(transform_all_pairs(E, U), index.n_candidates - 1)

    def test_extend_rejects_smaller_space(self, index_class, rng):
        index, E, U = self._index(index_class, rng)
        with pytest.raises(ValueError, match="smaller"):
            index.extend(transform_all_pairs(E[:3], U), index.n_candidates)

    def test_extend_returns_a_new_index_and_leaves_the_old_one(self, index_class, rng):
        index, E, U = self._index(index_class, rng)
        q = query_vector(U[4])
        before = index.query(q, 30, exclude=4)
        space = index.space
        grown = index.extend(transform_all_pairs(E, U), index.n_candidates)
        assert type(grown) is index_class and grown is not index
        assert grown.n_candidates == 8 * 9 > index.n_candidates == 6 * 9
        # A reader still holding the old index sees exactly what it saw.
        assert index.space is space
        after = index.query(q, 30, exclude=4)
        np.testing.assert_array_equal(after.pair_indices, before.pair_indices)
        np.testing.assert_array_equal(after.scores, before.scores)
        # Full probe is the brute-force scan: the grown cells over the old
        # centroids must hold every pair.
        if index_class is IVFIndex:
            got = grown.query(q, 30, exclude=4, nprobe=grown.n_clusters)
            fresh = BruteForceIndex(transform_all_pairs(E, U))
        else:
            got = grown.query(q, 30, exclude=4)
            fresh = index_class(transform_all_pairs(E, U))
        want = fresh.query(q, 30, exclude=4)
        np.testing.assert_array_equal(got.pair_indices, want.pair_indices)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_budget_accepted_and_only_ta_stops_inside_it(self, index_class, rng):
        index, _E, U = self._index(index_class, rng)
        q = query_vector(U[1])
        unbounded = index.query(q, 5, exclude=1)
        expired = index.query(q, 5, exclude=1, budget_s=1e-9)
        if index_class is ThresholdAlgorithmIndex:
            assert unbounded.exact and not expired.exact
        else:  # one pass, no interruption point: the budget changes nothing
            assert expired.exact == unbounded.exact
            np.testing.assert_array_equal(expired.pair_indices, unbounded.pair_indices)
            np.testing.assert_array_equal(expired.scores, unbounded.scores)


class TestPruning:
    def test_top_k_shapes(self, rng):
        E, U = random_vectors(rng)
        rows, cols = top_k_events_per_partner(E, U, 5)
        assert rows.shape == cols.shape == (U.shape[0] * 5,)

    def test_top_k_selects_best_events(self, rng):
        E, U = random_vectors(rng)
        rows, cols = top_k_events_per_partner(E, U, 3)
        scores = U @ E.T
        for p in range(U.shape[0]):
            mine = cols[rows == p]
            worst_kept = scores[p][mine].min()
            dropped = np.setdiff1d(np.arange(E.shape[0]), mine)
            assert np.all(scores[p][dropped] <= worst_kept + 1e-12)

    def test_k_equals_n_events_keeps_everything(self, rng):
        E, U = random_vectors(rng, n_events=6)
        rows, cols = top_k_events_per_partner(E, U, 6)
        for p in range(U.shape[0]):
            assert set(cols[rows == p].tolist()) == set(range(6))

    def test_invalid_k(self, rng):
        E, U = random_vectors(rng, n_events=6)
        with pytest.raises(ValueError):
            top_k_events_per_partner(E, U, 0)
        with pytest.raises(ValueError):
            top_k_events_per_partner(E, U, 7)

    def test_pruned_space_size(self, rng):
        E, U = random_vectors(rng)
        space = build_pruned_pair_space(E, U, 4)
        assert space.n_pairs == U.shape[0] * 4

    def test_pruned_space_respects_global_ids(self, rng):
        E, U = random_vectors(rng, n_events=5)
        event_ids = np.array([100, 101, 102, 103, 104])
        space = build_pruned_pair_space(E, U, 2, event_ids=event_ids)
        assert set(space.event_ids.tolist()) <= set(event_ids.tolist())


class TestRecommender:
    def test_ta_and_bf_agree_end_to_end(self, rng):
        E, U = random_vectors(rng)
        events = np.arange(E.shape[0])
        ta = ServingEngine(U, E, events, backend="ta")
        bf = ServingEngine(U, E, events, backend="bruteforce")
        for user in (0, 5, 9):
            a = ta.recommend(user, n=6)
            b = bf.recommend(user, n=6)
            assert [r.score for r in a] == pytest.approx(
                [r.score for r in b], rel=1e-9
            )

    def test_never_recommends_self_as_partner(self, rng):
        E, U = random_vectors(rng)
        reco = ServingEngine(U, E, np.arange(E.shape[0]), backend="ta")
        for rec in reco.recommend(4, n=15):
            assert rec.partner != 4

    def test_pruning_shrinks_candidate_pairs(self, rng):
        E, U = random_vectors(rng)
        full = ServingEngine(U, E, np.arange(E.shape[0]))
        pruned = ServingEngine(
            U, E, np.arange(E.shape[0]), top_k_events=3
        )
        assert pruned.n_candidate_pairs == U.shape[0] * 3
        assert pruned.n_candidate_pairs < full.n_candidate_pairs

    def test_candidate_partner_restriction(self, rng):
        E, U = random_vectors(rng)
        partners = np.array([2, 4, 6])
        reco = ServingEngine(
            U, E, np.arange(E.shape[0]), candidate_partners=partners
        )
        for rec in reco.recommend(0, n=10):
            assert rec.partner in {2, 4, 6}

    def test_invalid_method(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError):
            ServingEngine(U, E, np.arange(3), backend="psychic")

    def test_empty_candidate_events_rejected(self, rng):
        E, U = random_vectors(rng)
        with pytest.raises(ValueError):
            ServingEngine(U, E, np.array([], dtype=np.int64))

    def test_recommendation_scores_match_eqn8(self, rng):
        E, U = random_vectors(rng)
        reco = ServingEngine(U, E, np.arange(E.shape[0]))
        for rec in reco.recommend(3, n=5):
            expected = (
                U[3] @ E[rec.event]
                + U[rec.partner] @ E[rec.event]
                + U[3] @ U[rec.partner]
            )
            assert rec.score == pytest.approx(expected, rel=1e-9)
