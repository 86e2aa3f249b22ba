"""IVF backend: the three properties the serving stack relies on.

:mod:`repro.online.ivf` is the first *approximate* retrieval path in the
codebase, so its correctness story is different from TA's: instead of
"always exact", it commits to (1) bit-identity with the brute-force
oracle at full probe, (2) recall monotone non-decreasing in ``nprobe``,
and (3) ``extend()`` reproducing a fresh ``build()`` whenever the
k-means training prefix is unchanged.  The Hypothesis properties here
attack each claim in the regime where a sloppy implementation diverges:
heavily quantised scores (many exact ties, including at the top-n
boundary), tiny and skewed cluster counts, partner exclusion, and
multi-step fold-ins.  The engine/ladder tests then pin the integration
behaviour ISSUE 10 adds: the ``ivf`` rung, its telemetry, and the
sibling surviving ``refresh`` but not ``rebuild``.
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.online.bruteforce import BruteForceIndex
from repro.online.ivf import (
    IVFIndex,
    _block_rows,
    _BlockAssigner,
    _train_kmeans,
    default_n_clusters,
    default_nprobe,
)
from repro.online.pruning import top_k_events_per_partner
from repro.online.transform import transform_all_pairs, transform_pairs
from repro.serving import ServingEngine
from tests.reference_kernels import (
    float64_block_scores,
    row_list_ivf_query,
    two_step_block_scores,
)


def _pair_space(seed: int, n_events: int, n_partners: int, dim: int,
                tie_heavy: bool = False):
    """A transformed pair space over random non-negative embeddings."""
    rng = np.random.default_rng(seed)
    if tie_heavy:
        # Few distinct levels -> inner products collide constantly,
        # including across cluster boundaries at the top-n cut.
        events = rng.integers(0, 3, size=(n_events, dim)).astype(np.float64) * 0.5
        partners = rng.integers(0, 3, size=(n_partners, dim)).astype(np.float64) * 0.5
    else:
        events = np.abs(rng.normal(size=(n_events, dim)))
        partners = np.abs(rng.normal(size=(n_partners, dim)))
    space = transform_all_pairs(
        events,
        partners,
        event_ids=np.arange(n_events, dtype=np.int64),
        partner_ids=np.arange(n_partners, dtype=np.int64),
    )
    query = rng.integers(0, 3, size=dim).astype(np.float64) * 0.5
    q = np.concatenate([query, query, [1.0]])
    return space, q


def _dyadic_space(seed: int, n_events: int, n_partners: int, dim: int):
    """Embeddings on a 1/16 grid: every dot product of the space is exact."""
    rng = np.random.default_rng(seed)
    events = rng.integers(0, 64, size=(n_events, dim)).astype(np.float64) / 16
    partners = rng.integers(0, 64, size=(n_partners, dim)).astype(np.float64) / 16
    return transform_all_pairs(events, partners)


#: Everything a build derives, in the order the determinism pin hashes it.
_INDEX_ARRAYS = (
    "centroids", "_labels", "_order", "_offsets",
    "_block_events", "_block_partners", "_block_interaction",
)


class TestFullProbeEqualsBruteForce:
    """Property 1: ``nprobe == n_clusters`` is bit-identical to GEM-BF."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=1, max_value=20),
        tie_heavy=st.booleans(),
        exclude=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_full_probe_bit_identical(
        self, seed, n_clusters, n, tie_heavy, exclude
    ):
        space, q = _pair_space(seed, n_events=7, n_partners=11, dim=4,
                               tie_heavy=tie_heavy)
        oracle = BruteForceIndex(space)
        ivf = IVFIndex(space, n_clusters=n_clusters, seed=seed % 7)
        who = 3 if exclude else None
        ref = oracle.query(q, n, exclude=who)
        got = ivf.query(q, n, exclude=who, nprobe=ivf.n_clusters)
        np.testing.assert_array_equal(ref.pair_indices, got.pair_indices)
        np.testing.assert_array_equal(ref.scores, got.scores)
        assert got.exact
        assert got.n_clusters_probed == ivf.n_clusters

    def test_partial_probe_is_marked_inexact(self):
        space, q = _pair_space(0, n_events=8, n_partners=10, dim=4)
        ivf = IVFIndex(space, n_clusters=8, nprobe=2)
        result = ivf.query(q, 5)
        assert not result.exact
        assert result.n_clusters_probed == 2
        assert 0 < result.n_examined < space.n_pairs


class _CellScores:
    """Stands in for ``centroids``: ``@ q`` is the given score per cell.

    All a partial probe reads of the quantizer is ``centroids @ q``, so
    this places exact ties, signed zeros and non-finite scores at the
    probe boundary without depending on how BLAS rounds a product.
    """

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def __matmul__(self, q):
        return self.scores.copy()


def _assert_same_answer(got, ref):
    """Field for field; scores by their bits (``-0.0`` and NaN included)."""
    assert got.pair_indices.dtype == ref.pair_indices.dtype
    np.testing.assert_array_equal(got.pair_indices, ref.pair_indices)
    assert got.scores.dtype == ref.scores.dtype
    assert got.scores.tobytes() == ref.scores.tobytes()
    for name in (
        "n_examined", "n_sorted_accesses", "fraction_examined", "exact",
        "n_clusters_probed",
    ):
        assert getattr(got, name) == getattr(ref, name), name


class TestPartialProbeEqualsRowListReference:
    """``query`` below full probe against the kernel it replaced.

    The reference (``tests/reference_kernels.py``) sorts every cell by
    ``(-centroid_score, cluster_id)`` and gathers the probed rows through
    an int64 row list; the index selects the same prefix as a set and
    joins cell slices.  Same answer, field for field, at every width.
    """

    @staticmethod
    def _nested_spaces(seed, tie_heavy, pruned, n_steps):
        """Spaces over growing event sets, each a row prefix of the next."""
        rng = np.random.default_rng(seed)
        n_base, n_partners, dim = 6, 7, 4

        def draw(n):
            if tie_heavy:
                return rng.integers(0, 3, size=(n, dim)).astype(np.float64) * 0.5
            return np.abs(rng.normal(size=(n, dim)))

        sizes = n_base + np.cumsum([0, *rng.integers(1, 4, size=n_steps)])
        events, partners = draw(int(sizes[-1])), draw(n_partners)
        if pruned:
            # As the engine extends a pruned space: top-k pairs of the base
            # events, then every pair of each appended event.
            p_idx, e_idx = top_k_events_per_partner(events[:n_base], partners, 2)
        else:
            e_idx = np.repeat(np.arange(n_base), n_partners)
            p_idx = np.tile(np.arange(n_partners), n_base)
        spaces = []
        for n_events in sizes.tolist():
            fresh = np.arange(n_base, n_events)
            spaces.append(
                transform_pairs(
                    events[:n_events],
                    partners,
                    event_index=np.concatenate(
                        [e_idx, np.repeat(fresh, n_partners)]
                    ),
                    partner_index=np.concatenate(
                        [p_idx, np.tile(np.arange(n_partners), fresh.size)]
                    ),
                )
            )
        query = rng.integers(0, 3, size=dim).astype(np.float64) * 0.5
        return spaces, np.concatenate([query, query, [1.0]])

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=2, max_value=9),
        n=st.integers(min_value=1, max_value=20),
        tie_heavy=st.booleans(),
        pruned=st.booleans(),
        exclude=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_every_width_before_and_after_extends(
        self, seed, n_clusters, n, tie_heavy, pruned, exclude
    ):
        spaces, q = self._nested_spaces(seed, tie_heavy, pruned, n_steps=2)
        ivf = IVFIndex(spaces[0], n_clusters=n_clusters, seed=seed % 5)
        who = 3 if exclude else None
        for grown in (None, *spaces[1:]):
            if grown is not None:
                ivf = ivf.extend(grown, ivf.space.n_pairs)
            for p in range(1, ivf.n_clusters):
                _assert_same_answer(
                    ivf.query(q, n, exclude=who, nprobe=p),
                    row_list_ivf_query(ivf, q, n, exclude=who, nprobe=p),
                )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        levels=st.lists(
            st.sampled_from(
                [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan]
            ),
            min_size=2,
            max_size=9,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_ties_at_the_boundary_probe_the_smaller_ids(
        self, seed, levels
    ):
        # Few distinct cell scores: nearly every width cuts through a run
        # of equal ones (0.0 == -0.0 among them; NaN ranks last, by id).
        space, q = _pair_space(seed, n_events=7, n_partners=8, dim=4)
        ivf = IVFIndex(space, n_clusters=len(levels), seed=seed % 3)
        ivf.centroids = _CellScores(levels[: ivf.n_clusters])
        previous = set()
        for p in range(1, ivf.n_clusters):
            got = ivf.query(q, 10, nprobe=p)
            ref = row_list_ivf_query(ivf, q, 10, nprobe=p)
            _assert_same_answer(got, ref)
            assert got.n_clusters_probed == p
            # Which cells were read, from the rows that came back: every
            # pair of the probed cells is returned at n = n_pairs.
            everything = ivf.query(q, space.n_pairs, nprobe=p)
            probed = set(ivf._labels[everything.pair_indices].tolist())
            assert previous <= probed  # nested in nprobe
            previous = probed

    @pytest.mark.parametrize(
        "levels, p, expected",
        [
            ([2.0, 1.0, 1.0, 1.0, 0.5, 3.0], 3, {5, 0, 1}),
            ([2.0, 1.0, 1.0, 1.0, 0.5, 3.0], 4, {5, 0, 1, 2}),
            ([1.0, 0.0, 5.0, -0.0, 0.0, -2.0], 3, {2, 0, 1}),
            ([1.0, -0.0, 5.0, 0.0, 0.0, -2.0], 4, {2, 0, 1, 3}),
            ([np.nan, 1.0, np.nan, 2.0, np.nan, -np.inf], 4, {3, 1, 5, 0}),
            ([np.nan] * 6, 2, {0, 1}),
        ],
    )
    def test_tied_cells_at_the_boundary(self, levels, p, expected):
        space, q = _pair_space(11, n_events=9, n_partners=8, dim=4)
        ivf = IVFIndex(space, n_clusters=6, seed=1)
        assert (ivf.cluster_sizes() > 0).all()
        ivf.centroids = _CellScores(levels)
        got = ivf.query(q, space.n_pairs, nprobe=p)
        assert set(ivf._labels[got.pair_indices].tolist()) == expected
        assert got.n_clusters_probed == p
        assert got.n_examined == int(ivf.cluster_sizes()[sorted(expected)].sum())
        _assert_same_answer(
            got, row_list_ivf_query(ivf, q, space.n_pairs, nprobe=p)
        )

    def test_non_finite_query_still_probes_nprobe_cells(self):
        space, q = _pair_space(12, n_events=9, n_partners=8, dim=4)
        ivf = IVFIndex(space, n_clusters=6, seed=1)
        q[0] = np.nan  # every centroid score is NaN: cells rank by id
        for p in (1, 3, 5):
            got = ivf.query(q, 5, nprobe=p)
            assert got.n_clusters_probed == p
            assert got.n_examined == int(ivf.cluster_sizes()[:p].sum())
            _assert_same_answer(got, row_list_ivf_query(ivf, q, 5, nprobe=p))

    def test_empty_cells_are_scanned_as_nothing(self):
        # Identical points all land in cell 0 (argmin ties go to the lowest
        # id): four of the five cells are empty.
        space = transform_all_pairs(np.full((5, 3), 0.5), np.full((6, 3), 0.25))
        q = np.concatenate([np.ones(3), np.ones(3), [1.0]])
        ivf = IVFIndex(space, n_clusters=5, n_iters=0)
        assert ivf.cluster_sizes().tolist() == [space.n_pairs, 0, 0, 0, 0]
        ivf.centroids = _CellScores([0.0, 3.0, 2.0, 1.0, 1.0])
        for p in (1, 3, 4):  # every probed cell empty
            got = ivf.query(q, 4, nprobe=p)
            assert got.pair_indices.size == got.scores.size == 0
            assert got.n_examined == 0 and not got.exact
            assert got.fraction_examined == 0.0 and got.n_clusters_probed == p
            _assert_same_answer(got, row_list_ivf_query(ivf, q, 4, nprobe=p))
        ivf.centroids = _CellScores([2.5, 3.0, 2.0, 1.0, 1.0])
        got = ivf.query(q, 4, nprobe=2)  # an empty cell beside the full one
        assert got.pair_indices.tolist() == [0, 1, 2, 3]
        # Partial by width, whole by coverage: the cells held every pair.
        assert got.n_examined == space.n_pairs and got.exact
        _assert_same_answer(got, row_list_ivf_query(ivf, q, 4, nprobe=2))


class TestRecallMonotoneInNprobe:
    """Property 2: recall@n never decreases as the probe widens."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=2, max_value=12),
        n=st.integers(min_value=1, max_value=15),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_recall_monotone(self, seed, n_clusters, n, tie_heavy):
        space, q = _pair_space(seed, n_events=9, n_partners=9, dim=4,
                               tie_heavy=tie_heavy)
        oracle = BruteForceIndex(space)
        ivf = IVFIndex(space, n_clusters=n_clusters, seed=1)
        truth = set(oracle.query(q, n).pair_indices.tolist())
        prev = -1.0
        for p in range(1, ivf.n_clusters + 1):
            got = ivf.query(q, n, nprobe=p)
            recall = len(truth & set(got.pair_indices.tolist())) / len(truth)
            assert recall >= prev, f"recall dropped at nprobe={p}"
            prev = recall
        assert prev == 1.0  # full probe is exact


class TestExtendEqualsBuild:
    """Property 3: fold-in splice == fresh build over the same rows."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=1, max_value=8),
        n_steps=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_extend_equals_fresh_build(
        self, seed, n_clusters, n_steps
    ):
        rng = np.random.default_rng(seed)
        n_partners, dim = 7, 4
        partners = np.abs(rng.normal(size=(n_partners, dim)))
        base_events = np.abs(rng.normal(size=(6, dim)))

        def build_space(events):
            return transform_all_pairs(
                events,
                partners,
                event_ids=np.arange(events.shape[0], dtype=np.int64),
                partner_ids=np.arange(n_partners, dtype=np.int64),
            )

        # Cap training below the base size: the equivalence holds exactly
        # when the fresh build's training prefix is unchanged by the
        # appended rows (min(n_total, train_cap) <= n_old — the streaming
        # steady state, where the space has long outgrown the cap).
        cap = 32  # base space is 6 * 7 = 42 pairs
        events = base_events
        ivf = IVFIndex(
            build_space(events), n_clusters=n_clusters, train_cap=cap, seed=2
        )
        for _ in range(n_steps):
            fresh_block = np.abs(rng.normal(size=(rng.integers(1, 4), dim)))
            events = np.vstack([events, fresh_block])
            grown = build_space(events)
            n_old = ivf.space.n_pairs
            ivf = ivf.extend(grown, n_old)
        rebuilt = IVFIndex(
            build_space(events), n_clusters=n_clusters, train_cap=cap, seed=2
        )
        np.testing.assert_array_equal(ivf.centroids, rebuilt.centroids)
        np.testing.assert_array_equal(ivf._order, rebuilt._order)
        np.testing.assert_array_equal(ivf._offsets, rebuilt._offsets)
        for block in ("_block_events", "_block_partners", "_block_interaction"):
            np.testing.assert_array_equal(
                getattr(ivf, block), getattr(rebuilt, block)
            )

    @pytest.mark.parametrize(
        "appended",
        ["inside-one-block", "across-three-blocks", "both-then-one-event"],
    )
    def test_extend_from_inside_a_block(self, appended):
        # 37 pairs per event: no fold-in boundary falls on the block grid,
        # so every extend starts mid-block and rescoring that block from
        # its first row must reproduce the build's bits.
        rng = np.random.default_rng(17)
        n_partners, dim, n_clusters = 37, 4, 7
        b = _block_rows(n_clusters)
        n_base = b // n_partners + 3  # n_old a little over one block
        cap = n_base * n_partners - 50
        short, long = 2, -(-3 * b // n_partners)
        assert short * n_partners < b <= 3 * b <= long * n_partners
        partners = np.abs(rng.normal(size=(n_partners, dim)))
        events = np.abs(rng.normal(size=(n_base, dim)))
        ivf = IVFIndex(
            transform_all_pairs(events, partners),
            n_clusters=n_clusters, train_cap=cap, seed=2,
        )
        for n_new in {
            "inside-one-block": (short,),
            "across-three-blocks": (long,),
            "both-then-one-event": (short, long, 1),
        }[appended]:
            n_old = ivf.space.n_pairs
            assert n_old >= cap and n_old % b != 0
            events = np.vstack([events, np.abs(rng.normal(size=(n_new, dim)))])
            ivf = ivf.extend(transform_all_pairs(events, partners), n_old)
        rebuilt = IVFIndex(
            transform_all_pairs(events, partners),
            n_clusters=n_clusters, train_cap=cap, seed=2,
        )
        for name in _INDEX_ARRAYS:
            np.testing.assert_array_equal(
                getattr(ivf, name), getattr(rebuilt, name), err_msg=name
            )

    def test_extend_rejects_wrong_n_old(self):
        space, _q = _pair_space(3, n_events=5, n_partners=5, dim=4)
        ivf = IVFIndex(space, n_clusters=3)
        with pytest.raises(ValueError, match="n_old"):
            ivf.extend(space, space.n_pairs - 1)


class TestBlockAssignment:
    """The build kernel: fixed-shape blocks on an absolute grid.

    A row's score bits — hence its label — may depend on the row, the
    centroids and ``row mod B`` only: never on where a call starts or
    stops, nor on how many threads share the blocks.
    """

    #: 2K+1 at the spine's K = 16.  On this OpenBLAS a product this wide is
    #: routed by its row count (a short tail takes the small-matrix kernel)
    #: — the position dependence the fixed block shape removes.
    DIM = 33

    @classmethod
    def _points(cls, seed, n_clusters):
        rng = np.random.default_rng(seed)
        n = 6 * _block_rows(n_clusters) + 211  # six full blocks and a tail
        points = rng.normal(size=(n, cls.DIM))
        centroids = rng.normal(size=(n_clusters, cls.DIM))
        if seed % 2:
            # Ties in exact arithmetic that rounding breaks: both halves of a
            # point are equal and half the centroids are the others with
            # their halves swapped, so each pair's scores are the same sum
            # in another order — the label hangs on the last bit.
            h = cls.DIM // 2
            points[:, h : 2 * h] = points[:, :h]
            swap = [*range(h, 2 * h), *range(h), 2 * h]
            half = n_clusters // 2
            centroids[n_clusters - half :] = centroids[:half, swap]
        return points, centroids

    @staticmethod
    def _rows(points):
        def rows(lo, hi, out):
            out[:] = points[lo:hi]
            return out

        return rows

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=1, max_value=9),
        start=st.sampled_from(["zero", "mid-block", "block-edge"]),
        offset=st.integers(min_value=0, max_value=10**6),
        workers=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_labels_ignore_start_stop_and_workers(
        self, seed, n_clusters, start, offset, workers
    ):
        points, centroids = self._points(seed, n_clusters)
        n, b = points.shape[0], _block_rows(n_clusters)
        rows = self._rows(points)
        with _BlockAssigner(n_clusters, self.DIM, workers=1) as inline:
            whole = inline.labels(rows, 0, n, centroids)
        lo = {
            "zero": 0,
            "mid-block": b + 1 + offset % (b - 1),
            "block-edge": 2 * b,
        }[start]
        hi = lo + offset % (n - lo + 1)
        with _BlockAssigner(n_clusters, self.DIM, workers=workers) as threaded:
            np.testing.assert_array_equal(
                threaded.labels(rows, 0, n, centroids), whole
            )
            np.testing.assert_array_equal(
                threaded.labels(rows, lo, hi, centroids), whole[lo:hi]
            )
            np.testing.assert_array_equal(
                threaded.labels(rows, lo, n, centroids), whole[lo:]
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=1, max_value=9),
        block=st.integers(min_value=0, max_value=2),
        kept=st.integers(min_value=0, max_value=95)
        | st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_score_bits_ignore_the_padding(
        self, seed, n_clusters, block, kept
    ):
        # The same block scored whole and cut short (the rest zero points,
        # as at the end of a smaller space), in two different scratches.
        points, centroids = self._points(seed, n_clusters)
        b = _block_rows(n_clusters)
        rows = self._rows(points)
        operand = _BlockAssigner.operand(centroids)
        lo, n = block * b, 1 + kept % b
        with _BlockAssigner(n_clusters, self.DIM, workers=2) as assigner:
            first, second = assigner._scratch
            whole = assigner.scores(first, rows, lo, lo + b, operand)
            cut = assigner.scores(second, rows, lo, lo + n, operand)
            assert whole.shape == cut.shape == (b, n_clusters)
            np.testing.assert_array_equal(whole[:n], cut[:n])
            # A zero point scores the assigner's (float32) |c|^2 / 2 — the
            # operand's last row — against every centroid.
            np.testing.assert_array_equal(
                cut[n:], np.broadcast_to(operand[-1], cut[n:].shape)
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=2, max_value=9),
        block=st.integers(min_value=0, max_value=6),
        kept=st.integers(min_value=0, max_value=95)
        | st.integers(min_value=0, max_value=10**6),
    )
    @example(seed=1, n_clusters=9, block=6, kept=210)  # tie-heavy, the tail
    @settings(max_examples=40, deadline=None)
    def test_property_fused_norm_term_is_the_two_step_scorer(
        self, seed, n_clusters, block, kept
    ):
        # One GEMM against [-c^T; |c|^2 / 2] with a ones column must give
        # the bits of the float32 GEMM followed by the subtraction, on both
        # worlds (odd seeds tie-heavy) and however much of the block is
        # padding — scores, not only labels, so no near-tie hides a move.
        # (One cell is a matrix-vector product, which this OpenBLAS sums in
        # SIMD lanes, so the extra column moves its bits; its argmin is 0
        # either way.)
        points, centroids = self._points(seed, n_clusters)
        b = _block_rows(n_clusters)
        rows = self._rows(points)
        lo = block * b
        hi = min(lo + 1 + kept % b, points.shape[0])
        with _BlockAssigner(n_clusters, self.DIM, workers=1) as assigner:
            got = assigner.scores(
                assigner._scratch[0], rows, lo, hi,
                _BlockAssigner.operand(centroids),
            )
        want = two_step_block_scores(rows, lo, hi, centroids, b)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=2, max_value=9),
        workers=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_float32_labels_move_only_on_near_ties(
        self, seed, n_clusters, workers
    ):
        # Odd seeds are the tie-heavy world, where labels hang on the last
        # bit in either precision.  A row whose float32 label is not the
        # float64 one must be a tie to float32 resolution: the float64
        # scores of its two labels differ by no more than the error bound
        # of both float32 scores.  Per score that bound is (D + 8) * 2^-24 *
        # (|c|^2 / 2 + |p| |c|): rounding p, c and |c|^2 / 2 to float32, a
        # D-term dot product and the subtraction, each at 2^-24 relative.
        points, centroids = self._points(seed, n_clusters)
        with _BlockAssigner(n_clusters, self.DIM, workers=workers) as assigner:
            labels = assigner.labels(
                self._rows(points), 0, points.shape[0], centroids
            )
        scores = float64_block_scores(
            points, centroids, _block_rows(n_clusters)
        )
        float64_labels = scores.argmin(axis=1)
        moved = np.flatnonzero(labels != float64_labels)
        reference, got = float64_labels[moved], labels[moved]
        gap = scores[moved, got] - scores[moved, reference]
        norm_p = np.linalg.norm(points[moved], axis=1)
        norm_c = np.linalg.norm(centroids, axis=1)

        def bound(cells):
            return (self.DIM + 8) * 2.0**-24 * (
                0.5 * norm_c[cells] ** 2 + norm_p * norm_c[cells]
            )

        assert (gap >= 0).all()
        assert (gap <= bound(got) + bound(reference)).all()

    def test_workers_score_blocks_and_are_joined(self):
        points, centroids = self._points(4, 5)
        seen = set()

        def rows(lo, hi, out):
            seen.add(threading.current_thread().name)
            out[:] = points[lo:hi]
            return out

        before = threading.active_count()
        with _BlockAssigner(5, self.DIM, workers=2) as assigner:
            assigner.labels(rows, 0, points.shape[0], centroids)
            # (An idle pool thread may take both spans: one name or two.)
            assert seen and all(name.startswith("ivf-assign") for name in seen)
            seen.clear()
            # Fewer than two blocks per worker: no hand-off.
            assigner.labels(rows, 0, 3 * assigner.block_rows, centroids)
            assert seen == {threading.current_thread().name}
        assert threading.active_count() == before

    def test_a_build_leaves_no_thread_behind(self, monkeypatch):
        monkeypatch.setattr("repro.online.ivf._usable_cores", lambda: 2)
        rng = np.random.default_rng(5)
        partners = np.abs(rng.normal(size=(50, 3)))
        events = np.abs(rng.normal(size=(180, 3)))
        space = transform_all_pairs(events[:90], partners)
        assert space.n_pairs >= 4 * _block_rows(6)  # enough to hand off
        before = threading.active_count()
        ivf = IVFIndex(space, n_clusters=6)
        assert threading.active_count() == before
        ivf.extend(transform_all_pairs(events, partners), space.n_pairs)
        assert threading.active_count() == before

    def test_failing_rows_propagate_and_join(self):
        points, centroids = self._points(2, 3)

        def rows(lo, hi, out):
            raise RuntimeError("no rows")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="no rows"):
            with _BlockAssigner(3, self.DIM, workers=2) as assigner:
                assigner.labels(rows, 0, points.shape[0], centroids)
        assert threading.active_count() == before

    def test_build_is_pinned_to_the_chunked_kernel_it_replaced(self):
        # SHA-256 recorded at commit c2edcd0 (8 192-row chunks from row 0,
        # one thread), before the block kernel existed: 6 300 pairs = 7
        # blocks, 3 of them in each Lloyd pass.  The world is dyadic so the
        # stored arrays do not depend on this machine's summation order.
        # It pins the kernel, not the default: the 8 passes are explicit.
        space = _dyadic_space(21, n_events=90, n_partners=70, dim=4)
        ivf = IVFIndex(space, n_clusters=12, train_cap=3000, n_iters=8, seed=3)
        assert space.n_pairs >= 3 * _block_rows(12)
        digest = hashlib.sha256()
        for name in _INDEX_ARRAYS:
            digest.update(np.ascontiguousarray(getattr(ivf, name)).tobytes())
        assert digest.hexdigest() == (
            "73712ec53c05e5713fe7de9357612c24f3534366ed5665fe66337b4b97278599"
        )


class TestLloydUpdateMatchesAddAt:
    """The Lloyd update sums through ``core.updates.scatter_add_rows``, chunk by chunk.

    The trainer moved onto that flat-view scatter first and left
    ``_train_kmeans`` on the 2-D ``np.add.at``, whose general iterator was
    then a small share of a float64 build.  Once the assignment GEMM runs
    in float32, that iterator is a large share of what is left, so the
    update moves too: swapping ``np.add.at`` back in must not move a bit.
    Labels are given (not assigned), so empty clusters happen on purpose.
    """

    class _GivenLabels:
        """Stands in for the assigner: one given label array per pass."""

        def __init__(self, passes):
            self._passes = iter(passes)

        def labels(self, rows, start, stop, centroids):
            return next(self._passes)[start:stop]

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_clusters=st.integers(min_value=1, max_value=9),
        n_iters=st.integers(min_value=1, max_value=3),
        occupied=st.integers(min_value=1, max_value=9),
    )
    @example(seed=0, n_clusters=1, n_iters=2, occupied=1)  # a single cluster
    @example(seed=1, n_clusters=9, n_iters=3, occupied=2)  # seven stay empty
    @settings(max_examples=30, deadline=None)
    def test_property_centroids_bit_identical(
        self, seed, n_clusters, n_iters, occupied
    ):
        rng = np.random.default_rng(seed)
        train = rng.normal(size=(int(rng.integers(n_clusters, 200)), 33))
        # Labels from the first ``occupied`` cells only: the rest stay empty
        # and keep their previous centroid.
        passes = [
            rng.integers(0, min(occupied, n_clusters), size=train.shape[0])
            for _ in range(n_iters)
        ]

        # The build hands the prefix over in row chunks; the 2-D
        # ``np.add.at`` reference sums it as one matrix.
        cuts = np.sort(rng.integers(0, train.shape[0] + 1, size=int(rng.integers(0, 4))))
        flat = _train_kmeans(
            np.split(train, cuts), n_clusters, n_iters, seed, self._GivenLabels(passes)
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.online.ivf.scatter_add_rows", np.add.at)
            two_d = _train_kmeans(
                [train], n_clusters, n_iters, seed, self._GivenLabels(passes)
            )
        assert flat.tobytes() == two_d.tobytes()


class TestKnobsAndDefaults:
    def test_default_n_clusters_is_sqrt_clamped(self):
        assert default_n_clusters(0) == 1
        assert default_n_clusters(100) == 10
        assert default_n_clusters(10**9) == 4096

    def test_default_nprobe_fraction(self):
        assert default_nprobe(1) == 1
        assert default_nprobe(8) == 2
        assert default_nprobe(1024) == 256

    def test_default_operating_point_recall_below_a_full_scan(self):
        # The guarantee DEFAULT_NPROBE_FRACTION documents, on the tiny
        # preset's shape (40 events x 60 users): counts only, no clock.
        space, _q = _pair_space(7, n_events=40, n_partners=60, dim=16)
        oracle = BruteForceIndex(space)
        ivf = IVFIndex(space, seed=7)
        assert ivf.n_clusters == default_n_clusters(space.n_pairs)
        rng = np.random.default_rng(8)
        recalls = []
        for user in range(16):
            vector = np.abs(rng.normal(size=16))
            q = np.concatenate([vector, vector, [1.0]])
            truth = oracle.query(q, 10, exclude=user)
            got = ivf.query(q, 10, exclude=user)
            assert got.n_clusters_probed == default_nprobe(ivf.n_clusters)
            assert got.fraction_examined < 1.0
            recalls.append(
                np.intersect1d(truth.pair_indices, got.pair_indices).size / 10
            )
        assert np.mean(recalls) >= 0.95

    def test_n_clusters_clamped_to_n_pairs(self):
        space, _q = _pair_space(4, n_events=2, n_partners=2, dim=3)
        ivf = IVFIndex(space, n_clusters=1000)
        assert ivf.n_clusters == space.n_pairs
        assert int(ivf.cluster_sizes().sum()) == space.n_pairs
        # ... and to the training set, which seeds one centroid per cluster.
        space, _q = _pair_space(4, n_events=30, n_partners=40, dim=3)
        ivf = IVFIndex(space, n_clusters=200, train_cap=100)
        assert ivf.n_clusters == 100
        assert int(ivf.cluster_sizes().sum()) == space.n_pairs == 1200

    def test_invalid_nprobe_rejected(self):
        space, q = _pair_space(5, n_events=4, n_partners=4, dim=3)
        ivf = IVFIndex(space, n_clusters=4)
        with pytest.raises(ValueError, match="nprobe"):
            ivf.query(q, 3, nprobe=0)
        with pytest.raises(ValueError, match="nprobe"):
            ivf.query(q, 3, nprobe=5)


class TestEngineIvfRung:
    """Integration: the ``ivf`` rung on the degradation ladder."""

    def _engine(self, **kwargs):
        rng = np.random.default_rng(7)
        users = np.abs(rng.normal(size=(30, 6)))
        events = np.abs(rng.normal(size=(40, 6)))
        return ServingEngine(
            users,
            events,
            np.arange(20, dtype=np.int64),
            backend="bruteforce",
            **kwargs,
        )

    def test_rung_absent_without_opt_in(self):
        engine = self._engine().warm_ladder()
        assert "ivf" not in engine.index.snapshot().rungs()

    def test_rung_present_after_warm_ladder(self):
        engine = self._engine(ivf_clusters=6, ivf_nprobe=2).warm_ladder()
        assert engine.index.snapshot().rungs() == ("full", "ivf", "truncated")

    def test_ivf_rung_serves_and_records_telemetry(self):
        engine = self._engine(ivf_clusters=6, ivf_nprobe=2).warm_ladder()
        # Make the rung above ivf look too slow for the budget.
        engine.ladder.observe("full", 10.0)
        out = engine.recommend_within(3, 5, budget_s=0.5)
        assert out.answered and out.rung == "ivf"
        assert out.stats is not None
        assert out.stats.n_clusters_probed == 2
        assert not out.stats.exact
        assert 0 < out.stats.n_examined < engine.n_candidate_pairs

    def test_refresh_keeps_and_extends_ivf_sibling(self):
        engine = self._engine(ivf_clusters=6).warm_ladder()
        sibling = engine._ivf_index
        assert sibling is not None
        served = sibling.space.n_pairs
        engine.refresh(np.arange(20, 24, dtype=np.int64))
        # Extended into a new index over the same centroids; the one a
        # reader may still hold is untouched.
        grown = engine._ivf_index
        assert grown is not sibling and grown.centroids is sibling.centroids
        assert sibling.space.n_pairs == served
        assert grown.space.n_pairs == engine.n_candidate_pairs
        assert "ivf" in engine.index.snapshot().rungs()

    def test_rebuild_drops_ivf_sibling_until_rewarm(self):
        engine = self._engine(ivf_clusters=6).warm_ladder()
        engine.rebuild()
        assert engine._ivf_index is None
        assert "ivf" not in engine.index.snapshot().rungs()
        engine.warm_ladder()
        assert engine._ivf_index is not None

    def test_ivf_validation(self):
        with pytest.raises(ValueError, match="ivf_clusters"):
            self._engine(ivf_clusters=0)
        with pytest.raises(ValueError, match="ivf_nprobe"):
            self._engine(ivf_nprobe=2)


class TestAppendBuffers:
    """Satellite: refresh appends into growable buffers, no full copy."""

    def _engine(self):
        rng = np.random.default_rng(9)
        users = np.abs(rng.normal(size=(25, 5)))
        events = np.abs(rng.normal(size=(60, 5)))
        return ServingEngine(
            users,
            events,
            np.arange(10, dtype=np.int64),
            backend="bruteforce",
        ).warm()

    def test_second_refresh_reuses_buffer(self):
        engine = self._engine()
        engine.refresh(np.arange(10, 13, dtype=np.int64))
        buf = engine._pair_buffer
        view = engine.space.interaction
        assert view.base is buf
        published = view.copy()
        engine.refresh(np.arange(13, 15, dtype=np.int64))
        # Appended in place, no realloc — and the pairs a reader of the
        # previous space still sees were not touched.
        assert engine._pair_buffer is buf
        assert engine.space.interaction.base is buf
        assert engine.space.n_pairs == 15 * 25
        np.testing.assert_array_equal(view, published)

    def test_refreshed_engine_matches_fresh_build(self):
        engine = self._engine()
        engine.refresh(np.arange(10, 40, dtype=np.int64))
        engine.refresh(np.arange(40, 60, dtype=np.int64))
        fresh = ServingEngine(
            engine.user_vectors,
            engine.event_vectors,
            np.arange(60, dtype=np.int64),
            backend="bruteforce",
        ).warm()
        for user in range(0, 25, 5):
            a = engine.query(user, 8)
            b = fresh.query(user, 8)
            np.testing.assert_array_equal(a.pair_indices, b.pair_indices)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_rebuild_releases_buffers(self):
        engine = self._engine()
        engine.refresh(np.arange(10, 12, dtype=np.int64))
        assert engine._pair_buffer is not None
        engine.rebuild()
        assert engine._pair_buffer is None
