"""Tests for the Eqn 5 SGD updates (single and batched)."""

import numpy as np
import pytest

from repro.core.objective import sigmoid
from repro.core.updates import scatter_add_rows, sgd_step, sgd_step_batch
from tests.reference_kernels import add_at_sgd_step_batch


def make_matrices(rng, n_left=12, n_right=15, k=6):
    left = np.abs(rng.normal(0.2, 0.1, (n_left, k))).astype(np.float32)
    right = np.abs(rng.normal(0.2, 0.1, (n_right, k))).astype(np.float32)
    return left, right


class TestSingleStep:
    def test_positive_pair_moves_closer(self, rng):
        left, right = make_matrices(rng)
        before = float(left[2] @ right[3])
        sgd_step(left, right, 2, 3, np.array([], dtype=int), np.array([], dtype=int), 0.1)
        after = float(left[2] @ right[3])
        assert after > before

    def test_noise_nodes_move_away_from_context(self, rng):
        left, right = make_matrices(rng)
        before = float(left[2] @ right[7])
        sgd_step(left, right, 2, 3, np.array([7]), np.array([], dtype=int), 0.1)
        after = float(left[2] @ right[7])
        assert after < before

    def test_left_noise_moves_away_from_right_context(self, rng):
        left, right = make_matrices(rng)
        before = float(left[9] @ right[3])
        sgd_step(left, right, 2, 3, np.array([], dtype=int), np.array([9]), 0.1)
        assert float(left[9] @ right[3]) < before

    def test_returns_pre_update_probability(self, rng):
        left, right = make_matrices(rng)
        expected = float(sigmoid(np.array(left[1] @ right[1], dtype=np.float64)))
        prob = sgd_step(
            left, right, 1, 1, np.array([], dtype=int), np.array([], dtype=int), 0.05
        )
        assert prob == pytest.approx(expected, rel=1e-5)

    def test_relu_projection_keeps_nonnegative(self, rng):
        left, right = make_matrices(rng)
        # Huge learning rate forces negative intermediate values.
        sgd_step(left, right, 0, 0, np.array([1, 2]), np.array([1, 2]), 50.0)
        assert left.min() >= 0.0
        assert right.min() >= 0.0

    def test_nonnegative_false_allows_negative_values(self, rng):
        left, right = make_matrices(rng)
        sgd_step(
            left, right, 0, 0, np.array([1, 2]), np.array([1]), 50.0,
            nonnegative=False,
        )
        assert min(left.min(), right.min()) < 0.0

    def test_untouched_rows_unchanged(self, rng):
        left, right = make_matrices(rng)
        left_before = left.copy()
        right_before = right.copy()
        sgd_step(left, right, 2, 3, np.array([7]), np.array([5]), 0.1)
        touched_left = {2, 5}
        touched_right = {3, 7}
        for i in range(left.shape[0]):
            if i not in touched_left:
                np.testing.assert_array_equal(left[i], left_before[i])
        for j in range(right.shape[0]):
            if j not in touched_right:
                np.testing.assert_array_equal(right[j], right_before[j])

    def test_shared_matrix_user_user_case(self, rng):
        # The user-user graph passes the same matrix on both sides.
        left, _ = make_matrices(rng)
        before = float(left[0] @ left[1])
        sgd_step(left, left, 0, 1, np.array([4]), np.array([5]), 0.05)
        assert float(left[0] @ left[1]) > before


class TestBatchStep:
    def test_batch_of_one_matches_single_step(self, rng):
        left1, right1 = make_matrices(rng)
        left2, right2 = left1.copy(), right1.copy()

        prob1 = sgd_step(left1, right1, 2, 3, np.array([7, 8]), np.array([4]), 0.1)
        prob2 = sgd_step_batch(
            left2,
            right2,
            np.array([2]),
            np.array([3]),
            np.array([[7, 8]]),
            np.array([[4]]),
            0.1,
        )
        assert prob1 == pytest.approx(prob2, rel=1e-5)
        np.testing.assert_allclose(left1, left2, rtol=1e-5)
        np.testing.assert_allclose(right1, right2, rtol=1e-5)

    def test_unidirectional_mode_via_none(self, rng):
        left, right = make_matrices(rng)
        before = right[5].copy()
        sgd_step_batch(
            left,
            right,
            np.array([0, 1]),
            np.array([2, 3]),
            None,
            None,
            0.1,
        )
        # Only positive rows move when no negatives are given.
        np.testing.assert_array_equal(right[5], before)

    def test_duplicate_indices_accumulate(self, rng):
        left, right = make_matrices(rng)
        expected_delta = 2 * 0.1 * (1 - sigmoid(np.array(left[0] @ right[1]))) * right[
            1
        ].astype(np.float64)
        before = left[0].astype(np.float64).copy()
        sgd_step_batch(
            left,
            right,
            np.array([0, 0]),
            np.array([1, 1]),
            None,
            None,
            0.1,
        )
        np.testing.assert_allclose(
            left[0].astype(np.float64) - before, expected_delta, atol=1e-6
        )

    def test_relu_applied_to_batch(self, rng):
        left, right = make_matrices(rng)
        sgd_step_batch(
            left,
            right,
            np.array([0, 1]),
            np.array([0, 1]),
            np.array([[2, 3], [4, 5]]),
            np.array([[2, 3], [4, 5]]),
            50.0,
        )
        assert left.min() >= 0.0
        assert right.min() >= 0.0

    def test_mean_probability_of_empty_batch(self, rng):
        left, right = make_matrices(rng)
        prob = sgd_step_batch(
            left,
            right,
            np.empty(0, dtype=int),
            np.empty(0, dtype=int),
            None,
            None,
            0.1,
        )
        assert prob == 0.0


class TestScatterAddRows:
    """The flat-view scatter is ``np.add.at(matrix, rows, delta)`` bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_two_dimensional_add_at_on_hot_rows(self, rng, dtype):
        # 600 updates over 3 hot rows + a long tail: every element of a hot
        # row accumulates ~150 roundings, so any reordering would show.
        rows = np.where(
            rng.random(600) < 0.75, rng.integers(0, 3, 600), rng.integers(0, 40, 600)
        )
        delta = rng.normal(0.0, 1.0, (600, 7))
        expected = rng.normal(0.0, 1.0, (40, 7)).astype(dtype)
        actual = expected.copy()
        np.add.at(expected, rows, delta.astype(dtype))
        scatter_add_rows(actual, rows, delta)
        assert actual.tobytes() == expected.tobytes()

    def test_empty_update_is_a_no_op(self, rng):
        matrix = rng.normal(size=(5, 3)).astype(np.float32)
        before = matrix.copy()
        scatter_add_rows(matrix, np.empty(0, dtype=int), np.empty((0, 3)))
        np.testing.assert_array_equal(matrix, before)

    @pytest.mark.parametrize(
        "target",
        [
            np.zeros((6, 8), dtype=np.float32)[:, ::2],
            np.zeros((4, 6), dtype=np.float32).T,
        ],
        ids=["column-sliced", "transposed"],
    )
    def test_non_contiguous_target_raises_instead_of_dropping_the_update(self, target):
        assert target.shape == (6, 4)
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(target, np.array([0, 1]), np.ones((2, 4)))
        assert not target.any()


class TestBatchStepMatchesAddAtReference:
    """``sgd_step_batch`` against the 2-D ``np.add.at`` kernel it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shared", [False, True], ids=["two-matrices", "left-is-right"]
    )
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_bit_identical(self, rng, dtype, shared, bidirectional):
        n, k, batch, m = 9, 6, 200, 3  # 200 edges over 9 rows: all duplicates
        left = rng.normal(0.2, 0.2, (n, k)).astype(dtype)
        right = left if shared else rng.normal(0.2, 0.2, (n, k)).astype(dtype)
        i, j = rng.integers(0, n, batch), rng.integers(0, n, batch)
        neg_right = rng.integers(0, n, (batch, m))
        neg_left = rng.integers(0, n, (batch, m)) if bidirectional else None

        def run(kernel):
            a = left.copy()
            b = a if shared else right.copy()
            probs = [kernel(a, b, i, j, neg_right, neg_left, 0.3) for _ in range(3)]
            return a.tobytes(), b.tobytes(), probs

        assert run(sgd_step_batch) == run(add_at_sgd_step_batch)


class TestObjectiveDescent:
    def test_repeated_updates_increase_edge_probability(self, rng):
        left, right = make_matrices(rng)
        edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
        def edge_probs():
            return [sigmoid(np.array(float(left[i] @ right[j]))) for i, j in edges]
        before = np.mean(edge_probs())
        for _ in range(200):
            for i, j in edges:
                neg_r = rng.integers(0, right.shape[0], size=2)
                neg_l = rng.integers(0, left.shape[0], size=2)
                sgd_step(left, right, i, j, neg_r, neg_l, 0.05)
        after = np.mean(edge_probs())
        assert after > before
