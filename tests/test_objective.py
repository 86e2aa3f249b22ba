"""Tests for the likelihood objective helpers (Eqns 1-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embeddings import EmbeddingSet
from repro.core.objective import (
    log_sigmoid,
    positive_log_likelihood,
    sampled_objective,
    sigmoid,
)
from repro.ebsn.graphs import BipartiteGraph, EntityType
from tests.reference_kernels import masked_sigmoid


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)
        assert sigmoid(np.array(np.log(3))) == pytest.approx(0.75)

    def test_extreme_values_do_not_overflow(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))

    @given(st.floats(min_value=-500, max_value=500))
    def test_symmetry(self, x):
        a = float(sigmoid(np.array(x)))
        b = float(sigmoid(np.array(-x)))
        assert a + b == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=-500, max_value=500))
    def test_log_sigmoid_consistent(self, x):
        ls = float(log_sigmoid(np.array(x)))
        assert ls <= 0.0
        assert ls == pytest.approx(float(np.log(sigmoid(np.array(x)))), abs=1e-9)

    def test_log_sigmoid_extreme_negative_is_linear(self):
        assert float(log_sigmoid(np.array(-1000.0))) == pytest.approx(-1000.0)

    def test_close_to_the_masked_formula(self):
        """``expit`` against the sign-mask formula it replaced, on
        [-750, 750].  Where ``exp(-x)`` is finite the two differ only in
        their ``exp`` (libm against NumPy's) and in rounding order: each
        is within ~2.3 ulp of the exact value, so they agree to 4 ulp.
        Below x = -709 ``expit`` reaches 0 where the mask returned a
        subnormal: both are under the smallest normal double."""
        x = np.linspace(-709.0, 750.0, 1_000_001)
        with np.errstate(under="ignore"):
            masked = masked_sigmoid(x)
            low = np.linspace(-750.0, -709.0, 10_001)
            masked_low = masked_sigmoid(low)
        np.testing.assert_array_max_ulp(sigmoid(x), masked, maxulp=4)
        tiny = np.finfo(np.float64).smallest_normal
        assert np.abs(sigmoid(low) - masked_low).max() <= tiny

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
        reason="no extended-precision long double to compare against",
    )
    def test_as_accurate_as_the_masked_formula(self):
        x = np.linspace(-709.0, 750.0, 1_000_001)
        exact = 1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))
        ulp = np.spacing(exact.astype(np.float64)).astype(np.longdouble)
        with np.errstate(under="ignore"):
            masked = masked_sigmoid(x)
        for values in (sigmoid(x), masked):
            assert np.max(np.abs(values - exact) / ulp) <= 2.5


def tiny_graph_and_embeddings(rng, weights=None):
    left = np.array([0, 1, 2])
    right = np.array([1, 0, 1])
    if weights is None:
        weights = np.array([1.0, 2.0, 1.0])
    graph = BipartiteGraph(
        name="user_event",
        left_type=EntityType.USER,
        right_type=EntityType.EVENT,
        n_left=3,
        n_right=2,
        left=left,
        right=right,
        weights=weights,
    )
    emb = EmbeddingSet.random(
        {EntityType.USER: 3, EntityType.EVENT: 2}, dim=4, rng=rng
    )
    return graph, emb


class TestPositiveLogLikelihood:
    def test_matches_manual_computation(self, rng):
        graph, emb = tiny_graph_and_embeddings(rng)
        expected = 0.0
        for i, j, w in zip(graph.left, graph.right, graph.weights):
            score = float(
                emb.users[i].astype(np.float64) @ emb.events[j].astype(np.float64)
            )
            expected += w * float(log_sigmoid(np.array(score)))
        assert positive_log_likelihood(graph, emb) == pytest.approx(expected)

    def test_always_nonpositive(self, rng):
        graph, emb = tiny_graph_and_embeddings(rng)
        assert positive_log_likelihood(graph, emb) <= 0.0

    def test_empty_graph_is_zero(self, rng):
        graph, emb = tiny_graph_and_embeddings(rng)
        empty = BipartiteGraph(
            name="user_event",
            left_type=EntityType.USER,
            right_type=EntityType.EVENT,
            n_left=3,
            n_right=2,
            left=np.array([], dtype=np.int64),
            right=np.array([], dtype=np.int64),
            weights=np.array([], dtype=np.float64),
        )
        assert positive_log_likelihood(empty, emb) == 0.0

    def test_increases_when_positive_pairs_align(self, rng):
        graph, emb = tiny_graph_and_embeddings(rng)
        before = positive_log_likelihood(graph, emb)
        # Align every positive pair exactly.
        for i, j in zip(graph.left, graph.right):
            emb.users[i] = np.full(4, 2.0, dtype=np.float32)
            emb.events[j] = np.full(4, 2.0, dtype=np.float32)
        assert positive_log_likelihood(graph, emb) > before


class TestSampledObjective:
    def test_finite_and_positive(self, rng):
        graph, emb = tiny_graph_and_embeddings(rng)
        value = sampled_objective(graph, emb, rng, n_edges=16, n_negatives=2)
        assert np.isfinite(value)
        assert value > 0.0

    def test_fit_model_beats_anti_fit_model(self):
        # One-to-one matching of 10 users to 10 events so uniform noise
        # rarely collides with a positive partner.
        n = 10
        graph = BipartiteGraph(
            name="user_event",
            left_type=EntityType.USER,
            right_type=EntityType.EVENT,
            n_left=n,
            n_right=n,
            left=np.arange(n),
            right=np.arange(n),
            weights=np.ones(n),
        )
        matrices = {
            EntityType.USER: (2.0 * np.eye(n)).astype(np.float32),
            EntityType.EVENT: (2.0 * np.eye(n)).astype(np.float32),
        }
        emb = EmbeddingSet(matrices=matrices, dim=n)
        good = sampled_objective(graph, emb, np.random.default_rng(0), n_edges=128)
        emb.of(EntityType.USER)[:] *= -1.0  # positives now score −4
        bad = sampled_objective(graph, emb, np.random.default_rng(0), n_edges=128)
        assert good < bad
