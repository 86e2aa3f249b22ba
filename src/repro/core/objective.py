"""The bipartite-graph likelihood objective (Section III-A, Eqns 1-4).

The probability of observing edge :math:`e_{ij}` is
:math:`p(e_{ij}=1) = \\sigma(\\vec v_i^\\top \\vec v_j)` (Eqn 1); a
weighted graph's negative log-likelihood is Eqn 2, approximated during
training with M sampled negatives per side (Eqn 4).  These functions are
used for monitoring convergence and by the tests that verify the SGD
update of :mod:`repro.core.updates` actually descends this objective.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.core.embeddings import EmbeddingSet
from repro.ebsn.graphs import BipartiteGraph

#: The logistic function f(x) = 1 / (1 + exp(-x)): the ufunc
#: :func:`scipy.special.expit`.  It never overflows (0 below x ≈ -709.78,
#: where ``exp(-x)`` is ``inf``), keeps the input's float dtype, and takes
#: ``out=``, so a hot loop applies it in place.
sigmoid = expit


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable log σ(x) = -log(1 + exp(-x))."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(x)))


def positive_log_likelihood(
    graph: BipartiteGraph, embeddings: EmbeddingSet
) -> float:
    """Weighted log-likelihood of the observed (positive) edges:
    :math:`\\sum_{(i,j)} w_{ij} \\log\\sigma(\\vec v_i^\\top \\vec v_j)`.

    The negative-edge term of Eqn 2 is intractable exactly (quadratic in
    node counts); see :func:`sampled_objective` for the Monte-Carlo form.
    """
    if graph.n_edges == 0:
        return 0.0
    left = embeddings.of(graph.left_type)[graph.left].astype(np.float64)
    right = embeddings.of(graph.right_type)[graph.right].astype(np.float64)
    scores = np.einsum("ij,ij->i", left, right)
    return float(np.sum(graph.weights * log_sigmoid(scores)))


def sampled_objective(
    graph: BipartiteGraph,
    embeddings: EmbeddingSet,
    rng: np.random.Generator,
    *,
    n_edges: int = 512,
    n_negatives: int = 2,
) -> float:
    """Monte-Carlo estimate of the per-edge objective of Eqn 4.

    Samples ``n_edges`` positive edges proportionally to weight and, for
    each, ``n_negatives`` uniform noise nodes per side; returns the mean
    negative log-likelihood.  Lower is better; the trainer's loss curve
    uses this monitor.
    """
    if graph.n_edges == 0:
        return 0.0
    weights = graph.weights / graph.weights.sum()
    picks = rng.choice(graph.n_edges, size=min(n_edges, graph.n_edges), p=weights)
    left_m = embeddings.of(graph.left_type).astype(np.float64)
    right_m = embeddings.of(graph.right_type).astype(np.float64)
    vi = left_m[graph.left[picks]]
    vj = right_m[graph.right[picks]]
    pos = log_sigmoid(np.einsum("ij,ij->i", vi, vj))

    neg_right = rng.integers(0, graph.n_right, size=(picks.size, n_negatives))
    neg_left = rng.integers(0, graph.n_left, size=(picks.size, n_negatives))
    # log(1 - sigma(x)) = log sigma(-x)
    neg_r = log_sigmoid(-np.einsum("bk,bmk->bm", vi, right_m[neg_right])).sum(axis=1)
    neg_l = log_sigmoid(-np.einsum("bk,bmk->bm", vj, left_m[neg_left])).sum(axis=1)
    return float(-(pos + neg_r + neg_l).mean())
