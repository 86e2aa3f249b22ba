"""Static noise samplers: uniform and degree-based (Section III-A).

Negative-sampling background: for each positive edge the trainer draws M
noise nodes per side from a noise distribution :math:`P_n(v)`.  The
literature's default is :math:`P_n(v) \\propto d_v^{0.75}` (word2vec /
LINE); PCMF uses the uniform distribution.  Both are *static* and *global*
— the paper's critique that motivates the adaptive sampler in
:mod:`repro.core.adaptive`.

All samplers share one interface::

    sampler.sample(rng, size, context_vector=None) -> np.ndarray of node ids

``context_vector`` is ignored by the static samplers and used by the
adaptive one; the trainer passes it unconditionally so samplers are
interchangeable.
"""

from __future__ import annotations

import numpy as np

from repro.core.alias import AliasTable


class NoiseSampler:
    """Interface for noise-node samplers (one instance per graph side)."""

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        context_vector: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``size`` noise node indices."""
        raise NotImplementedError

    def sample_batch(
        self,
        rng: np.random.Generator,
        contexts: np.ndarray | None,
        size: int,
    ) -> np.ndarray:
        """Draw ``(B, size)`` noise nodes for B context vectors.

        Static samplers ignore the contexts; the default implementation
        draws ``B * size`` i.i.d. nodes.
        """
        n_rows = contexts.shape[0] if contexts is not None else 1
        flat = self.sample(rng, n_rows * size)
        return flat.reshape(n_rows, size)

    def notify_step(self, n_steps: int = 1) -> None:
        """Advance internal clocks (adaptive refresh); no-op for static."""

    def maybe_refresh(self) -> None:
        """Recompute any cached ranking state if it is due (no-op for
        static samplers).

        The trainer calls this explicitly before drawing a batch so the
        refresh cost lands in its own profiled phase
        (``adaptive_refresh``) instead of being folded into
        ``negative_sampling``; samplers still self-refresh lazily if a
        caller skips it.
        """


class UniformNoiseSampler(NoiseSampler):
    """Uniform noise over a candidate node set — PCMF's distribution.

    ``candidates`` restricts draws to the nodes actually present on this
    graph side (nodes with no edges in the graph — e.g. future cold-start
    events in the user-event graph — are not valid noise there: under the
    degree-based law they'd have probability zero, and sampling them as
    negatives would systematically crush exactly the vectors the content
    graphs are trying to learn).
    """

    def __init__(self, n_nodes: int, candidates: np.ndarray | None = None) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be > 0, got {n_nodes}")
        self.n_nodes = n_nodes
        if candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
            if candidates.size == 0:
                raise ValueError("candidates must be non-empty when given")
        self.candidates = candidates

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        context_vector: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.candidates is None:
            return rng.integers(0, self.n_nodes, size=size, dtype=np.int64)
        return self.candidates[
            rng.integers(0, self.candidates.size, size=size, dtype=np.int64)
        ]


class DegreeNoiseSampler(NoiseSampler):
    """Degree-based :math:`P_n(v) \\propto d_v^{0.75}` (word2vec / LINE /
    PTE), backed by an alias table for O(1) draws.

    Nodes with zero degree on this graph side have probability zero, per
    the formula — they are never produced as noise.
    """

    def __init__(self, degrees: np.ndarray, power: float = 0.75) -> None:
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.ndim != 1 or degrees.size == 0:
            raise ValueError(f"degrees must be a non-empty vector, got {degrees.shape}")
        if np.any(degrees < 0):
            raise ValueError("degrees must be non-negative")
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        nonzero = np.flatnonzero(degrees > 0)
        if nonzero.size == 0:
            raise ValueError("at least one node must have positive degree")
        self.n_nodes = degrees.size
        self.power = power
        self._candidates = nonzero
        self._table = AliasTable(degrees[nonzero] ** power)

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        context_vector: np.ndarray | None = None,
    ) -> np.ndarray:
        return self._candidates[
            np.asarray(self._table.sample(rng, size=size), dtype=np.int64)
        ]


def sample_truncated_geometric(
    rng: np.random.Generator, lam: float, n: int, size: int
) -> np.ndarray:
    """Sample ranks from the truncated Geometric law of Eqn 6:
    :math:`p(s) \\propto \\exp(-s/\\lambda)` for ranks ``s in {0..n-1}``.

    Inverse-CDF sampling with log1p/expm1 for stability at large λ (where
    the law approaches uniform).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    u = rng.random(size)
    log_q = -1.0 / lam
    one_minus_qn = -np.expm1(n * log_q)  # 1 - q^n
    ranks = np.floor(np.log1p(-u * one_minus_qn) / log_q).astype(np.int64)
    return np.minimum(np.maximum(ranks, 0), n - 1)
