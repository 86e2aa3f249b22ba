"""Adaptive sampler for adversarial negative edges (Section III-B, Alg. 1).

Static degree-based samplers ignore (1) that similarity estimates change
as training progresses and (2) which *context node* the negative is for.
The paper's adaptive sampler fixes both with a ranking-based noise
distribution (Eqn 6):

.. math::
    P_n(v_k \\mid v_c) \\propto \\exp(-\\hat r(v_k | v_c) / \\lambda)

where :math:`\\hat r(v_k|v_c)` ranks candidates by the *current* model
score :math:`f(\\vec v_c^\\top \\vec v_k)` — high-ranked (hard, adversarial)
negatives are sampled most often.

Two implementations:

* :class:`ExactAdaptiveSampler` — scores every candidate against the
  context, sorts, picks the nodes at the Geometric-sampled ranks.
  O(|V|·K + |V| log |V|) per draw; used for tests/ablations only.
* :class:`AdaptiveNoiseSampler` — the paper's fast approximation: draw a
  rank set S from the Geometric law, draw a *dimension* f with probability
  ∝ ``v_{c,f} · σ_f`` (σ_f = std of candidate values on dimension f), and
  return the candidates at positions S of the per-dimension ranking
  ``r̂^{-1}(·|f)``.  The K per-dimension rankings and σ are recomputed only
  every ``|V|·log|V|`` gradient steps, giving amortised O(K) per draw —
  the same order as the gradient step itself (Algorithm 1's analysis).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.samplers import NoiseSampler, sample_truncated_geometric


def default_refresh_interval(n_nodes: int) -> int:
    """The paper's refresh period: :math:`|V_B| \\cdot \\log |V_B|` steps."""
    if n_nodes <= 1:
        return 1
    return max(1, int(n_nodes * math.log(n_nodes)))


#: Ranks are Geometric(λ): P(rank >= R) = exp(-R/λ).  Keeping the top
#: ``ceil(λ * 24)`` ranks exactly sorted bounds the probability of ever
#: needing a tail rank by e⁻²⁴ ≈ 4e-11 per draw, so the refresh can
#: ``argpartition`` instead of fully sorting when the candidate set is
#: much larger than λ — the tail stays available (sorted lazily, once
#: per refresh window, counted in :attr:`AdaptiveNoiseSampler.n_tail_sorts`)
#: so the sampling distribution is *exactly* unchanged.
_TOP_RANK_FACTOR = 24.0


class AdaptiveNoiseSampler(NoiseSampler):
    """Approximate adaptive sampler over one graph side (Algorithm 1).

    Parameters
    ----------
    matrix:
        The embedding matrix of the side noise nodes are drawn *from*
        (``V_B`` when the context is a left node).  Held by reference —
        training updates are visible at the next refresh.
    lam:
        Geometric tail length λ of Eqn 6; larger spreads probability mass
        over lower ranks (Table V tunes it; 200 is the paper's pick).
    refresh_interval:
        Gradient steps between ranking recomputations.  Defaults to the
        paper's ``|V|·log|V|``.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        lam: float = 200.0,
        refresh_interval: int | None = None,
        candidates: np.ndarray | None = None,
    ) -> None:
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError(f"matrix must be non-empty 2-D, got {matrix.shape}")
        if lam <= 0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        self.matrix = matrix
        self.lam = float(lam)
        if candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
            if candidates.size == 0:
                raise ValueError("candidates must be non-empty when given")
        #: Node ids rankable as noise — the nodes present on this graph
        #: side (zero-degree nodes are not valid noise; see samplers.py).
        self.candidates = candidates
        self.n_nodes = (
            candidates.size if candidates is not None else matrix.shape[0]
        )
        self.dim = matrix.shape[1]
        self.refresh_interval = (
            refresh_interval
            if refresh_interval is not None
            else default_refresh_interval(self.n_nodes)
        )
        if self.refresh_interval <= 0:
            raise ValueError("refresh_interval must be > 0")
        self._steps_since_refresh = self.refresh_interval  # force initial refresh
        #: Exactly-sorted head of the per-dimension rankings: the full
        #: ``(n_nodes, K)`` ranking when ``rank_cutoff >= n_nodes``, else
        #: the top ``rank_cutoff`` rows (global node ids, int64).
        self._rankings: np.ndarray | None = None
        self._sigma: np.ndarray | None = None  # (K,)
        #: Geometric ranks below this are resolved from the sorted head;
        #: at or above it from the lazily sorted tail (see _TOP_RANK_FACTOR).
        self.rank_cutoff = min(
            self.n_nodes, max(1, int(math.ceil(self.lam * _TOP_RANK_FACTOR)))
        )
        self._tail_local: np.ndarray | None = None  # (n - R, K) local ids
        self._tail_vals: np.ndarray | None = None  # values at refresh time
        self._tail_sorted: np.ndarray | None = None  # (n - R, K) global ids
        self.n_refreshes = 0
        #: How often a tail rank actually forced the deferred full sort —
        #: ~0 in practice; reported by ``JointTrainer.profile_report``.
        self.n_tail_sorts = 0

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute the K per-dimension rankings and dimension variances.

        When the candidate set is much larger than λ (``rank_cutoff <
        n_nodes``) only the top ``rank_cutoff`` ranks per dimension are
        sorted — ``argpartition`` + a small sort, O(n·K + R log R · K)
        instead of the full O(n log n · K) column sorts.  The unsorted
        remainder is kept (ids + values) so a tail rank draw can still be
        answered exactly via :meth:`_ensure_tail`.
        """
        view = (
            self.matrix if self.candidates is None else self.matrix[self.candidates]
        )
        cutoff = self.rank_cutoff
        if cutoff >= self.n_nodes:
            order = np.argsort(-view, axis=0, kind="stable").astype(
                np.int64, copy=False
            )
            if self.candidates is not None:
                order = self.candidates[order]
            self._rankings = order
            self._tail_local = None
            self._tail_vals = None
            self._tail_sorted = None
        else:
            part = np.argpartition(-view, cutoff - 1, axis=0).astype(
                np.int64, copy=False
            )
            head = part[:cutoff]
            head_vals = np.take_along_axis(view, head, axis=0)
            order = np.argsort(-head_vals, axis=0, kind="stable")
            head_sorted = np.take_along_axis(head, order, axis=0)
            if self.candidates is not None:
                head_sorted = self.candidates[head_sorted]
            self._rankings = head_sorted
            self._tail_local = part[cutoff:]
            self._tail_vals = np.take_along_axis(view, self._tail_local, axis=0)
            self._tail_sorted = None
        self._sigma = view.std(axis=0).astype(np.float64)
        self._steps_since_refresh = 0
        self.n_refreshes += 1

    def _ensure_tail(self) -> np.ndarray:
        """Sort the below-cutoff remainder on first use since the last
        refresh (values snapshotted at refresh time, so the combined
        head+tail ranking is exactly the full-sort ranking of that
        snapshot up to tie order)."""
        if self._tail_sorted is None:
            assert self._tail_local is not None and self._tail_vals is not None
            order = np.argsort(-self._tail_vals, axis=0, kind="stable")
            tail = np.take_along_axis(self._tail_local, order, axis=0)
            if self.candidates is not None:
                tail = self.candidates[tail]
            self._tail_sorted = tail
            self.n_tail_sorts += 1
        return self._tail_sorted

    def _nodes_at(self, ranks: np.ndarray, dims: np.ndarray) -> np.ndarray:
        """Resolve (rank, dimension) pairs to global node ids.

        ``ranks`` and ``dims`` share a shape; head ranks index the sorted
        head, tail ranks trigger the deferred tail sort.
        """
        assert self._rankings is not None
        if self._tail_local is None:
            return self._rankings[ranks, dims]
        head = ranks < self.rank_cutoff
        if head.all():
            return self._rankings[ranks, dims]
        out = np.empty(ranks.shape, dtype=np.int64)
        out[head] = self._rankings[ranks[head], dims[head]]
        tail_mask = ~head
        tail = self._ensure_tail()
        out[tail_mask] = tail[ranks[tail_mask] - self.rank_cutoff, dims[tail_mask]]
        return out

    def _maybe_refresh(self) -> None:
        if self._steps_since_refresh >= self.refresh_interval:
            self.refresh()

    def maybe_refresh(self) -> None:
        """Public refresh hook so the trainer can profile refresh cost in
        its own phase; equivalent to the lazy in-sample refresh."""
        self._maybe_refresh()

    def notify_step(self, n_steps: int = 1) -> None:
        self._steps_since_refresh += n_steps

    # ------------------------------------------------------------------
    def _dimension_probs(self, context: np.ndarray) -> np.ndarray:
        """p(f | v_c) ∝ v_{c,f} · σ_f, uniform fallback if degenerate."""
        weights = np.maximum(np.asarray(context, dtype=np.float64), 0.0) * self._sigma
        total = weights.sum()
        if not np.isfinite(total) or total <= 0.0:
            return np.full(self.dim, 1.0 / self.dim)
        return weights / total

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        context_vector: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``size`` adversarial noise nodes for one context vector."""
        self._maybe_refresh()
        if context_vector is None:
            raise ValueError("adaptive sampler requires a context vector")
        ranks = sample_truncated_geometric(rng, self.lam, self.n_nodes, size)
        f = int(rng.choice(self.dim, p=self._dimension_probs(context_vector)))
        dims = np.broadcast_to(np.int64(f), ranks.shape)
        return self._nodes_at(ranks, dims)

    def sample_batch(
        self,
        rng: np.random.Generator,
        contexts: np.ndarray | None,
        size: int,
    ) -> np.ndarray:
        """Vectorised :meth:`sample` for ``(B, K)`` context vectors.

        Per row: one dimension drawn from p(f|v_c) (inverse-CDF over the
        row's cumulative weights) and ``size`` Geometric ranks.
        """
        self._maybe_refresh()
        if contexts is None:
            raise ValueError("adaptive sampler requires context vectors")
        B = contexts.shape[0]
        weights = np.maximum(contexts.astype(np.float64), 0.0) * self._sigma[None, :]
        totals = weights.sum(axis=1, keepdims=True)
        degenerate = (totals <= 0.0) | ~np.isfinite(totals)
        weights = np.where(degenerate, 1.0, weights)
        totals = np.where(degenerate, float(self.dim), totals)
        cumulative = np.cumsum(weights, axis=1)
        u = rng.random((B, 1)) * totals
        dims = (cumulative < u).sum(axis=1)
        dims = np.minimum(dims, self.dim - 1)

        ranks = sample_truncated_geometric(rng, self.lam, self.n_nodes, B * size)
        ranks = ranks.reshape(B, size)
        return self._nodes_at(ranks, np.broadcast_to(dims[:, None], ranks.shape))


class ExactAdaptiveSampler(NoiseSampler):
    """Exact rank-based sampler (Section III-B "Exact Implementation").

    Computes the true ranking of all candidates by current model score for
    every draw — O(|V|·K + |V| log |V|) per call, infeasible for training
    at scale but the reference the approximation is validated against.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        lam: float = 200.0,
        candidates: np.ndarray | None = None,
    ) -> None:
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError(f"matrix must be non-empty 2-D, got {matrix.shape}")
        if lam <= 0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        self.matrix = matrix
        self.lam = float(lam)
        if candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
            if candidates.size == 0:
                raise ValueError("candidates must be non-empty when given")
        self.candidates = candidates
        self.n_nodes = candidates.size if candidates is not None else matrix.shape[0]

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        context_vector: np.ndarray | None = None,
    ) -> np.ndarray:
        if context_vector is None:
            raise ValueError("adaptive sampler requires a context vector")
        view = (
            self.matrix if self.candidates is None else self.matrix[self.candidates]
        )
        scores = view.astype(np.float64) @ np.asarray(
            context_vector, dtype=np.float64
        )
        order = np.argsort(-scores, kind="stable")
        if self.candidates is not None:
            order = self.candidates[order]
        ranks = sample_truncated_geometric(rng, self.lam, self.n_nodes, size)
        return order[ranks]

    def sample_batch(
        self,
        rng: np.random.Generator,
        contexts: np.ndarray | None,
        size: int,
    ) -> np.ndarray:
        if contexts is None:
            raise ValueError("adaptive sampler requires context vectors")
        return np.stack(
            [self.sample(rng, size, context_vector=c) for c in contexts]
        )
