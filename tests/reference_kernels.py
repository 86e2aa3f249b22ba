"""The training-step kernels as they stood before the incremental
rejection and the flat-view scatter, kept as differential references.

``tests/test_training_equivalence.py`` and ``tests/test_updates.py`` hold
:meth:`JointTrainer._reject_batch` and :func:`sgd_step_batch` to these bit
for bit — same noise, same cap counter, same generator state, same
embeddings — which is what "no random draw and no accumulation order
changed" means.  Nothing outside ``tests/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.trainer import REJECT_MAX_ROUNDS


def full_block_reject_batch(self, noise, contexts, keys, counts, stride, sampler):
    """Re-probes all ``B × M`` entries on every resample round."""
    candidates = getattr(sampler, "candidates", None)
    pool = candidates.size if candidates is not None else sampler.n_nodes
    eligible = counts[contexts] < pool
    if not eligible.any():
        return noise
    base = contexts.astype(np.int64, copy=False) * np.int64(stride)

    def _collisions() -> np.ndarray:
        query = base[:, None] + noise
        flat = query.ravel()
        pos = np.searchsorted(keys, flat)
        hit = np.zeros(flat.shape[0], dtype=np.bool_)
        in_range = pos < keys.shape[0]
        hit[in_range] = keys[pos[in_range]] == flat[in_range]
        return hit.reshape(query.shape) & eligible[:, None]

    def _redraw(mask: np.ndarray) -> None:
        draws = self.rng.integers(0, pool, size=int(mask.sum()), dtype=np.int64)
        noise[mask] = candidates[draws] if candidates is not None else draws

    for _ in range(REJECT_MAX_ROUNDS):
        hit = _collisions()
        if not hit.any():
            return noise
        _redraw(hit)
    hit = _collisions()
    n_capped = int(hit.sum())
    if n_capped:
        self.sampling_counters["reject_cap_hits"] += n_capped
        _redraw(hit)
    return noise


def add_at_sgd_step_batch(
    left_matrix,
    right_matrix,
    i,
    j,
    neg_right,
    neg_left,
    learning_rate,
    *,
    nonnegative=True,
):
    """Accumulates through four 2-D ``np.add.at`` calls."""
    B = i.shape[0]
    vi = left_matrix[i].astype(np.float64)
    vj = right_matrix[j].astype(np.float64)
    pos_scores = np.einsum("bk,bk->b", vi, vj)
    g = 1.0 - 1.0 / (1.0 + np.exp(-np.clip(pos_scores, -60.0, 60.0)))

    grad_i = g[:, None] * vj
    grad_j = g[:, None] * vi

    touched = []

    if neg_right is not None and neg_right.size:
        vk = right_matrix[neg_right].astype(np.float64)
        fk = 1.0 / (
            1.0 + np.exp(-np.clip(np.einsum("bk,bmk->bm", vi, vk), -60.0, 60.0))
        )
        grad_i -= np.einsum("bm,bmk->bk", fk, vk)
        noise_delta = -learning_rate * fk[:, :, None] * vi[:, None, :]
        touched.append(
            (right_matrix, neg_right.ravel(), noise_delta.reshape(-1, vi.shape[1]))
        )

    if neg_left is not None and neg_left.size:
        wk = left_matrix[neg_left].astype(np.float64)
        hk = 1.0 / (
            1.0 + np.exp(-np.clip(np.einsum("bk,bmk->bm", vj, wk), -60.0, 60.0))
        )
        grad_j -= np.einsum("bm,bmk->bk", hk, wk)
        noise_delta = -learning_rate * hk[:, :, None] * vj[:, None, :]
        touched.append(
            (left_matrix, neg_left.ravel(), noise_delta.reshape(-1, vj.shape[1]))
        )

    np.add.at(left_matrix, i, (learning_rate * grad_i).astype(left_matrix.dtype))
    np.add.at(right_matrix, j, (learning_rate * grad_j).astype(right_matrix.dtype))
    for matrix, idx, delta in touched:
        np.add.at(matrix, idx, delta.astype(matrix.dtype))

    if nonnegative:
        left_matrix[i] = np.maximum(left_matrix[i], 0.0)
        right_matrix[j] = np.maximum(right_matrix[j], 0.0)
        for matrix, idx, _ in touched:
            matrix[idx] = np.maximum(matrix[idx], 0.0)

    return float((1.0 - g).mean()) if B else 0.0
