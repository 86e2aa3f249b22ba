"""Stochastic gradient updates for one positive edge (Eqn 5).

Given a sampled positive edge :math:`e_{ij}` with noise nodes
:math:`v_k` drawn on the right side (context :math:`v_i`) and on the left
side (context :math:`v_j`, bidirectional sampling, Eqn 4), the update is

.. math::
    \\vec v_i \\mathrel{+}= \\alpha\\big[(1 - f(\\vec v_i^\\top\\vec v_j))\\vec v_j
        - \\textstyle\\sum_k f(\\vec v_i^\\top \\vec v_k)\\vec v_k\\big]

(and symmetrically for :math:`\\vec v_j`); each noise node moves away from
its context node.  After every update the paper projects vectors onto the
non-negative orthant with a rectifier ("we introduce the rectifier
activation function to project the updated node vectors to non-negative
values").

Two implementations are provided: a single-edge reference
(:func:`sgd_step`) used by unit tests, and a vectorised mini-batch
(:func:`sgd_step_batch`) that the trainer uses — mathematically the same
gradients, evaluated at the batch's start-of-batch parameters (Hogwild-style
staleness within a batch, consistent with the paper's asynchronous SGD).
The batch accumulates through :func:`scatter_add_rows`, which the
factorization baselines share.
"""

from __future__ import annotations

import numpy as np


def _sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    ex = np.exp(x)
    return ex / (1.0 + ex)


def sgd_step(
    left_matrix: np.ndarray,
    right_matrix: np.ndarray,
    i: int,
    j: int,
    neg_right: np.ndarray,
    neg_left: np.ndarray,
    learning_rate: float,
    *,
    nonnegative: bool = True,
) -> float:
    """Apply the Eqn 5 update for positive edge (i, j) in place.

    Parameters
    ----------
    left_matrix, right_matrix:
        Embedding matrices of the two sides (may be the same object for the
        user-user graph).
    neg_right:
        Indices of noise nodes sampled from the right side (negatives for
        context ``v_i``).  Empty for unidirectional PTE-style sampling.
    neg_left:
        Indices of noise nodes sampled from the left side (negatives for
        context ``v_j``).  Empty disables that direction.

    Returns
    -------
    float
        ``σ(v_i·v_j)`` before the update — a cheap convergence signal.
    """
    vi = left_matrix[i].astype(np.float64)
    vj = right_matrix[j].astype(np.float64)
    g = 1.0 - _sigmoid_scalar(float(vi @ vj))

    grad_i = g * vj
    grad_j = g * vi

    # Right-side noise: push v_i away from each noise vector, and the noise
    # vectors away from v_i.
    noise_right_updates: list[tuple[int, np.ndarray]] = []
    for k in np.asarray(neg_right, dtype=np.int64):
        vk = right_matrix[k].astype(np.float64)
        fk = _sigmoid_scalar(float(vi @ vk))
        grad_i -= fk * vk
        noise_right_updates.append((int(k), -learning_rate * fk * vi))

    noise_left_updates: list[tuple[int, np.ndarray]] = []
    for k in np.asarray(neg_left, dtype=np.int64):
        vk = left_matrix[k].astype(np.float64)
        fk = _sigmoid_scalar(float(vk @ vj))
        grad_j -= fk * vk
        noise_left_updates.append((int(k), -learning_rate * fk * vj))

    left_matrix[i] += (learning_rate * grad_i).astype(left_matrix.dtype)
    right_matrix[j] += (learning_rate * grad_j).astype(right_matrix.dtype)
    for k, delta in noise_right_updates:
        right_matrix[k] += delta.astype(right_matrix.dtype)
    for k, delta in noise_left_updates:
        left_matrix[k] += delta.astype(left_matrix.dtype)

    if nonnegative:
        np.maximum(left_matrix[i], 0.0, out=left_matrix[i])
        np.maximum(right_matrix[j], 0.0, out=right_matrix[j])
        for k, _ in noise_right_updates:
            np.maximum(right_matrix[k], 0.0, out=right_matrix[k])
        for k, _ in noise_left_updates:
            np.maximum(left_matrix[k], 0.0, out=left_matrix[k])
    return 1.0 - g


def scatter_add_rows(matrix: np.ndarray, rows: np.ndarray, delta: np.ndarray) -> None:
    """``matrix[rows[b]] += delta[b]`` for every ``b``, in place; a row that
    repeats sums its contributions in ``b`` order.

    Element for element the accumulation of the 2-D ``ufunc.at`` form, but
    written through the matrix's flat view: a 1-D operand with values of
    its own dtype takes NumPy's indexed ``ufunc.at`` loop (added in 1.25,
    ≈ 2 ns per element) where a 2-D operand takes the general iterator
    (≈ 9 ns).  ``matrix`` must be C-contiguous — reshaping anything else
    copies, and the update would be lost — which
    :class:`~repro.core.embeddings.EmbeddingSet` guarantees.
    """
    if not matrix.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous matrix")
    width = matrix.shape[1]
    rows = np.asarray(rows, dtype=np.intp)
    flat_index = (rows[:, None] * width + np.arange(width)).ravel()
    np.add.at(
        matrix.reshape(-1),
        flat_index,
        delta.astype(matrix.dtype, copy=False).ravel(),
    )


def _sigmoid_clipped(x: np.ndarray) -> np.ndarray:
    """σ(x) with the argument clamped to ±60, overwriting ``x``."""
    np.maximum(x, -60.0, out=x)
    np.minimum(x, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def sgd_step_batch(
    left_matrix: np.ndarray,
    right_matrix: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    neg_right: np.ndarray | None,
    neg_left: np.ndarray | None,
    learning_rate: float,
    *,
    nonnegative: bool = True,
) -> float:
    """Vectorised Eqn 5 updates for a mini-batch of positive edges.

    ``i``/``j`` have shape ``(B,)``; ``neg_right``/``neg_left`` shape
    ``(B, M)`` or ``None`` to disable a direction.  Gradients are evaluated
    at the pre-batch parameters and accumulated with
    :func:`scatter_add_rows`, so repeated indices within the batch sum
    their contributions — the batch analogue of asynchronous lock-free
    updates.  Both matrices must be C-contiguous.

    Returns the mean positive-edge probability ``σ(v_i·v_j)`` pre-update.
    """
    B = i.shape[0]
    vi = left_matrix.take(i, axis=0).astype(np.float64)  # (B, K)
    vj = right_matrix.take(j, axis=0).astype(np.float64)
    g = 1.0 - _sigmoid_clipped(np.einsum("bk,bk->b", vi, vj))  # (B,)

    grad_i = g[:, None] * vj
    grad_j = g[:, None] * vi

    touched: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    if neg_right is not None and neg_right.size:
        vk = right_matrix.take(neg_right, axis=0).astype(np.float64)  # (B, M, K)
        fk = _sigmoid_clipped(np.einsum("bk,bmk->bm", vi, vk))  # (B, M)
        grad_i -= np.einsum("bm,bmk->bk", fk, vk)
        noise_delta = -learning_rate * fk[:, :, None] * vi[:, None, :]  # (B, M, K)
        touched.append(
            (right_matrix, neg_right.ravel(), noise_delta.reshape(-1, vi.shape[1]))
        )

    if neg_left is not None and neg_left.size:
        wk = left_matrix.take(neg_left, axis=0).astype(np.float64)
        hk = _sigmoid_clipped(np.einsum("bk,bmk->bm", vj, wk))
        grad_j -= np.einsum("bm,bmk->bk", hk, wk)
        noise_delta = -learning_rate * hk[:, :, None] * vj[:, None, :]
        touched.append(
            (left_matrix, neg_left.ravel(), noise_delta.reshape(-1, vj.shape[1]))
        )

    scatter_add_rows(left_matrix, i, learning_rate * grad_i)
    scatter_add_rows(right_matrix, j, learning_rate * grad_j)
    for matrix, idx, delta in touched:
        scatter_add_rows(matrix, idx, delta)

    if nonnegative:
        # Fancy indexing yields copies, so assign back rather than use out=.
        left_matrix[i] = np.maximum(left_matrix[i], 0.0)
        right_matrix[j] = np.maximum(right_matrix[j], 0.0)
        for matrix, idx, _ in touched:
            matrix[idx] = np.maximum(matrix[idx], 0.0)

    return float((1.0 - g).mean()) if B else 0.0
