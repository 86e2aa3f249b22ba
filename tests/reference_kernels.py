"""Kernels as they stood before they were rewritten for speed, kept as
differential references.  Nothing outside ``tests/`` may import this module.

The training step before the incremental rejection and the flat-view
scatter: ``tests/test_training_equivalence.py`` and ``tests/test_updates.py``
hold :meth:`JointTrainer._reject_batch` and :func:`sgd_step_batch` to
:func:`full_block_reject_batch` / :func:`add_at_sgd_step_batch` bit for bit
— same noise, same cap counter, same generator state, same embeddings —
which is what "no random draw and no accumulation order changed" means.

The IVF partial probe before selection and slices: ``tests/test_ivf.py``
holds :meth:`IVFIndex.query` to :func:`row_list_ivf_query` field for field.

The IVF cell assignment before it was scored in float32:
``tests/test_ivf.py`` holds every label :class:`_BlockAssigner` moves
relative to :func:`float64_block_scores` to a float32 near-tie.

The float32 assignment before ``|c|^2 / 2`` joined the GEMM:
``tests/test_ivf.py`` holds :meth:`_BlockAssigner.scores` to
:func:`two_step_block_scores` bit for bit.

The full scan before brute force bounded it by event row:
``tests/test_bounded_scan.py`` holds :meth:`BruteForceIndex.query` and
:meth:`BruteForceIndex.query_appended` to :func:`full_scan_top_n` bit for
bit, order included.

The sharded local -> global key map before an unpruned slice was mapped by
one formula: ``tests/test_sharded.py`` holds
:meth:`ShardedIndex._global_keys` to :func:`two_formula_global_keys` on
initial-only, appended-only and mixed indices, pruned and unpruned.

The TA lists before they were sorted by rank keys: ``tests/test_online.py``
holds :class:`ThresholdAlgorithmIndex`'s ``sorted_lists`` to
:func:`float_sorted_lists`, fresh and after ``extend``.

The pair space before a cross-product pair's rows became its position:
``tests/test_pair_layout.py`` holds :meth:`PairSpace.decode`,
:meth:`PairSpace.dense_rows` and :meth:`PairSpace.scores` to what
:func:`explicit_pair_indices` — the per-pair index columns every space
used to store — decodes, gathers and scores, bit for bit.

The fold-in step loop before it ran in place on ``expit``:
``tests/test_fold_in.py`` holds :meth:`EventFoldIn._fold_block` to
:func:`masked_sigmoid_fold_block` (same draws, atol 1e-12), and
``tests/test_objective.py`` holds ``sigmoid`` to :func:`masked_sigmoid`.
"""

from __future__ import annotations

import numpy as np

from repro.core.fold_in import _ATTRIBUTE_TYPES
from repro.core.trainer import REJECT_MAX_ROUNDS
from repro.online.bruteforce import scan_top_n, top_n
from repro.online.ta import RetrievalResult
from repro.online.transform import INDEX_DTYPE, factored_scores


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


def float64_block_scores(points, centroids, block_rows):
    """``|c|^2 / 2 - p.c`` of every row in float64, one full zero-padded
    ``block_rows`` block of the absolute grid at a time (its ``argmin`` over
    axis 1 is the float64 assigner's label)."""
    n, dim = points.shape
    half_sq = 0.5 * np.einsum("kd,kd->k", centroids, centroids)
    block = np.zeros((block_rows, dim))
    scores = np.empty((block_rows, centroids.shape[0]))
    out = np.empty((n, centroids.shape[0]))
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        block[: hi - lo] = points[lo:hi]
        block[hi - lo :] = 0.0
        np.matmul(block, centroids.T, out=scores)
        np.subtract(half_sq, scores, out=scores)
        out[lo:hi] = scores[: hi - lo]
    return out


def two_step_block_scores(rows, lo, hi, centroids, block_rows):
    """``|c|^2 / 2 - p.c`` of the ``block_rows`` block starting at ``lo`` in
    float32, rows past ``hi`` zero: a GEMM against ``centroids^T``, then
    ``|c|^2 / 2`` subtracted in a second pass."""
    n, dim = hi - lo, centroids.shape[1]
    half_sq = (0.5 * np.einsum("kd,kd->k", centroids, centroids)).astype(np.float32)
    points = np.zeros((block_rows, dim), dtype=np.float32)
    points[:n] = rows(lo, hi, np.empty((n, dim)))
    scores = np.empty((block_rows, centroids.shape[0]), dtype=np.float32)
    np.matmul(points, centroids.astype(np.float32).T, out=scores)
    np.subtract(half_sq, scores, out=scores)
    return scores


def float_sorted_lists(points):
    """Each column's pair indices by descending value, ties in pair order."""
    return np.argsort(-points, axis=0, kind="stable")


def _concat_ranges(starts, sizes):
    """``concatenate([arange(s, s + l) for s, l in zip(starts, sizes)])``."""
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return (
        np.repeat(starts - offsets, sizes) + np.arange(total, dtype=np.int64)
    ).astype(np.int64)


def row_list_ivf_query(index, q, n, *, exclude=None, nprobe=None):
    """Sorts every cell, builds an int64 row list and gathers through it."""
    space = index.space
    q = space.checked_query(q, n)
    p = index.nprobe if nprobe is None else int(nprobe)
    if not 1 <= p <= index.n_clusters:
        raise ValueError(f"nprobe must be in [1, {index.n_clusters}], got {p}")
    if p >= index.n_clusters:
        result = scan_top_n(space, q, n, exclude_partner=exclude)
        result.n_clusters_probed = index.n_clusters
        return result
    cscores = index.centroids @ q
    cluster_rank = np.lexsort((np.arange(index.n_clusters), -cscores))
    probe = cluster_rank[:p]
    rows = _concat_ranges(index._offsets[probe], np.diff(index._offsets)[probe])
    a, b, w = space.query_terms(q, exclude)
    ev, pa, c = index._block_events, index._block_partners, index._block_interaction
    scores = factored_scores(a, b, w, ev[rows], pa[rows], c[rows])
    pair_idx = index._order[rows]
    order = top_n(scores, n, pair_idx)
    total = int(scores.shape[0])
    return RetrievalResult(
        pair_indices=pair_idx[order],
        scores=scores[order],
        n_examined=total,
        n_sorted_accesses=0,
        fraction_examined=total / space.n_pairs,
        exact=total == space.n_pairs,
        n_clusters_probed=p,
    )


def explicit_pair_indices(space):
    """``(event_index, partner_index)`` of every pair of ``space``, as stored
    per pair before the cross region's rows became arithmetic: the listed
    pairs' stored columns, then ``cross_pairs``' broadcast fills of each
    cross row's ``(event row, partner row)``."""
    n_partners, rows = space.candidate_partners.size, space.cross_events
    first_event = space.candidate_events.size - rows
    events = np.empty((rows, n_partners), dtype=INDEX_DTYPE)
    events[:] = np.arange(
        first_event, first_event + rows, dtype=INDEX_DTYPE
    )[:, None]
    partners = np.empty((rows, n_partners), dtype=INDEX_DTYPE)
    partners[:] = np.arange(n_partners, dtype=INDEX_DTYPE)
    return (
        np.concatenate([space.event_index, events.reshape(-1)]),
        np.concatenate([space.partner_index, partners.reshape(-1)]),
    )


def full_scan_top_n(space, q, n, *, exclude_partner=None, start=0):
    """``(pair_indices, scores)`` of the literal full scan: every pair of
    ``space[start:]`` scored by the factored kernel through the explicit
    per-pair indices, then the canonical :func:`top_n` — what
    ``BruteForceIndex.query`` returned before it was bounded."""
    a, b, w = space.query_terms(q, exclude_partner)
    event_index, partner_index = explicit_pair_indices(space)
    scores = factored_scores(
        a,
        b,
        w,
        event_index[start:],
        partner_index[start:],
        space.interaction[start:],
    )
    order = top_n(scores, n)
    return order + start, scores[order]


def two_formula_global_keys(index, snap, shard, local_idx):
    """A slice's local pair indices as global ones: both segments' formulas
    evaluated for every index, then one picked per index by segment."""
    e0 = snap.built_events
    k = index.top_k_events
    local = np.asarray(local_idx, dtype=np.int64)
    off = index._offsets[shard]
    p_s = index._sizes[shard]
    p_all = int(index.candidate_partners.size)
    if k is None:
        base_s = e0 * p_s
        base_g = e0 * p_all
        ev, pa = np.divmod(local, p_s)
        key_initial = ev * p_all + off + pa
    else:
        base_s = p_s * k
        base_g = p_all * k
        pa, j = np.divmod(local, k)
        key_initial = (off + pa) * k + j
    fresh, pa2 = np.divmod(local - base_s, p_s)
    key_appended = base_g + fresh * p_all + off + pa2
    return np.where(local < base_s, key_initial, key_appended).astype(np.int64)


def masked_sigmoid(x):
    """The logistic function by sign mask: ``1 / (1 + exp(-x))`` where
    ``x >= 0``, ``exp(x) / (1 + exp(x))`` elsewhere (float64)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_sigmoid_fold_block(fold, events, config):
    """:meth:`EventFoldIn._fold_block` with a fresh temporary for every
    product and the learning rate recomputed per step, through
    :func:`masked_sigmoid` (float64)."""
    inits, types, index = zip(*[fold._draw(e, config) for e in events])
    vec = np.stack(inits)
    step_types, step_index = np.stack(types, axis=1), np.stack(index, axis=1)
    rows = np.empty((*step_index.shape, vec.shape[1]), dtype=np.float64)
    for code, etype in enumerate(_ATTRIBUTE_TYPES):
        hit = step_types == code
        rows[hit] = fold.embeddings.of(etype)[step_index[hit]]
    label = np.zeros(1 + config.n_negatives, dtype=np.float64)
    label[0] = 1.0
    for step, block in enumerate(rows):
        lr = config.learning_rate * max(1.0 - step / config.n_steps, 1e-3)
        g = label - masked_sigmoid(np.einsum("bk,bjk->bj", vec, block))
        vec += lr * np.einsum("bj,bjk->bk", g, block)
        if config.nonnegative:
            np.maximum(vec, 0.0, out=vec)
    return vec
