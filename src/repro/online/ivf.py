"""Clustered inverted-file (IVF) retrieval over the transformed pair space.

Every other retrieval path — brute force, TA, a pruned space,
the truncated rung — is exact-or-prefix over the 2K+1 space, so
per-query cost grows linearly with the candidate count; on dense
synthetic embeddings TA examines ~100% of pairs at 1M+ scale.  This is
the *sublinear* backend: a coarse k-means quantizer partitions the
pair-space points into clusters at build time (the points exist one
reused, cache-sized block at a time — :class:`_BlockAssigner`), each
cluster's pairs are stored
as one contiguous ``(event, partner, interaction)`` block, and a query
scores only the ``nprobe`` blocks whose centroids score highest against
the extended query vector :math:`\\vec q_u = (\\vec u, \\vec u, 1)` —
through the same factored kernel as the full scan.  Cost is governed by
a **recall knob** (``nprobe``) instead of the candidate count.

Three properties the serving stack relies on (property-tested in
``tests/test_ivf.py``):

* **Bruteforce equivalence at full probe** — with ``nprobe ==
  n_clusters`` every block is scanned, and the query short-circuits to
  the full scan over the pairs *in original order*, so the answer is
  bit-identical to :class:`~repro.online.bruteforce.BruteForceIndex`
  (same kernel, same canonical tie-breaking: descending score, then
  ascending pair index).
* **Recall monotone in nprobe** — the probe set at width ``p`` is the
  first ``p`` cells of the total order ``(-centroid_score, cluster_id)``,
  taken *as a set* (the query selects it, it never sorts the cells): every
  cell scoring above the ``p``-th best, then the smallest ids among those
  tied with it.  A prefix of one total order, so the set at ``p+1`` is a
  superset of the set at ``p``; any true top-n member found at ``p`` is
  still in the reported top-n at ``p+1`` (it outranks all but at most
  ``n-1`` points *globally*, hence in any subset).  The order the cells
  are scanned in cannot reach the answer: ties between pairs break on the
  original pair index.
* **``extend() ≡ build()``** — k-means trains on a bounded prefix of
  the points (``train_cap`` rows), so folding appended rows into the
  existing blocks reproduces a fresh build over the concatenated space
  bit-for-bit whenever the training prefix is unchanged (``n_old >=
  train_cap``, the steady state of the streaming fold-in pump).  Cell
  labels are the ``argmin`` of a float32 BLAS product, whose bits depend
  on how the operand is partitioned, so training, build and ``extend``
  share one routine that pins the partition: full, zero-padded blocks on
  an absolute grid of pair indices (see :class:`_BlockAssigner`) — a
  row's label cannot depend on where a call starts or on how many
  threads score the blocks.  Within a cluster, members stay ordered by
  ascending original pair index — appended rows have larger indices
  than every existing row, so they splice onto each block's tail.

**Precision.**  Only the assignment is scored in float32: the centroids,
the stored block arrays, the query-time cell ranking ``centroids @ q``
and every served score stay float64.  Against a float64 assignment a
label can move only where a row's two nearest centroids tie to float32
resolution (property-tested against ``tests/reference_kernels.py``).

**Build cost** is ``(min(n_pairs, train_cap) * n_iters + n_pairs) *
n_clusters * (2K+2)`` float32 multiply-adds — the ``|c|^2 / 2`` term is one
more column of the GEMM, not a pass of its own — plus one ``argmin`` per
scored row, GEMM-bound, spread over the cores the process may use (at
most ``_MAX_WORKERS``); the worker threads live only inside ``__init__`` /
``extend``.  At the spine shape (65 536 training rows, 8 passes, 665 000
pairs, 815 cells, K = 16) that is 33 G.  **Query cost** below full probe is
``n_clusters * (2K+1)`` multiply-adds to score the centroids, one
selection (``np.partition``) over the ``n_clusters`` scores, and the
probed pairs — each probed cell read as one contiguous slice of the four
block arrays and streamed through the factored kernel, 24 B per pair, no
row list and no gather.  At full probe it is the brute-force scan.

**Thread-safety:** matches the other index classes — an index is
immutable after construction and queries may run concurrently; ``extend``
returns a new index sharing the centroids and leaves this one untouched.
"""

from __future__ import annotations

import copy
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.contracts import check_shapes
from repro.core.updates import scatter_add_rows
from repro.online.bruteforce import scan_top_n, top_n
from repro.online.ta import RetrievalResult
from repro.online.transform import INDEX_DTYPE, PairSpace, factored_scores

__all__ = [
    "DEFAULT_KMEANS_ITERS",
    "DEFAULT_NPROBE_FRACTION",
    "DEFAULT_TRAIN_CAP",
    "IVFIndex",
    "default_n_clusters",
    "default_nprobe",
]

#: Rows of the pair space used to train the coarse quantizer.  Bounding
#: the training set keeps each Lloyd pass O(train_cap · n_clusters) — only
#: the one final assignment is O(n_pairs · n_clusters) — and is what makes
#: ``extend`` provably identical to a fresh build once the space has
#: outgrown the cap.
DEFAULT_TRAIN_CAP = 65_536

#: Lloyd iterations for the coarse quantizer.  The quantizer only needs
#: to be a reasonable partition, not converged: recall is controlled by
#: ``nprobe``, and correctness never depends on cluster quality.  Fewer
#: passes are cheaper but move the cells, and with them recall: at 3
#: passes the ``serve_ladder`` recall median over ten seeds fell 0.9715 ->
#: 0.9668 and one seed by 0.011 (EXPERIMENTS.md "Three Lloyd passes").
DEFAULT_KMEANS_ITERS = 8

#: Default ``nprobe`` as a fraction of ``n_clusters`` (rounded up).
#: ``tests/test_ivf.py`` pins the operating point this default must
#: hold: recall@10 >= 0.95 while examining strictly fewer pairs than a
#: full scan.
DEFAULT_NPROBE_FRACTION = 0.25

#: Ceiling on the automatic cluster count (``sqrt(n_pairs)`` rule).
_MAX_AUTO_CLUSTERS = 4096

#: Float32 entries of one assignment block's ``(rows, n_clusters)`` score
#: scratch: 4 MiB, resident in the last-level cache and reused by every
#: block.  Measured, not a parameter (EXPERIMENTS.md "IVF build without
#: the page faults", "IVF cells scored in float32"): at 815 clusters the
#: float32 build is flat from 256 to 4 096 rows when BLAS runs each product
#: on one thread; when BLAS threads each product itself, bigger blocks
#: amortise its hand-offs (× 0.83 from 256 to 1 024 rows, × 0.93 more at
#: 2 048), while an ``extend`` recomputes up to one block less a row — so
#: the rows stay capped at 1 024, which 815 clusters reach at this size.
_SCORE_BLOCK_ENTRIES = 1 << 20

#: Assignment blocks per training chunk.  The training prefix is gathered
#: and summed one chunk of ``8 * B`` rows (2 MiB at 815 cells) at a time:
#: a single ``(train_cap, 2K+1)`` matrix and its scatter index are 17 MiB
#: each, and freeing a block that large raises glibc's trim threshold past
#: the ~30 MiB a torn-down engine leaves at the top of the heap, so the
#: process kept them (EXPERIMENTS.md "The bounded full scan").
_TRAIN_CHUNK_BLOCKS = 8

#: Bounds on the rows of one block: enough rows per product to amortise
#: the per-block calls under thousands of clusters, few enough that the
#: point scratch and an ``extend``'s recomputed rows stay small under a
#: handful.
_MIN_BLOCK_ROWS, _MAX_BLOCK_ROWS = 64, 1024

#: Ceiling on the threads one build scores blocks on.  A sharded engine
#: builds its shards side by side, each on its own threads, so this also
#: bounds that nesting at ``n_shards x _MAX_WORKERS``.
_MAX_WORKERS = 4


def default_n_clusters(n_pairs: int) -> int:
    """The automatic cluster count: ``sqrt(n_pairs)``, clamped.

    The classic IVF balance point — about ``sqrt(n)`` points per block,
    so centroid ranking and block scanning cost the same order — capped
    so build-time assignment stays tractable at the 1M-user scale.
    """
    return int(min(max(1, round(math.sqrt(max(n_pairs, 1)))), _MAX_AUTO_CLUSTERS))


def default_nprobe(n_clusters: int) -> int:
    """The default probe width for ``n_clusters`` (see the fraction doc)."""
    return int(min(max(1, math.ceil(DEFAULT_NPROBE_FRACTION * n_clusters)), n_clusters))


def _block_rows(n_clusters: int) -> int:
    """Rows per assignment block — a pure function of ``n_clusters``.

    A build and every later ``extend`` share ``n_clusters``, so they share
    the block grid ``[j * B, (j + 1) * B)`` too.
    """
    return max(
        _MIN_BLOCK_ROWS, min(_SCORE_BLOCK_ENTRIES // n_clusters, _MAX_BLOCK_ROWS)
    )


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: ``rows(lo, hi, out)`` -> points ``[lo:hi]``: gathered into ``out`` (a
#: ``(hi - lo, 2K+1)`` view of the block scratch, as
#: :meth:`PairSpace.dense_rows` does) or a view of the caller's own array.
_Rows = Callable[[int, int, np.ndarray], np.ndarray]


class _BlockAssigner:
    """Nearest-centroid labels (squared L2), one fixed-shape block at a time.

    ``argmin(|c|^2 / 2 - p.c)`` per row — the ``|p|^2`` term is constant
    within a row and dropped; ties go to the lowest cluster id.  Points,
    centroids and scores are float32 here (half the bytes and twice the
    GEMM rate of float64); nothing scored here is stored or served.  The
    norm term rides in the product: each point block carries a last
    column of ones and the operand is ``[-c^T; |c|^2 / 2]``, so the GEMM
    returns the scores itself — the same bits as ``|c|^2 / 2 - p.c`` taken
    in two passes (negation is exact, and the ones column is the last term
    of every row's sum; held to ``tests/reference_kernels.py`` from two
    cells up — one cell's label is 0 whatever its scores).  The
    product is a BLAS GEMM, whose blocking makes a row's bits depend on
    where it sits in the operand, so the operand is pinned: blocks are
    ``[j * B, (j + 1) * B)`` in pair-index space whatever ``start`` is
    (``B`` = :func:`_block_rows`), and the GEMM always multiplies the
    whole ``B``-row scratch, rows past ``stop`` zeroed.  A row's score
    bits are then a function of the row, the centroids and ``row mod B``
    alone — not of ``start``, ``stop`` or the worker count — which is
    what makes ``extend() ≡ build()`` hold by construction.

    Spans of whole blocks are scored side by side on up to
    ``_MAX_WORKERS`` of the cores the process may use (NumPy releases the
    GIL in ``matmul``, the ufuncs and ``argmin``); fewer than two blocks
    per worker run inline.  Every buffer — per worker one ``(B,
    n_clusters)`` score block, a float64 ``(B, 2K+1)`` point block and its
    float32 ``(B, 2K+2)`` twin with the ones column — is allocated here,
    by the calling thread, once, and every block is computed into them
    (``out=``): no pass maps and faults in fresh
    score-sized temporaries, and no worker thread leaves a malloc arena
    of them behind.  Use as a context manager; leaving it joins the
    threads.  ``workers`` overrides the derived count (tests only).
    """

    def __init__(
        self, n_clusters: int, dim: int, workers: int | None = None
    ) -> None:
        self.block_rows = _block_rows(n_clusters)
        if workers is None:
            workers = min(_usable_cores(), _MAX_WORKERS)
        self._scratch = [
            (
                np.empty((self.block_rows, n_clusters), dtype=np.float32),
                np.empty((self.block_rows, dim), dtype=np.float64),
                np.ones((self.block_rows, dim + 1), dtype=np.float32),
            )
            for _ in range(workers)
        ]
        # Threads start on the first ``submit``: an inline run has none.
        self._pool = ThreadPoolExecutor(workers, thread_name_prefix="ivf-assign")

    def __enter__(self) -> "_BlockAssigner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pool.shutdown(wait=True)

    @staticmethod
    def operand(centroids: np.ndarray) -> np.ndarray:
        """``[-c^T; |c|^2 / 2]``, ``(2K+2, n_clusters)`` float32, what every
        block is scored against: ``|c|^2 / 2`` is reduced in float64 and
        rounded once.  Laid out as the transpose of a C-ordered array, as
        ``centroids.T`` is, so BLAS takes the transposed-operand path the
        two-step scorer took."""
        k, dim = centroids.shape
        operand = np.empty((k, dim + 1), dtype=np.float32)
        operand[:, :dim] = -centroids
        operand[:, dim] = 0.5 * np.einsum("kd,kd->k", centroids, centroids)
        return operand.T

    def scores(
        self,
        scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
        rows: _Rows,
        lo: int,
        hi: int,
        operand: np.ndarray,
    ) -> np.ndarray:
        """``|c|^2 / 2 - p.c`` of the block starting at ``lo``, in ``scratch``.

        ``hi - lo`` rows are real (less than ``B`` only in the last block
        of the space); the rest of the block is scored as zero points.
        The rows arrive in float64 (gathered into the scratch's float64
        block or a view of the caller's array) and are rounded into the
        first ``2K+1`` columns of its float32 block, whose last column
        stays all ones; the GEMM always multiplies the block whole.
        """
        scores, gathered, points = scratch
        n, dim = hi - lo, gathered.shape[1]
        points[:n, :dim] = rows(lo, hi, gathered[:n])
        if n < self.block_rows:
            points[n:, :dim] = 0.0
        return np.matmul(points, operand, out=scores)

    def labels(
        self, rows: _Rows, start: int, stop: int, centroids: np.ndarray
    ) -> np.ndarray:
        """Labels of points ``[start:stop]``.

        A ``start`` inside a block (every ``extend``) scores that block
        from its first row — ``rows`` must reach back to it — and drops
        the labels below ``start``.
        """
        labels = np.empty(stop - start, dtype=np.intp)
        operand = self.operand(centroids)
        b = self.block_rows
        first, last = start // b, -(-stop // b)

        def run(
            scratch: tuple[np.ndarray, np.ndarray, np.ndarray], j0: int, j1: int
        ) -> None:
            # replint: allow-loop(cache-sized assignment blocks, O(n / B) numpy passes)
            for lo in range(j0 * b, j1 * b, b):
                hi = min(lo + b, stop)
                scores = self.scores(scratch, rows, lo, hi, operand)
                skip = max(start - lo, 0)
                np.argmin(
                    scores[skip : hi - lo],
                    axis=1,
                    out=labels[lo + skip - start : hi - start],
                )

        spans = max(1, min(len(self._scratch), (last - first) // 2))
        if spans == 1:
            run(self._scratch[0], first, last)
            return labels
        edges = [first + (last - first) * i // spans for i in range(spans + 1)]
        futures = [
            self._pool.submit(run, scratch, j0, j1)
            for scratch, j0, j1 in zip(self._scratch, edges, edges[1:])
        ]
        # replint: allow-loop(one future per worker span, at most _MAX_WORKERS)
        for future in futures:
            future.result()
        return labels


def _train_kmeans(
    train: list[np.ndarray],
    n_clusters: int,
    n_iters: int,
    seed: int,
    assigner: _BlockAssigner,
) -> np.ndarray:
    """Deterministic Lloyd iterations over the training prefix.

    ``train`` is the prefix as consecutive row chunks, each a whole
    number of the assigner's blocks but the last.  Seeded initialisation
    (distinct training rows chosen by a ``default_rng(seed)`` draw), then
    ``n_iters`` assign/update rounds.  A cluster that loses all members
    keeps its previous centroid, so the result is a total function of
    ``(train rows, n_clusters, n_iters, seed)`` — the determinism
    ``extend() ≡ build()`` needs.  The sums go through the flat-view
    ``scatter_add_rows`` chunk after chunk: the same additions in the
    same order as one 2-D ``np.add.at`` over the stacked rows, without
    its general iterator.
    """
    starts = np.cumsum([0] + [chunk.shape[0] for chunk in train])
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(int(starts[-1]), size=n_clusters, replace=False))
    cuts = np.searchsorted(pick, starts)
    centroids = np.concatenate(
        [
            chunk[pick[lo:hi] - start]
            for chunk, start, lo, hi in zip(train, starts, cuts, cuts[1:])
        ]
    ).astype(np.float64)

    def rows(lo: int, hi: int, _out: np.ndarray) -> np.ndarray:
        # A block lies inside one chunk, and is scored as its view: no gather.
        j = int(np.searchsorted(starts, lo, side="right")) - 1
        return train[j][lo - starts[j] : hi - starts[j]]

    # replint: allow-loop(bounded Lloyd iterations, n_iters not candidates)
    for _ in range(n_iters):
        labels = assigner.labels(rows, 0, int(starts[-1]), centroids)
        counts = np.bincount(labels, minlength=n_clusters)
        sums = np.zeros_like(centroids)
        # replint: allow-loop(train_cap / chunk rows chunks, each one vectorised)
        for chunk, start in zip(train, starts):
            scatter_add_rows(sums, labels[start : start + chunk.shape[0]], chunk)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids


class IVFIndex:
    """Coarse-quantized inverted-file index over a pair space.

    Parameters
    ----------
    space:
        The transformed candidate pairs (:class:`PairSpace`).
    n_clusters:
        Coarse-quantizer cells (default :func:`default_n_clusters`,
        clamped to the training set, ``min(n_pairs, train_cap)`` rows).
    nprobe:
        Default clusters scanned per query (default
        :func:`default_nprobe`); per-query override on
        :meth:`query`.
    train_cap, n_iters, seed:
        K-means training knobs — see the module constants.  ``seed``
        fixes initialisation, so two builds over the same prefix are
        bit-identical.
    """

    def __init__(
        self,
        space: PairSpace,
        *,
        n_clusters: int | None = None,
        nprobe: int | None = None,
        train_cap: int = DEFAULT_TRAIN_CAP,
        n_iters: int = DEFAULT_KMEANS_ITERS,
        seed: int = 0,
    ) -> None:
        if n_clusters is not None and n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if train_cap < 1:
            raise ValueError(f"train_cap must be >= 1, got {train_cap}")
        if n_iters < 0:
            raise ValueError(f"n_iters must be >= 0, got {n_iters}")
        self.space = space
        self.train_cap = int(train_cap)
        self.n_iters = int(n_iters)
        self.seed = int(seed)
        n = space.n_pairs
        requested = (
            default_n_clusters(n) if n_clusters is None else int(n_clusters)
        )
        self.n_clusters = max(1, min(requested, n, self.train_cap))
        self.nprobe = (
            default_nprobe(self.n_clusters)
            if nprobe is None
            else int(nprobe)
        )
        if not 1 <= self.nprobe <= self.n_clusters:
            raise ValueError(
                f"nprobe must be in [1, {self.n_clusters}], got {self.nprobe}"
            )
        with _BlockAssigner(self.n_clusters, space.dim) as assigner:
            if n == 0:
                self.centroids = np.zeros((self.n_clusters, space.dim))
            else:
                chunk = _TRAIN_CHUNK_BLOCKS * assigner.block_rows
                stop = min(n, self.train_cap)
                self.centroids = _train_kmeans(
                    [
                        space.dense_rows(lo, min(lo + chunk, stop))
                        for lo in range(0, stop, chunk)
                    ],
                    self.n_clusters,
                    self.n_iters,
                    self.seed,
                    assigner,
                )
            self._labels = assigner.labels(space.dense_rows, 0, n, self.centroids)
        # Regroup the pairs cluster-major.  Stable sort keeps members of
        # one cluster in ascending original pair index — the within-block
        # order both the canonical tie-breaking and the ``extend`` splice
        # rely on.
        order = np.argsort(self._labels, kind="stable").astype(np.int64)
        self._order = order
        events, partners = space.pair_rows(order)
        self._block_events = events.astype(INDEX_DTYPE)
        self._block_partners = partners.astype(INDEX_DTYPE)
        self._block_interaction = space.interaction[order]
        self._offsets = np.searchsorted(
            self._labels[order], np.arange(self.n_clusters + 1)
        ).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """Number of indexed candidate pairs."""
        return self.space.n_pairs

    def cluster_sizes(self) -> np.ndarray:
        """Members per cluster, ``(n_clusters,)`` (diagnostics/metrics)."""
        return np.diff(self._offsets)

    def memory_bytes(self) -> int:
        """Resident bytes: the pair space plus the inverted structure."""
        derived = (
            self.centroids, self._labels, self._order, self._offsets,
            self._block_events, self._block_partners, self._block_interaction,
        )
        return self.space.nbytes + sum(int(array.nbytes) for array in derived)

    # ------------------------------------------------------------------
    def extend(self, space: PairSpace, n_old: int) -> "IVFIndex":
        """A new index: this one plus rows ``[n_old:]`` of ``space``.

        ``space`` must contain this index's current candidates,
        unchanged and in order, as its first ``n_old`` rows (the same
        contract as the TA/bruteforce ``extend``).  New rows are
        assigned to the *frozen* centroids and spliced onto the tail of
        their cluster blocks — O(n + m) array moves plus the O(m ·
        n_clusters) assignment, never a re-cluster of the old rows.
        Identical to a fresh :class:`IVFIndex` over ``space`` whenever
        the k-means training prefix is unchanged (``min(space.n_pairs,
        train_cap) <= n_old`` and the same ``n_clusters`` request
        applies — the streaming steady state).  The new index shares
        this one's centroids; this one is left untouched for the readers
        still holding it.
        """
        m = self.space.n_appended(space, n_old)
        grown = copy.copy(self)
        grown.space = space
        if m == 0:
            return grown
        with _BlockAssigner(self.n_clusters, space.dim) as assigner:
            new_labels = assigner.labels(
                space.dense_rows, n_old, space.n_pairs, self.centroids
            )
        # Stable order of the fresh rows by (cluster, original index):
        # within equal labels argsort keeps input order, and every fresh
        # index exceeds every existing one, so appending each cluster's
        # fresh run after its existing block reproduces a fresh build.
        new_order = np.argsort(new_labels, kind="stable").astype(np.int64)
        sorted_new = new_labels[new_order]
        k = self.n_clusters
        sizes_old = np.diff(self._offsets)
        counts_new = np.bincount(new_labels, minlength=k)
        offsets_new = np.concatenate(
            ([0], np.cumsum(sizes_old + counts_new))
        ).astype(np.int64)
        # Old block rows shift by the fresh rows inserted before their
        # cluster; fresh rows land after their cluster's old members.
        shift_old = np.repeat(offsets_new[:-1] - self._offsets[:-1], sizes_old)
        dest_old = np.arange(n_old, dtype=np.int64) + shift_old
        run_start = np.searchsorted(sorted_new, np.arange(k)).astype(np.int64)
        within = np.arange(m, dtype=np.int64) - run_start[sorted_new]
        dest_new = offsets_new[sorted_new] + sizes_old[sorted_new] + within

        def splice(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            out = np.empty(n_old + m, dtype=old.dtype)
            out[dest_old] = old
            out[dest_new] = new
            return out

        fresh = n_old + new_order
        events, partners = space.pair_rows(fresh)
        grown._order = splice(self._order, fresh)
        grown._block_events = splice(self._block_events, events)
        grown._block_partners = splice(self._block_partners, partners)
        grown._block_interaction = splice(
            self._block_interaction, space.interaction[fresh]
        )
        grown._labels = np.concatenate([self._labels, new_labels])
        grown._offsets = offsets_new
        return grown

    # ------------------------------------------------------------------
    @check_shapes("(M,)")
    def query(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude: int | None = None,
        budget_s: float | None = None,
        nprobe: int | None = None,
    ) -> RetrievalResult:
        """Top-n for an extended query over the ``nprobe`` nearest clusters.

        ``budget_s`` is ignored (one pass over the probed blocks, no
        interruption point): cost is bounded by ``nprobe`` instead.
        The probed cells are the first ``nprobe`` of the total order
        ``(-centroid_score, cluster_id)`` — selected as a set, not
        sorted — so probe sets are nested in ``nprobe`` and recall is
        monotone.  The reported top-n follows the canonical order
        (descending score, then ascending *original* pair index), so
        results merge exactly with every other backend and across
        shards.  ``exact`` is ``True`` only when the probed blocks
        covered the whole space (always at ``nprobe == n_clusters``);
        ``n_clusters_probed``/``n_examined`` feed the telemetry stack.
        """
        space = self.space
        q = space.checked_query(q, n)
        p = self.nprobe if nprobe is None else int(nprobe)
        if not 1 <= p <= self.n_clusters:
            raise ValueError(
                f"nprobe must be in [1, {self.n_clusters}], got {p}"
            )
        if p >= self.n_clusters:
            # Full probe short-circuit (an empty space has one cluster, so
            # it lands here too): the brute-force scan itself, over the
            # pairs in their *original* order — bit-identical to the
            # oracle by construction, not merely by value.
            result = scan_top_n(space, q, n, exclude_partner=exclude)
            result.n_clusters_probed = self.n_clusters
            return result
        # The top-p prefix of the (-centroid_score, cluster_id) order, as a
        # set: every cell ahead of the p-th key, then the smallest ids tied
        # with it.  A NaN key (a non-finite query) ranks last, after +inf —
        # where ``np.partition`` puts it — and NaN cells tie with each
        # other, so the probe is never narrower than p.
        keys = -(self.centroids @ q)
        boundary = np.partition(keys, p - 1)[p - 1]
        if np.isnan(boundary):
            tied = np.isnan(keys)
            ahead = np.flatnonzero(~tied)
        else:
            tied = keys == boundary
            ahead = np.flatnonzero(keys < boundary)
        probe = np.concatenate([ahead, np.flatnonzero(tied)[: p - ahead.size]])
        # A probed cell is one contiguous run of each block array: join the
        # runs column by column (a loop over nprobe cells, not over pairs).
        # The row indices are widened to intp as they are joined, so the
        # kernel's gathers take them as they are.
        offsets = self._offsets
        cells = list(zip(offsets[probe].tolist(), offsets[probe + 1].tolist()))
        ev, pa, c, pair_idx = (
            np.concatenate([column[lo:hi] for lo, hi in cells], dtype=dtype)
            for column, dtype in (
                (self._block_events, np.intp),
                (self._block_partners, np.intp),
                (self._block_interaction, None),
                (self._order, None),
            )
        )
        a, b, w = space.query_terms(q, exclude)
        # Ties break on the *original* pair index, so the order the cells
        # were joined in cannot reach the answer.
        scores = factored_scores(a, b, w, ev, pa, c)
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
