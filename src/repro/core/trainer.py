"""Joint training of the five bipartite graphs (Algorithm 2).

Each step: (1) draw a graph with probability proportional to its edge
count — *not* uniformly, which the paper shows over-exploits small graphs;
(2) draw a positive edge from that graph proportionally to its weight (the
LINE-style edge sampling that keeps gradients well-scaled under diverse
edge weights); (3) draw M noise nodes per side — bidirectionally, per
Eqn 4 — from the configured noise sampler; (4) apply the Eqn 5 SGD update
with ReLU projection.

Two execution paths share the semantics:

* :meth:`JointTrainer.step` — one edge at a time (Algorithm 2 verbatim);
  the reference ``tests/test_training_equivalence.py`` holds the batched
  path to.
* :meth:`JointTrainer.train` — mini-batched and vectorised: graphs are
  drawn per *batch* from a precomputed schedule and ``batch_size`` edges
  are processed with gradients evaluated at the batch-start parameters.
  Expected sampling proportions are identical (verified by the chi-square
  tests in ``tests/test_training_equivalence.py``); the staleness inside
  a batch mirrors the asynchronous (Hogwild) updates the paper uses
  anyway.

The batched path is built for throughput (DESIGN.md §9):

* the **graph schedule** for a whole ``train()`` call is drawn up front
  in one vectorised alias draw and consecutive batches are grouped by
  graph inside fixed windows — identical per-batch marginal
  probabilities, fewer alias-table touches and better cache locality;
* **edge draws** go through :meth:`AliasTable.sample_into` into a
  preallocated reusable buffer;
* **noise rejection** replaces per-row Python set probes with a
  ``searchsorted`` membership test over precomputed composite edge keys
  — the whole negative block once, then only the entries each resample
  round redrew — bounded by :data:`REJECT_MAX_ROUNDS` rounds plus a
  final uniform fallback draw (counted in ``sampling_counters``) so
  dense graphs cannot stall a step;
* **SGD accumulation** scatters each batch's row updates through the
  matrices' flat views (:func:`repro.core.updates.scatter_add_rows`);
* every phase is instrumented through
  :class:`repro.utils.profiling.Profiler` (near-zero cost when disabled,
  the default) under the names in :data:`TRAINER_PHASES`.

**Observation is passive**: ``callback``/``log_every`` monitoring fires
at the first batch boundary at or after the requested step and never
alters batching or sampling, so ``train()`` results are bit-identical
whatever monitoring cadence is requested (seed-reproducibility test in
``tests/test_training_equivalence.py``).

The trainer also implements the noise-node definition strictly: noise
nodes are "nodes without any link to" the context node, so sampled
negatives that collide with observed neighbours are rejected and resampled
(configurable — large-scale implementations typically skip this; on small
graphs it matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.adaptive import AdaptiveNoiseSampler, ExactAdaptiveSampler
from repro.core.alias import AliasTable
from repro.core.embeddings import EmbeddingSet
from repro.core.samplers import (
    DegreeNoiseSampler,
    NoiseSampler,
    UniformNoiseSampler,
)
from repro.core.updates import sgd_step, sgd_step_batch
from repro.ebsn.graphs import BipartiteGraph, GraphBundle
from repro.utils.profiling import NULL_PROFILER, Profiler
from repro.utils.rng import ensure_rng

SAMPLER_CHOICES = ("adaptive", "adaptive-exact", "degree", "uniform")
GRAPH_SAMPLING_CHOICES = ("proportional", "uniform")

#: Resample rounds the noise-rejection kernel performs before giving up
#: and keeping one final uniform draw (see :meth:`JointTrainer._reject_batch`).
REJECT_MAX_ROUNDS = 8

#: Canonical profiling phase names of one training step/batch, in hot-path
#: order.  The benchmark spine and the Hogwild driver report shares
#: under these names.
TRAINER_PHASES = (
    "graph_draw",
    "edge_draw",
    "adaptive_refresh",
    "negative_sampling",
    "adjacency_reject",
    "sgd",
)


@dataclass(slots=True)
class TrainerConfig:
    """Hyper-parameters of GEM training.

    Defaults follow the paper's tuned values (Section V-A): learning rate
    α = 0.05 and M = 2 negatives per side.  Two defaults are re-tuned for
    the library's smaller synthetic datasets (Table IV/V sweeps cover the
    grids): ``dim`` is 32 rather than the paper's 60, and ``init_scale``
    is 0.1 rather than 0.01 — under the ReLU projection a 0.01 init
    leaves inner products ~1e-3 and gradient flow stalls for millions of
    steps at this scale (the paper's datasets are ~100x larger, giving
    nodes correspondingly more positive pulls).  See ``lam`` below for
    the adaptive sampler's λ.
    """

    dim: int = 32
    learning_rate: float = 0.05
    n_negatives: int = 2
    sampler: str = "adaptive"
    bidirectional: bool = True
    graph_sampling: str = "proportional"
    #: Geometric tail λ of the adaptive sampler (Eqn 6).  The paper tunes
    #: λ = 200 on ~13k-event Douban graphs; on the library's smaller,
    #: denser synthetic datasets hard negatives are more often *false*
    #: negatives, shifting the validated optimum to ~2000 (Table V bench
    #: reproduces the rise-then-plateau shape around it).
    lam: float = 2000.0
    nonnegative: bool = True
    init_scale: float = 0.1
    adaptive_refresh_interval: int | None = None
    batch_size: int = 256
    #: Batches per graph-schedule grouping window: within each window of
    #: this many consecutive batches the precomputed graph assignments
    #: are stably reordered so same-graph batches run back to back
    #: (identical marginal sampling probabilities — only execution order
    #: inside the window changes).  1 disables grouping.
    schedule_window: int = 16
    seed: int = 13
    #: Linear learning-rate decay horizon in steps (LINE's schedule:
    #: α(t) = α·max(1 − t/horizon, floor)).  ``None`` keeps α constant.
    #: The GEM facade sets this to its sample budget automatically.
    decay_horizon: int | None = None
    decay_floor: float = 1e-3

    def validate(self) -> None:
        """Fail fast on invalid hyper-parameters."""
        if self.dim <= 0:
            raise ValueError(f"dim must be > 0, got {self.dim}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.n_negatives < 1:
            raise ValueError(f"n_negatives must be >= 1, got {self.n_negatives}")
        if self.sampler not in SAMPLER_CHOICES:
            raise ValueError(
                f"sampler must be one of {SAMPLER_CHOICES}, got {self.sampler!r}"
            )
        if self.graph_sampling not in GRAPH_SAMPLING_CHOICES:
            raise ValueError(
                f"graph_sampling must be one of {GRAPH_SAMPLING_CHOICES}, "
                f"got {self.graph_sampling!r}"
            )
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")
        if (
            self.adaptive_refresh_interval is not None
            and self.adaptive_refresh_interval < 1
        ):
            raise ValueError(
                f"adaptive_refresh_interval must be >= 1 or None, "
                f"got {self.adaptive_refresh_interval}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.schedule_window < 1:
            raise ValueError(
                f"schedule_window must be >= 1, got {self.schedule_window}"
            )
        if self.decay_horizon is not None and self.decay_horizon <= 0:
            raise ValueError(
                f"decay_horizon must be > 0 or None, got {self.decay_horizon}"
            )
        if not 0.0 <= self.decay_floor <= 1.0:
            raise ValueError(f"decay_floor must be in [0, 1], got {self.decay_floor}")

    @classmethod
    def gem_a(cls, **overrides: Any) -> "TrainerConfig":
        """GEM-A: bidirectional + adaptive adversarial sampler."""
        return cls(**{"sampler": "adaptive", "bidirectional": True, **overrides})

    @classmethod
    def gem_p(cls, **overrides: Any) -> "TrainerConfig":
        """GEM-P: bidirectional + static degree-based sampler."""
        return cls(**{"sampler": "degree", "bidirectional": True, **overrides})

    @classmethod
    def pte(cls, **overrides: Any) -> "TrainerConfig":
        """PTE baseline: unidirectional degree sampling and *uniform* graph
        selection (treats every bipartite graph equally, ignoring edge-count
        skew — the paper's stated difference from GEM's joint training)."""
        return cls(
            **{
                "sampler": "degree",
                "bidirectional": False,
                "graph_sampling": "uniform",
                **overrides,
            }
        )


@dataclass(slots=True)
class _GraphState:
    """Per-graph sampling machinery.

    The ``reject_*`` arrays are the precomputed composite-key adjacency
    from :meth:`BipartiteGraph.neighbour_keys`: ``reject_left_*`` rejects
    right-side noise against left contexts, ``reject_right_*`` the mirror
    image.
    """

    graph: BipartiteGraph
    edge_table: AliasTable
    right_sampler: NoiseSampler
    left_sampler: NoiseSampler | None
    reject_left_keys: np.ndarray
    reject_left_counts: np.ndarray
    reject_right_keys: np.ndarray
    reject_right_counts: np.ndarray


@dataclass(slots=True)
class TrainingLogEntry:
    """One monitoring record emitted during training."""

    step: int
    mean_positive_probability: float


class JointTrainer:
    """Algorithm 2: joint SGD over multiple bipartite graphs.

    Parameters
    ----------
    bundle:
        The five training graphs (or any subset — ablations train on
        fewer).
    config:
        Hyper-parameters; ``config.sampler`` selects GEM-A / GEM-P / PTE
        behaviour together with ``bidirectional`` and ``graph_sampling``.
    embeddings:
        Optional pre-allocated :class:`EmbeddingSet` (the Hogwild driver
        passes shared-memory-backed matrices); a fresh random one is
        created otherwise.
    profiler:
        Optional :class:`~repro.utils.profiling.Profiler` recording the
        per-phase breakdown (:data:`TRAINER_PHASES`); defaults to the
        shared disabled instance, which costs ~one branch per phase.
    """

    def __init__(
        self,
        bundle: GraphBundle,
        config: TrainerConfig | None = None,
        *,
        embeddings: EmbeddingSet | None = None,
        seed: "int | np.random.Generator | None" = None,
        profiler: Profiler | None = None,
    ) -> None:
        self.config = config or TrainerConfig()
        self.config.validate()
        self.bundle = bundle
        self.rng = ensure_rng(self.config.seed if seed is None else seed)
        self.profiler = profiler if profiler is not None else NULL_PROFILER

        if embeddings is None:
            embeddings = EmbeddingSet.random(
                bundle.entity_counts,
                self.config.dim,
                scale=self.config.init_scale,
                nonnegative=self.config.nonnegative,
                rng=self.rng,
            )
        elif embeddings.dim != self.config.dim:
            raise ValueError(
                f"embeddings dim {embeddings.dim} != config dim {self.config.dim}"
            )
        self.embeddings = embeddings

        self._graph_names = [
            name for name in bundle.names if bundle[name].n_edges > 0
        ]
        if not self._graph_names:
            raise ValueError("bundle contains no edges to train on")

        self._states: dict[str, _GraphState] = {
            name: self._build_state(bundle[name]) for name in self._graph_names
        }

        counts = np.array(
            [bundle[name].n_edges for name in self._graph_names], dtype=np.float64
        )
        if self.config.graph_sampling == "uniform":
            counts = np.ones_like(counts)
        self._graph_table = AliasTable(counts)

        self.steps_done = 0
        self.log: list[TrainingLogEntry] = []
        #: Diagnostic: gradient steps spent on each graph.  Under
        #: proportional sampling the shares converge to the edge-count
        #: shares (Algorithm 2); under PTE's uniform sampling to 1/|graphs|.
        self.graph_sample_counts: dict[str, int] = {
            name: 0 for name in self._graph_names
        }
        #: Hot-path health counters, live regardless of profiling:
        #: ``reject_cap_hits`` counts noise entries that exhausted
        #: :data:`REJECT_MAX_ROUNDS` resample rounds and kept the final
        #: uniform fallback draw.
        self.sampling_counters: dict[str, int] = {"reject_cap_hits": 0}
        # Reusable int64 edge-draw buffer for the batched path.
        self._edge_buf = np.empty(self.config.batch_size, dtype=np.int64)

    # ------------------------------------------------------------------
    def current_learning_rate(self) -> float:
        """α at the current step under the linear decay schedule."""
        cfg = self.config
        if cfg.decay_horizon is None:
            return cfg.learning_rate
        fraction = 1.0 - self.steps_done / cfg.decay_horizon
        return cfg.learning_rate * max(fraction, cfg.decay_floor)

    # ------------------------------------------------------------------
    def _make_sampler(self, graph: BipartiteGraph, side: str) -> NoiseSampler:
        """One noise sampler per graph side.

        Noise nodes for graph G_AB are drawn among the nodes *present* on
        that side of G_AB (positive degree): under the degree-based law
        zero-degree nodes have probability zero, and the adaptive sampler
        ranks the same candidate set.  In particular, cold-start events —
        present in the content graphs but without attendance edges — are
        never drawn as user-event negatives, which would otherwise crush
        exactly the vectors the content graphs learn for them.
        """
        cfg = self.config
        etype = graph.right_type if side == "right" else graph.left_type
        matrix = self.embeddings.of(etype)
        degrees = graph.degrees(side)
        candidates = np.flatnonzero(degrees > 0)
        if cfg.sampler == "uniform":
            return UniformNoiseSampler(matrix.shape[0], candidates=candidates)
        if cfg.sampler == "degree":
            return DegreeNoiseSampler(degrees)
        if cfg.sampler == "adaptive":
            return AdaptiveNoiseSampler(
                matrix,
                lam=cfg.lam,
                refresh_interval=cfg.adaptive_refresh_interval,
                candidates=candidates,
            )
        return ExactAdaptiveSampler(matrix, lam=cfg.lam, candidates=candidates)

    def _build_state(self, graph: BipartiteGraph) -> _GraphState:
        cfg = self.config
        reject_left_keys, reject_left_counts = graph.neighbour_keys("left")
        reject_right_keys, reject_right_counts = graph.neighbour_keys("right")
        return _GraphState(
            graph=graph,
            edge_table=AliasTable(graph.weights),
            right_sampler=self._make_sampler(graph, "right"),
            left_sampler=(
                self._make_sampler(graph, "left") if cfg.bidirectional else None
            ),
            reject_left_keys=reject_left_keys,
            reject_left_counts=reject_left_counts,
            reject_right_keys=reject_right_keys,
            reject_right_counts=reject_right_counts,
        )

    # ------------------------------------------------------------------
    # Rejection of observed (positive) neighbours among sampled noise
    # ------------------------------------------------------------------
    def _reject_batch(
        self,
        noise: np.ndarray,
        contexts: np.ndarray,
        keys: np.ndarray,
        counts: np.ndarray,
        stride: int,
        sampler: NoiseSampler,
    ) -> np.ndarray:
        """Replace noise entries that are observed neighbours of their
        context node (they are positives, not noise) by uniform redraws
        from the sampler's candidate set — in place, vectorised.

        Membership is a ``searchsorted`` probe against the sorted
        composite keys ``context * stride + node``.  Only the first round
        probes the whole block: an entry that did not collide was not
        redrawn and cannot collide later, so every further round probes
        just the positions it redrew.  Rows whose context is linked to
        every candidate have no valid noise and are left untouched.  At
        most :data:`REJECT_MAX_ROUNDS` resample rounds run; entries still
        colliding after that take one final uniform draw, accepted as-is
        (a bounded-work approximation — the capped entries are counted in
        ``sampling_counters["reject_cap_hits"]``), so adversarially dense
        graphs cannot stall a training step.
        """
        candidates = getattr(sampler, "candidates", None)
        pool = candidates.size if candidates is not None else sampler.n_nodes
        eligible = counts[contexts] < pool
        if keys.shape[0] == 0 or not eligible.any():
            return noise
        base = contexts.astype(np.int64, copy=False) * np.int64(stride)
        last = keys.shape[0] - 1

        def _observed(query: np.ndarray) -> np.ndarray:
            # A query above every key lands on the last one and differs.
            pos = np.searchsorted(keys, query)
            return keys[np.minimum(pos, last, out=pos)] == query

        def _uniform(n: int) -> np.ndarray:
            draws = self.rng.integers(0, pool, size=n, dtype=np.int64)
            return candidates[draws] if candidates is not None else draws

        hit = _observed((base[:, None] + noise).ravel()).reshape(noise.shape)
        hit &= eligible[:, None]
        # (row, column) pairs in row-major order: redraws consume the
        # generator in block order however few entries a round probes,
        # and pairs write through any ``noise`` view, contiguous or not.
        rows, cols = np.nonzero(hit)
        for _ in range(REJECT_MAX_ROUNDS):
            if rows.size == 0:
                return noise
            fresh = _uniform(rows.size)
            noise[rows, cols] = fresh
            still = _observed(base[rows] + fresh)
            rows, cols = rows[still], cols[still]
        if rows.size:
            self.sampling_counters["reject_cap_hits"] += rows.size
            noise[rows, cols] = _uniform(rows.size)  # accepted without recheck
        return noise

    # ------------------------------------------------------------------
    # Reference single-step path (Algorithm 2 lines 3-6, one iteration)
    # ------------------------------------------------------------------
    def step(self) -> float:
        """One stochastic gradient step; returns σ(v_i·v_j) pre-update."""
        prof = self.profiler
        with prof.phase("graph_draw"):
            name = self._graph_names[int(self._graph_table.sample(self.rng))]
        self.graph_sample_counts[name] += 1
        state = self._states[name]
        graph = state.graph
        with prof.phase("edge_draw"):
            e = int(state.edge_table.sample(self.rng))
        i, j = int(graph.left[e]), int(graph.right[e])

        left_m = self.embeddings.of(graph.left_type)
        right_m = self.embeddings.of(graph.right_type)
        M = self.config.n_negatives

        with prof.phase("adaptive_refresh"):
            state.right_sampler.maybe_refresh()
            if state.left_sampler is not None:
                state.left_sampler.maybe_refresh()

        with prof.phase("negative_sampling"):
            neg_right = state.right_sampler.sample(
                self.rng, M, context_vector=left_m[i]
            )
        with prof.phase("adjacency_reject"):
            neg_right = self._reject_batch(
                neg_right.reshape(1, -1),
                np.array([i], dtype=np.int64),
                state.reject_left_keys,
                state.reject_left_counts,
                graph.n_right,
                state.right_sampler,
            ).ravel()

        if state.left_sampler is not None:
            with prof.phase("negative_sampling"):
                neg_left = state.left_sampler.sample(
                    self.rng, M, context_vector=right_m[j]
                )
            with prof.phase("adjacency_reject"):
                neg_left = self._reject_batch(
                    neg_left.reshape(1, -1),
                    np.array([j], dtype=np.int64),
                    state.reject_right_keys,
                    state.reject_right_counts,
                    graph.n_left,
                    state.left_sampler,
                ).ravel()
        else:
            neg_left = np.empty(0, dtype=np.int64)

        with prof.phase("sgd"):
            prob = sgd_step(
                left_m,
                right_m,
                i,
                j,
                neg_right,
                neg_left,
                self.current_learning_rate(),
                nonnegative=self.config.nonnegative,
            )
        state.right_sampler.notify_step()
        if state.left_sampler is not None:
            state.left_sampler.notify_step()
        self.steps_done += 1
        return prob

    # ------------------------------------------------------------------
    # Vectorised batched path
    # ------------------------------------------------------------------
    def _plan_schedule(self, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Precompute ``(graph_indices, batch_sizes)`` for ``n_steps``.

        One vectorised alias draw assigns a graph to every batch; within
        fixed windows of ``config.schedule_window`` consecutive batches
        the assignments are then stably reordered so same-graph batches
        run back to back.  Each batch's marginal graph distribution is
        untouched (the draw happens before grouping), so expected
        sampling proportions match :meth:`step` exactly; only execution
        order inside a window changes.
        """
        batch = self.config.batch_size
        n_batches = -(-n_steps // batch)
        sizes = np.full(n_batches, batch, dtype=np.int64)
        sizes[-1] = n_steps - batch * (n_batches - 1)
        graphs = np.asarray(
            self._graph_table.sample(self.rng, size=n_batches), dtype=np.int64
        )
        window = self.config.schedule_window
        if window > 1 and n_batches > 2:
            windows = np.arange(n_batches, dtype=np.int64) // window
            order = np.argsort(
                windows * np.int64(len(self._graph_names)) + graphs,
                kind="stable",
            )
            graphs = graphs[order]
            sizes = sizes[order]
        return graphs, sizes

    def _train_batch(self, graph_idx: int, batch_size: int) -> float:
        name = self._graph_names[graph_idx]
        self.graph_sample_counts[name] += batch_size
        state = self._states[name]
        graph = state.graph
        prof = self.profiler

        with prof.phase("edge_draw"):
            edges = state.edge_table.sample_into(
                self.rng, self._edge_buf[:batch_size]
            )
        i = graph.left[edges]
        j = graph.right[edges]
        left_m = self.embeddings.of(graph.left_type)
        right_m = self.embeddings.of(graph.right_type)
        M = self.config.n_negatives

        with prof.phase("adaptive_refresh"):
            state.right_sampler.maybe_refresh()
            if state.left_sampler is not None:
                state.left_sampler.maybe_refresh()

        with prof.phase("negative_sampling"):
            neg_right = state.right_sampler.sample_batch(self.rng, left_m[i], M)
        with prof.phase("adjacency_reject"):
            neg_right = self._reject_batch(
                neg_right,
                i,
                state.reject_left_keys,
                state.reject_left_counts,
                graph.n_right,
                state.right_sampler,
            )

        neg_left = None
        if state.left_sampler is not None:
            with prof.phase("negative_sampling"):
                neg_left = state.left_sampler.sample_batch(
                    self.rng, right_m[j], M
                )
            with prof.phase("adjacency_reject"):
                neg_left = self._reject_batch(
                    neg_left,
                    j,
                    state.reject_right_keys,
                    state.reject_right_counts,
                    graph.n_left,
                    state.left_sampler,
                )

        with prof.phase("sgd"):
            prob = sgd_step_batch(
                left_m,
                right_m,
                i,
                j,
                neg_right,
                neg_left,
                self.current_learning_rate(),
                nonnegative=self.config.nonnegative,
            )
        state.right_sampler.notify_step(batch_size)
        if state.left_sampler is not None:
            state.left_sampler.notify_step(batch_size)
        self.steps_done += batch_size
        return prob

    def train(
        self,
        n_steps: int,
        *,
        callback: Callable[[int, "JointTrainer"], None] | None = None,
        callback_every: int | None = None,
        log_every: int | None = None,
    ) -> EmbeddingSet:
        """Run ``n_steps`` gradient steps (mini-batched).

        ``callback(steps_done, trainer)`` fires at the first batch
        boundary at or after each multiple of ``callback_every`` steps —
        the convergence experiments (Tables II-III) snapshot accuracy
        there.  ``log_every`` likewise records the mean positive-edge
        probability into :attr:`log`.  Monitoring is *passive*: the
        precomputed batch schedule never depends on it, so the trained
        embeddings are bit-identical whatever cadence is requested.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        if n_steps == 0:
            return self.embeddings
        prof = self.profiler
        with prof.phase("graph_draw"):
            graphs, sizes = self._plan_schedule(n_steps)
        next_callback = (
            self.steps_done + callback_every
            if callback is not None and callback_every
            else None
        )
        next_log = self.steps_done + log_every if log_every else None
        for b in range(graphs.shape[0]):
            prob = self._train_batch(int(graphs[b]), int(sizes[b]))
            if next_log is not None and self.steps_done >= next_log:
                self.log.append(
                    TrainingLogEntry(
                        step=self.steps_done, mean_positive_probability=prob
                    )
                )
                next_log = self.steps_done + log_every
            if next_callback is not None and self.steps_done >= next_callback:
                assert callback is not None
                callback(self.steps_done, self)
                next_callback = self.steps_done + callback_every
        return self.embeddings

    # ------------------------------------------------------------------
    def profile_report(self) -> dict[str, Any]:
        """Per-phase breakdown plus sampling health counters.

        Phases and shares come from the attached profiler (all zero when
        profiling is disabled); counters are live either way:
        ``reject_cap_hits`` plus the adaptive samplers' refresh/tail-sort
        counts, and ``steps_done``.  The Hogwild driver merges one of
        these per worker.
        """
        report = self.profiler.as_dict()
        counters = dict(self.profiler.counters)
        counters.update(self.sampling_counters)
        refreshes = 0
        tail_sorts = 0
        for state in self._states.values():
            for sampler in (state.right_sampler, state.left_sampler):
                if sampler is None:
                    continue
                refreshes += int(getattr(sampler, "n_refreshes", 0))
                tail_sorts += int(getattr(sampler, "n_tail_sorts", 0))
        counters["adaptive_refreshes"] = refreshes
        counters["adaptive_tail_sorts"] = tail_sorts
        counters["steps_done"] = self.steps_done
        report["counters"] = counters
        return report
