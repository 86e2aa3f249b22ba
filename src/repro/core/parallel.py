"""Lock-free parallel training (Hogwild) for the scalability experiment.

The paper trains GEM with asynchronous stochastic gradient descent over
multiple threads (following Recht et al.'s Hogwild and LINE) and reports
near-linear speedup with stable accuracy (Fig 6).  CPython threads would
serialise the NumPy-light update loop on the GIL, so this module
implements the same algorithm with *processes* over **one on-disk copy**
of the embedding matrices: the parent materialises the initial draw into
a :class:`~repro.core.store.MemmapStore` and forked workers inherit
``np.memmap`` views of the same files (``MAP_SHARED`` pages), so
concurrent updates are visible to every worker and the parent without
per-worker copies or locks — exactly Hogwild's data-race-tolerant regime
(updates are sparse: each step touches 2 + 2M rows).  Pass ``store_dir``
to keep the store after training and :meth:`~repro.core.store.MemmapStore.freeze`
it for the sharded serving path; by default a temporary store is used
and the trained matrices are copied out before cleanup.

Work distribution is **chunked**, not pre-split: workers repeatedly grab
``chunk_steps`` steps off a shared atomic counter until the budget is
exhausted, so a worker slowed by scheduling noise (or an expensive
adaptive-refresh window) does not leave the others idle at the tail.
Each worker owns a private :class:`~repro.utils.profiling.Profiler`; the
parent merges the per-worker reports into one aggregate phase breakdown
(``ParallelTrainingResult.profile``).

On platforms without ``fork`` the driver falls back to a single worker
(correct, just not parallel); the scalability benchmark records the
worker count actually used.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.embeddings import EmbeddingSet
from repro.core.store import MemmapStore
from repro.core.trainer import JointTrainer, TrainerConfig
from repro.ebsn.graphs import GraphBundle
from repro.utils.profiling import Profiler, merge_profiles
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(slots=True)
class ParallelTrainingResult:
    """Outcome of a Hogwild run."""

    embeddings: EmbeddingSet
    n_workers: int
    total_steps: int
    wall_seconds: float
    #: Steps each worker actually executed under chunked allocation
    #: (sums to ``total_steps``; the spread is a load-balance diagnostic).
    steps_by_worker: list[int] = field(default_factory=list)
    #: Merged per-phase breakdown across workers (``None`` unless the run
    #: was started with ``profile=True``).  Shape matches
    #: :meth:`JointTrainer.profile_report`.
    profile: dict[str, Any] | None = None
    #: The shared on-disk store the run trained into — only set when the
    #: caller passed ``store_dir`` (then ``embeddings`` are live memmap
    #: views of it, still in the ``write`` state: ``freeze()`` it before
    #: serving).  ``None`` for temporary-store runs, whose matrices are
    #: copied out before cleanup.
    store: MemmapStore | None = None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods() and os.name == "posix"


def _default_chunk_steps(config: TrainerConfig, n_steps: int, n_workers: int) -> int:
    """Chunk size balancing counter contention against tail idling:
    ~8 grabs per worker, never below one batch."""
    target = -(-n_steps // (n_workers * 8))
    return max(config.batch_size, target)


def train_parallel(
    bundle: GraphBundle,
    config: TrainerConfig,
    n_steps: int,
    n_workers: int,
    *,
    seed: "int | np.random.Generator | None" = None,
    profile: bool = False,
    chunk_steps: int | None = None,
    store_dir: "str | Path | None" = None,
) -> ParallelTrainingResult:
    """Train GEM with ``n_workers`` lock-free Hogwild workers.

    Workers pull chunks of ``chunk_steps`` steps (default: ~8 chunks per
    worker, at least one batch) from a shared counter and run the
    standard :class:`JointTrainer` loop against ``np.memmap`` views of a
    shared :class:`~repro.core.store.MemmapStore` — one on-disk copy of
    the matrices, inherited across ``fork``, so concurrent updates are
    visible to all workers (and to the parent) without per-worker copies
    or locks.

    ``store_dir`` keeps the store at that path after training (the
    result's ``embeddings`` are then live views and ``result.store`` is
    set, left in the ``write`` state so the caller can ``freeze()`` it
    for serving); by default a temporary directory is used and the
    trained matrices are copied out before it is removed.

    With ``profile=True`` each worker instruments its trainer and the
    result carries the merged phase breakdown (at the usual profiling
    cost — leave it off for speedup measurements).
    """
    import time

    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    config.validate()
    if chunk_steps is None:
        chunk_steps = _default_chunk_steps(config, max(n_steps, 1), n_workers)
    elif chunk_steps < 1:
        raise ValueError(f"chunk_steps must be >= 1, got {chunk_steps}")
    rng = ensure_rng(seed if seed is not None else config.seed)

    init = EmbeddingSet.random(
        bundle.entity_counts,
        config.dim,
        scale=config.init_scale,
        nonnegative=config.nonnegative,
        rng=rng,
    )

    if n_workers == 1 or not _fork_available():
        store = (
            MemmapStore.from_embeddings(Path(store_dir), init)
            if store_dir is not None
            else None
        )
        train_set = store.embeddings() if store is not None else init
        profiler = Profiler(enabled=True) if profile else None
        start = time.perf_counter()
        trainer = JointTrainer(
            bundle, config, embeddings=train_set, seed=rng, profiler=profiler
        )
        trainer.train(n_steps)
        wall = time.perf_counter() - start
        if store is not None:
            store.flush()
        return ParallelTrainingResult(
            embeddings=train_set,
            n_workers=1,
            total_steps=n_steps,
            wall_seconds=wall,
            steps_by_worker=[n_steps],
            profile=trainer.profile_report() if profile else None,
            store=store,
        )

    # One on-disk copy of the matrices; forked workers inherit the
    # MAP_SHARED memmap views, so nothing is pickled or duplicated.
    tmp: tempfile.TemporaryDirectory[str] | None = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="hogwild-store-")
        directory = Path(tmp.name) / "store"
    else:
        directory = Path(store_dir)
    try:
        store = MemmapStore.from_embeddings(directory, init)
        shared_set = store.embeddings()

        worker_rngs = spawn_rngs(rng, n_workers)
        ctx = multiprocessing.get_context("fork")
        claimed = ctx.Value("q", 0)  # steps handed out so far (lock inside)
        reports: Any = ctx.SimpleQueue()

        def run_worker(worker_idx: int) -> None:
            # After fork the shared mappings remain valid; each worker owns
            # a private RNG stream, sampler state and profiler.
            profiler = Profiler(enabled=True) if profile else None
            trainer = JointTrainer(
                bundle,
                config,
                embeddings=shared_set,
                seed=worker_rngs[worker_idx],
                profiler=profiler,
            )
            done = 0
            while True:
                with claimed.get_lock():
                    remaining = n_steps - claimed.value
                    if remaining <= 0:
                        break
                    take = min(chunk_steps, remaining)
                    claimed.value += take
                trainer.train(take)
                done += take
            reports.put(
                (worker_idx, done, trainer.profile_report() if profile else None)
            )

        processes = [
            ctx.Process(target=run_worker, args=(w,)) for w in range(n_workers)
        ]
        start = time.perf_counter()
        for p in processes:
            p.start()
        for p in processes:
            p.join()
        wall = time.perf_counter() - start
        for p in processes:
            if p.exitcode != 0:
                raise RuntimeError(
                    f"Hogwild worker exited with code {p.exitcode}"
                )

        steps_by_worker = [0] * n_workers
        worker_profiles: list[dict[str, Any]] = []
        while not reports.empty():
            worker_idx, done, payload = reports.get()
            steps_by_worker[worker_idx] = done
            if payload is not None:
                worker_profiles.append(payload)
        merged: dict[str, Any] | None = None
        if profile:
            merged = merge_profiles(worker_profiles)

        store.flush()
        result = shared_set if store_dir is not None else shared_set.copy()
        return ParallelTrainingResult(
            embeddings=result,
            n_workers=n_workers,
            total_steps=n_steps,
            wall_seconds=wall,
            steps_by_worker=steps_by_worker,
            profile=merged,
            store=store if store_dir is not None else None,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def speedup_curve(
    bundle: GraphBundle,
    config: TrainerConfig,
    n_steps: int,
    worker_counts: list[int],
    *,
    seed: int = 17,
) -> list[ParallelTrainingResult]:
    """Run the same workload at several worker counts (Fig 6a input)."""
    return [
        train_parallel(bundle, config, n_steps, w, seed=seed) for w in worker_counts
    ]
