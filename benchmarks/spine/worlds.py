"""Seeded inputs: serving worlds, request streams and the fold-in world.

Everything here is benchmark-side and untimed.  The program under test
receives only what these functions return (embedding matrices, user ids,
arrival descriptions); the seed never reaches it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: Serving-world shape: the ``beijing-small`` preset's 700 users x 950
#: events at K=16, i.e. 665 000 candidate pairs (the shape
#: ``BENCH_frontier.json`` already uses).
FULL_SHAPE = (700, 950, 16)
#: Smoke shape for the self-tests (~2 s phases).
SMOKE_SHAPE = (60, 80, 8)
N_TOPICS = 12


@dataclass(slots=True)
class ServingWorld:
    """Non-negative float64 embedding matrices handed to the engines."""

    users: np.ndarray
    events: np.ndarray

    @property
    def n_users(self) -> int:
        return int(self.users.shape[0])

    @property
    def n_events(self) -> int:
        return int(self.events.shape[0])

    @property
    def dim(self) -> int:
        return int(self.users.shape[1])

    @property
    def n_pairs(self) -> int:
        return self.n_users * self.n_events


def make_serving_world(seed: int, shape: tuple[int, int, int]) -> ServingWorld:
    """A topic-mixture world: 12 centroids plus per-entity noise.

    Structure matters for ``serve_ladder``: on a structureless world the
    IVF rung reaches recall 1.0 at a handful of probed cells, which would
    make its recall (the workload's ``answer_quality``) insensitive.
    Topics are assigned round-robin (equal sizes, then shuffled) and rows
    are scaled to unit norm, so no seed hands the index a few dominant
    high-norm cells: recall at the configured ``nprobe`` stays inside
    (0.85, 0.99) and the examined fraction moves little between seeds.
    """
    n_users, n_events, dim = shape
    rng = np.random.default_rng([seed, 1])
    centroids = np.abs(rng.normal(0.0, 1.0, size=(N_TOPICS, dim)))

    def draw(n: int) -> np.ndarray:
        topic = rng.permutation(np.arange(n) % N_TOPICS)
        weight = rng.uniform(0.3, 0.9, size=(n, 1))
        rows = weight * centroids[topic] + np.abs(
            rng.normal(0.0, 0.35, size=(n, dim))
        )
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return np.ascontiguousarray(rows, dtype=np.float64)

    return ServingWorld(users=draw(n_users), events=draw(n_events))


def distinct_users(seed: int, n_users: int, count: int) -> np.ndarray:
    """``count`` user ids, distinct within every run of ``n_users`` ids.

    Concatenated seeded permutations: no id repeats until all have been
    asked, so a result cache of any size below ``n_users`` never hits.
    """
    rng = np.random.default_rng([seed, 2])
    cycles = -(-count // n_users)
    ids = np.concatenate([rng.permutation(n_users) for _ in range(cycles)])
    return ids[:count].astype(np.int64)


def zipf_users(seed: int, n_users: int, count: int, s: float) -> np.ndarray:
    """``count`` user ids drawn Zipf(s) over a seeded popularity order."""
    rng = np.random.default_rng([seed, 3])
    rank = np.arange(1, n_users + 1, dtype=np.float64)
    p = rank**-s
    p /= p.sum()
    order = rng.permutation(n_users)
    return order[rng.choice(n_users, size=count, p=p)].astype(np.int64)


def probe_users(seed: int, n_users: int, count: int) -> np.ndarray:
    """Distinct users whose answers are checked against the oracle."""
    rng = np.random.default_rng([seed, 4])
    return rng.permutation(n_users)[: min(count, n_users)].astype(np.int64)


@dataclass(slots=True)
class CapturingFolder:
    """``Folder`` proxy: delegates ``fold_in_many`` and keeps the vectors.

    The oracle for ``stream_sharded`` is computed over exactly the
    vectors the pump folded, captured here rather than read back out of
    the engine.  ``seconds`` feeds ``core.fold_in.fold_ms_per_event``.
    """

    inner: object
    vectors: list[np.ndarray] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def fold_in_many(self, events: list, config: object = None) -> np.ndarray:
        start = time.perf_counter()
        out = self.inner.fold_in_many(events, config)
        self.seconds.append(time.perf_counter() - start)
        self.vectors.append(np.asarray(out, dtype=np.float64).copy())
        return out

    def folded(self, dim: int) -> np.ndarray:
        """All folded vectors so far, in publication order."""
        if not self.vectors:
            return np.zeros((0, dim), dtype=np.float64)
        return np.concatenate(self.vectors, axis=0)


def make_fold_world(seed: int, world: ServingWorld, n_arrivals: int):
    """Attribute side of a model plus an arrival stream, for fold-in.

    Fold-in learns a new event's vector against frozen word / time-slot /
    region embeddings, so a small deterministic attribute world is built
    to match the arrival generator's vocabulary (``t{topic}w{i}`` and
    ``common{i}``).  Returns ``(folder, arrivals)``; fold-in never reads
    the embedding set's user and event rows.
    """
    from repro.core.embeddings import EmbeddingSet
    from repro.core.fold_in import EventFoldIn
    from repro.data.synthetic import (
        ArrivalTraceConfig,
        SyntheticConfig,
        generate_arrival_trace,
    )
    from repro.ebsn.graphs import EntityType
    from repro.ebsn.regions import RegionAssignment
    from repro.ebsn.text import build_vocabulary
    from repro.ebsn.timeslots import N_TIME_SLOTS

    rng = np.random.default_rng([seed, 5])
    syn = SyntheticConfig(n_topics=6, words_per_topic=30, n_common_words=40)
    documents = [
        [f"t{t}w{i}" for i in range(syn.words_per_topic)]
        for t in range(syn.n_topics)
    ] + [[f"common{i}" for i in range(syn.n_common_words)]]
    vocabulary = build_vocabulary(documents)
    n_regions = 12
    centroids = np.column_stack(
        [
            syn.city_lat + rng.normal(0.0, 0.05, size=n_regions),
            syn.city_lon + rng.normal(0.0, 0.05, size=n_regions),
        ]
    )
    regions = RegionAssignment(
        venue_ids=[f"r{i:02d}" for i in range(n_regions)],
        labels=np.arange(n_regions),
        n_regions=n_regions,
        n_clustered_regions=n_regions,
        centroids=centroids,
    )
    embeddings = EmbeddingSet.random(
        {
            EntityType.USER: world.n_users,
            EntityType.EVENT: world.n_events,
            EntityType.WORD: len(vocabulary),
            EntityType.TIME: N_TIME_SLOTS,
            EntityType.LOCATION: n_regions,
        },
        world.dim,
        rng=rng,
    )
    arrivals = generate_arrival_trace(
        syn, ArrivalTraceConfig(n_arrivals=n_arrivals, seed=seed + 2)
    )
    folder = EventFoldIn(embeddings, vocabulary, regions)
    return folder, [a.event for a in arrivals]
