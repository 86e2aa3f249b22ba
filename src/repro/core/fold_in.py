"""Folding in events that arrive *after* training.

A deployed EBSN recommender receives new events continuously; retraining
GEM for each arrival is wasteful.  Because a cold-start event's embedding
is determined entirely by its content/location/time edges (it has no
attendance), its vector can be learned *post hoc* against the frozen
word/region/time-slot embeddings by running the same Eqn 5 updates
restricted to the new event's rows — the same objective the joint trainer
optimises, so the folded-in vector converges to what full training would
have produced for that event (the tests verify ranking agreement).

This implements the natural deployment extension of Section IV: the
online index is refreshed per arrival by transforming the new event's
pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_shapes
from repro.core.embeddings import EmbeddingSet
from repro.core.objective import sigmoid
from repro.ebsn.graphs import EntityType
from repro.ebsn.regions import RegionAssignment
from repro.ebsn.text import Vocabulary, tfidf_document, tokenize
from repro.ebsn.timeslots import time_slots
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:
    from repro.serving.engine import ServingEngine

#: Entity types a new event has edges to, indexed by edge type code.
_ATTRIBUTE_TYPES = (EntityType.WORD, EntityType.TIME, EntityType.LOCATION)
#: Events per batched SGD pass; bounds the gathered-rows scratch at
#: ``_BLOCK * n_steps * (1 + n_negatives) * K`` float64s.
_BLOCK = 32


@dataclass(slots=True)
class NewEventDescription:
    """Attributes of an event arriving after training."""

    description: str
    venue_lat: float
    venue_lon: float
    start_time: float


@dataclass(slots=True)
class FoldInConfig:
    """Optimisation knobs for fold-in (matched to trainer defaults)."""

    n_steps: int = 400
    learning_rate: float = 0.05
    n_negatives: int = 2
    nonnegative: bool = True
    init_scale: float = 0.1
    seed: int = 97

    def validate(self) -> None:
        """Fail fast on invalid optimisation knobs."""
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")


class EventFoldIn:
    """Computes embeddings for post-training events against frozen
    attribute embeddings.

    Parameters
    ----------
    embeddings:
        The trained :class:`EmbeddingSet` (only read, never written).
    vocabulary:
        The training vocabulary (new events' words are matched against it;
        out-of-vocabulary words are ignored, as they would be in any
        deployed system).
    regions:
        The training region assignment; the new event is attached to the
        nearest region centroid (DBSCAN regions are fixed at training
        time).
    """

    def __init__(
        self,
        embeddings: EmbeddingSet,
        vocabulary: Vocabulary,
        regions: RegionAssignment,
    ) -> None:
        if regions.n_regions == 0:
            raise ValueError("regions must be non-empty")
        self.embeddings = embeddings
        self.vocabulary = vocabulary
        self.regions = regions

    # ------------------------------------------------------------------
    def _attribute_edges(
        self, event: NewEventDescription
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges the new event would have had, as parallel arrays
        (type code into ``_ATTRIBUTE_TYPES``, node id, weight).  Never
        empty: every event has its nearest-region LOCATION edge."""
        tfidf = tfidf_document(tokenize(event.description), self.vocabulary)
        words = np.array(sorted(tfidf.items()), dtype=np.float64).reshape(-1, 2)
        slots = time_slots(event.start_time)
        centroids = self.regions.centroids
        d2 = (centroids[:, 0] - event.venue_lat) ** 2 + (
            centroids[:, 1] - event.venue_lon
        ) ** 2
        # Codes 0/1/2 = WORD/TIME/LOCATION, the ``_ATTRIBUTE_TYPES`` order.
        types = np.repeat([0, 1, 2], [words.shape[0], len(slots), 1])
        nodes = np.concatenate([words[:, 0], slots, [np.argmin(d2)]])
        weights = np.concatenate([words[:, 1], np.ones(len(slots) + 1)])
        return types, nodes.astype(np.int64), weights

    def _draw(
        self, event: NewEventDescription, config: FoldInConfig
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every random choice one event's optimisation makes, up front.

        From the event's own ``config.seed`` stream, so its vector cannot
        depend on the rest of the batch: the initial vector, each step's
        positive-edge type code ``(n_steps,)``, and the row indices into
        that type's matrix ``(n_steps, 1 + n_negatives)`` — column 0 the
        positive (drawn by edge weight), the rest uniform noise.
        """
        rng = ensure_rng(config.seed)
        types, nodes, weights = self._attribute_edges(event)
        init = np.abs(rng.normal(0.0, config.init_scale, size=self.embeddings.dim))
        picks = rng.choice(nodes.size, size=config.n_steps, p=weights / weights.sum())
        n_rows = np.array([self.embeddings.of(t).shape[0] for t in _ATTRIBUTE_TYPES])
        noise = rng.integers(
            0, n_rows[types[picks], None], size=(picks.size, config.n_negatives)
        )
        return init, types[picks], np.column_stack([nodes[picks], noise])

    def _fold_block(
        self, events: list[NewEventDescription], config: FoldInConfig
    ) -> np.ndarray:
        """One batched SGD pass over at most ``_BLOCK`` events (float64).

        The update is Eqn 5 restricted to the event side: each event
        vector is pulled toward its attribute vectors (sampled
        proportionally to edge weight) and pushed from uniformly sampled
        attribute noise of the same type, with the ReLU projection;
        attribute embeddings stay frozen, and only the rows the pre-drawn
        indices touch are read and widened to float64.
        """
        inits, types, index = zip(*[self._draw(e, config) for e in events])
        vec = np.stack(inits)
        step_types, step_index = np.stack(types, axis=1), np.stack(index, axis=1)
        # (n_steps, B, 1 + n_negatives, K): each step's rows are one slab.
        rows = np.empty((*step_index.shape, vec.shape[1]), dtype=np.float64)
        # replint: allow-loop(three attribute types, one gather each)
        for code, etype in enumerate(_ATTRIBUTE_TYPES):
            hit = step_types == code
            rows[hit] = self.embeddings.of(etype)[step_index[hit]]
        label = np.zeros(1 + config.n_negatives, dtype=np.float64)
        label[0] = 1.0
        # replint: allow-loop(sequential SGD: step s+1 reads step s's vectors)
        for step, block in enumerate(rows):
            lr = config.learning_rate * max(1.0 - step / config.n_steps, 1e-3)
            g = label - sigmoid(np.einsum("bk,bjk->bj", vec, block))
            vec += lr * np.einsum("bj,bjk->bk", g, block)
            if config.nonnegative:
                np.maximum(vec, 0.0, out=vec)
        return vec

    @check_shapes("-,- -> (K,)", dtype="float32")
    def fold_in(
        self,
        event: NewEventDescription,
        config: FoldInConfig | None = None,
    ) -> np.ndarray:
        """Learn the new event's K-dim vector (float32): bit for bit its
        row of any :meth:`fold_in_many` batch that contains it."""
        return self.fold_in_many([event], config)[0]

    @check_shapes("-,- -> (n,K)", dtype="float32")
    def fold_in_many(
        self,
        events: list[NewEventDescription],
        config: FoldInConfig | None = None,
    ) -> np.ndarray:
        """Fold in a batch of arrivals; returns ``(n_events, K)``."""
        config = config or FoldInConfig()
        config.validate()
        blocks = [
            self._fold_block(events[start : start + _BLOCK], config)
            for start in range(0, len(events), _BLOCK)
        ]
        empty = np.zeros((0, self.embeddings.dim), dtype=np.float32)
        return np.concatenate([empty, *blocks], dtype=np.float32, casting="same_kind")

    def fold_into_engine(
        self,
        engine: ServingEngine,
        events: list[NewEventDescription],
        config: FoldInConfig | None = None,
    ) -> np.ndarray:
        """Fold new arrivals straight into a serving engine.

        Learns each event's vector against the frozen attribute
        embeddings, assigns the next free global event ids, and calls
        ``engine.refresh`` so the engine extends its candidate space
        incrementally (no cold rebuild).  ``engine`` is any object with
        the :class:`repro.serving.engine.ServingEngine` refresh contract.
        Returns the assigned event ids.
        """
        vectors = self.fold_in_many(events, config)
        new_ids = np.arange(
            engine.n_events, engine.n_events + vectors.shape[0], dtype=np.int64
        )
        if new_ids.size:
            engine.refresh(new_ids, new_event_vectors=vectors)
        return new_ids
