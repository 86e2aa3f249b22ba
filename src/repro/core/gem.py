"""The GEM model facade: configuration, fitting, scoring, persistence.

``GEM`` wraps the joint trainer (Algorithm 2) behind the
:class:`~repro.core.interfaces.Recommender` interface used by the
evaluation protocols and the online recommendation engine.  The paper's
variants are constructors:

* :meth:`GEM.gem_a` — bidirectional negatives + adaptive adversarial
  sampler (the full model);
* :meth:`GEM.gem_p` — bidirectional negatives + static degree-based
  sampler (ablation of the adaptive sampler);
* :meth:`GEM.pte`   — the PTE baseline: unidirectional degree-based
  negatives and uniform graph selection.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.contracts import check_shapes
from repro.core.embeddings import EmbeddingSet
from repro.core.interfaces import Recommender
from repro.core.scoring import triple_score_matrix, triple_scores
from repro.core.store import MemmapStore
from repro.core.trainer import JointTrainer, TrainerConfig
from repro.ebsn.graphs import EntityType, GraphBundle


class GEM(Recommender):
    """Graph-based Embedding Model for joint event-partner recommendation.

    Typical use::

        bundle = split.training_bundle()
        model = GEM.gem_a(dim=32, n_samples=300_000, seed=7).fit(bundle)
        scores = model.score_triples(user, partners, events)
    """

    def __init__(
        self, config: TrainerConfig | None = None, *, n_samples: int = 200_000
    ) -> None:
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        self.config = config or TrainerConfig()
        self.config.validate()
        self.n_samples = n_samples
        # Default decay horizon = the sample budget (LINE's schedule).
        if self.config.decay_horizon is None and n_samples > 0:
            self.config = replace(self.config, decay_horizon=n_samples)
        self.trainer: JointTrainer | None = None
        self.embeddings: EmbeddingSet | None = None

    # ------------------------------------------------------------------
    # Variant constructors
    # ------------------------------------------------------------------
    @classmethod
    def gem_a(cls, *, n_samples: int = 200_000, **config_overrides: Any) -> "GEM":
        """The full model: adaptive adversarial negative sampling."""
        return cls(TrainerConfig.gem_a(**config_overrides), n_samples=n_samples)

    @classmethod
    def gem_p(cls, *, n_samples: int = 200_000, **config_overrides: Any) -> "GEM":
        """GEM with the static degree-based noise sampler."""
        return cls(TrainerConfig.gem_p(**config_overrides), n_samples=n_samples)

    @classmethod
    def pte(cls, *, n_samples: int = 200_000, **config_overrides: Any) -> "GEM":
        """The PTE baseline configuration (see TrainerConfig.pte)."""
        return cls(TrainerConfig.pte(**config_overrides), n_samples=n_samples)

    @property
    def variant(self) -> str:
        """Short label of the training configuration (for reports)."""
        cfg = self.config
        if not cfg.bidirectional and cfg.graph_sampling == "uniform":
            return "PTE"
        if cfg.sampler == "adaptive":
            return "GEM-A"
        if cfg.sampler == "degree":
            return "GEM-P"
        return f"GEM({cfg.sampler})"

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        bundle: GraphBundle,
        *,
        n_samples: int | None = None,
        callback: Callable[[int, JointTrainer], None] | None = None,
        callback_every: int | None = None,
    ) -> "GEM":
        """Train on a graph bundle for ``n_samples`` gradient steps.

        ``callback(steps_done, trainer)`` supports the convergence
        experiments (Tables II-III).  Calling :meth:`fit` again continues
        training (the convergence sweep trains incrementally).
        """
        if n_samples is None:
            n_samples = self.n_samples
        if self.trainer is None:
            self.trainer = JointTrainer(bundle, self.config)
            self.embeddings = self.trainer.embeddings
        self.trainer.train(
            n_samples, callback=callback, callback_every=callback_every
        )
        return self

    def _require_fitted(self) -> EmbeddingSet:
        if self.embeddings is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.embeddings

    # ------------------------------------------------------------------
    # Vector access
    # ------------------------------------------------------------------
    @property
    def user_vectors(self) -> np.ndarray:
        """All user embeddings, shape ``(n_users, K)``."""
        return self._require_fitted().of(EntityType.USER)

    @property
    def event_vectors(self) -> np.ndarray:
        """All event embeddings, shape ``(n_events, K)``."""
        return self._require_fitted().of(EntityType.EVENT)

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    @check_shapes("-,(n,)->(n,)")
    def score_user_event(self, user: int, events: np.ndarray) -> np.ndarray:
        """Preference :math:`\\vec u^\\top \\vec x` for each candidate event."""
        emb = self._require_fitted()
        u = emb.of(EntityType.USER)[user].astype(np.float64)
        x = emb.of(EntityType.EVENT)[np.asarray(events, dtype=np.int64)]
        return x.astype(np.float64) @ u

    @check_shapes("-,(n,)->(n,)")
    def score_user_user(self, user: int, others: np.ndarray) -> np.ndarray:
        """Social proximity :math:`\\vec u^\\top \\vec{u'}`."""
        emb = self._require_fitted()
        u = emb.of(EntityType.USER)[user].astype(np.float64)
        o = emb.of(EntityType.USER)[np.asarray(others, dtype=np.int64)]
        return o.astype(np.float64) @ u

    @check_shapes("(n,),(n,)->(n,)")
    def score_user_event_aligned(
        self, users: np.ndarray, events: np.ndarray
    ) -> np.ndarray:
        """Vectorised row-aligned gather (overrides the grouped default)."""
        emb = self._require_fitted()
        uu = emb.of(EntityType.USER)[np.asarray(users, dtype=np.int64)]
        xx = emb.of(EntityType.EVENT)[np.asarray(events, dtype=np.int64)]
        return np.einsum(
            "nk,nk->n", uu.astype(np.float64), xx.astype(np.float64)
        )

    @check_shapes("-,(n,),(n,)->(n,)")
    def score_triples(
        self, user: int, partners: np.ndarray, events: np.ndarray
    ) -> np.ndarray:
        """Eqn 8 triple scores, fully vectorised."""
        emb = self._require_fitted()
        users_m = emb.of(EntityType.USER)
        events_m = emb.of(EntityType.EVENT)
        return triple_scores(
            users_m[user],
            users_m[np.asarray(partners, dtype=np.int64)],
            events_m[np.asarray(events, dtype=np.int64)],
        )

    @check_shapes("-,(p,),(e,)->(p,e)")
    def score_all_pairs(
        self, user: int, partners: np.ndarray, events: np.ndarray
    ) -> np.ndarray:
        """Naive-method score matrix ``(n_partners, n_events)`` (Section IV)."""
        emb = self._require_fitted()
        users_m = emb.of(EntityType.USER)
        events_m = emb.of(EntityType.EVENT)
        return triple_score_matrix(
            users_m[user],
            users_m[np.asarray(partners, dtype=np.int64)],
            events_m[np.asarray(events, dtype=np.int64)],
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: "str | Path") -> Path:
        """Persist the learned embeddings as a frozen
        :class:`~repro.core.store.MemmapStore` in ``directory``; returns it."""
        MemmapStore.from_embeddings(directory, self._require_fitted()).freeze()
        return Path(directory)

    @classmethod
    def from_embeddings(
        cls, embeddings: EmbeddingSet, *, config: TrainerConfig | None = None
    ) -> "GEM":
        """Wrap pre-trained embeddings (e.g. from the Hogwild trainer)."""
        model = cls(config or TrainerConfig(dim=embeddings.dim))
        if model.config.dim != embeddings.dim:
            model.config = replace(model.config, dim=embeddings.dim)
        model.embeddings = embeddings
        return model

    @classmethod
    def load(cls, directory: "str | Path") -> "GEM":
        """Load a model persisted with :meth:`save`, as private in-memory
        copies of the store's matrices."""
        stored = MemmapStore.open(directory).embeddings()
        return cls.from_embeddings(
            EmbeddingSet(
                matrices={
                    etype: np.array(matrix, dtype=np.float32)
                    for etype, matrix in stored.matrices.items()
                },
                dim=stored.dim,
            )
        )
