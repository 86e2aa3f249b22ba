"""PCMF baseline: probabilistic collective matrix factorization.

Qiao et al. (AAAI'14, ref [13]) extend BPR matrix factorization to
multiple matrices by giving each entity one K-dimensional vector shared
across all relations.  The paper's characterisation — the properties this
reimplementation preserves — is that PCMF

* "can only model the binary relations" (edge weights are ignored; every
  observed edge counts the same), and
* "employed uniform distribution to generate negative samples".

Training is standard BPR: sample an observed edge ``(i, j)`` from a
relation, a uniform unobserved right node ``j'``, and ascend
``log σ(v_i·v_j − v_i·v_j')`` with L2 regularisation.  All five EBSN
relations share the entity vectors, so location/time/word evidence reaches
cold-start events — just without weight information or informed negatives,
which is why the paper finds it weakest (Fig 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import (
    STANDARD_RELATIONS,
    EmbeddingRecommender,
    RelationArrays,
    relation_from_bundle,
)
from repro.core.updates import scatter_add_rows
from repro.ebsn.graphs import EntityType, GraphBundle
from repro.utils.rng import ensure_rng

#: (relation name, left entity type, right entity type)
_RELATION_TYPES = {
    "user_event": (EntityType.USER, EntityType.EVENT),
    "user_user": (EntityType.USER, EntityType.USER),
    "event_location": (EntityType.EVENT, EntityType.LOCATION),
    "event_time": (EntityType.EVENT, EntityType.TIME),
    "event_word": (EntityType.EVENT, EntityType.WORD),
}


@dataclass(slots=True)
class PCMFConfig:
    """PCMF hyper-parameters (BPR defaults)."""

    dim: int = 32
    learning_rate: float = 0.05
    regularization: float = 0.01
    n_samples: int = 400_000
    init_scale: float = 0.1
    seed: int = 29

    def validate(self) -> None:
        """Fail fast on invalid hyper-parameters."""
        if self.dim <= 0:
            raise ValueError(f"dim must be > 0, got {self.dim}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")


class PCMF(EmbeddingRecommender):
    """Collective BPR matrix factorization over the five EBSN relations."""

    def __init__(self, config: PCMFConfig | None = None):
        super().__init__()
        self.config = config or PCMFConfig()
        self.config.validate()
        self.factors: dict[EntityType, np.ndarray] = {}

    def fit(self, bundle: GraphBundle) -> "PCMF":
        """Train with BPR over all relations (edges treated as binary)."""
        cfg = self.config
        rng = ensure_rng(cfg.seed)

        self.factors = {
            etype: rng.normal(0.0, cfg.init_scale, size=(count, cfg.dim))
            for etype, count in bundle.entity_counts.items()
        }

        relations: list[tuple[RelationArrays, np.ndarray, np.ndarray]] = []
        edge_counts: list[int] = []
        for name in STANDARD_RELATIONS:
            if name not in bundle or bundle[name].n_edges == 0:
                continue
            rel = relation_from_bundle(bundle, name)
            left_t, right_t = _RELATION_TYPES[name]
            relations.append((rel, self.factors[left_t], self.factors[right_t]))
            edge_counts.append(rel.n_edges)
        if not relations:
            raise ValueError("bundle contains no edges")

        probs = np.asarray(edge_counts, dtype=np.float64)
        probs /= probs.sum()

        lr = cfg.learning_rate
        reg = cfg.regularization
        batch = 512
        remaining = cfg.n_samples
        while remaining > 0:
            b = min(batch, remaining)
            remaining -= b
            r = int(rng.choice(len(relations), p=probs))
            rel, left_m, right_m = relations[r]
            picks = rng.integers(0, rel.n_edges, size=b)  # binary: uniform edges
            i = rel.left[picks]
            j = rel.right[picks]
            j_neg = rng.integers(0, rel.n_right, size=b)  # uniform negatives

            vi = left_m[i]
            vj = right_m[j]
            vk = right_m[j_neg]
            x = np.einsum("bk,bk->b", vi, vj - vk)
            g = 1.0 / (1.0 + np.exp(np.clip(x, -60.0, 60.0)))  # 1 - σ(x)

            d_i = g[:, None] * (vj - vk) - reg * vi
            d_j = g[:, None] * vi - reg * vj
            d_k = -g[:, None] * vi - reg * vk
            scatter_add_rows(left_m, i, lr * d_i)
            scatter_add_rows(right_m, j, lr * d_j)
            scatter_add_rows(right_m, j_neg, lr * d_k)

        self.user_factors = self.factors[EntityType.USER]
        self.event_factors = self.factors[EntityType.EVENT]
        return self
