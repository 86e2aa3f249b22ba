"""Shared embedding storage for the five entity types.

All five bipartite graphs embed into one K-dimensional latent space
(Section II); entities of the same type occurring in several graphs (users,
events) share a single matrix here, which is what couples the graphs during
joint training.

Vectors are ``float32`` C-contiguous so the Hogwild trainer can alias them
onto ``multiprocessing.shared_memory`` buffers without copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ebsn.graphs import EntityType
from repro.utils.rng import ensure_rng


@dataclass
class EmbeddingSet:
    """One ``(n_entities, K)`` float32 C-contiguous matrix per
    :class:`EntityType`."""

    matrices: dict[EntityType, np.ndarray]
    dim: int

    def __post_init__(self) -> None:
        for etype, matrix in self.matrices.items():
            if matrix.ndim != 2 or matrix.shape[1] != self.dim:
                raise ValueError(
                    f"{etype}: expected shape (n, {self.dim}), got {matrix.shape}"
                )
            if matrix.dtype != np.float32:
                raise ValueError(f"{etype}: expected float32, got {matrix.dtype}")
            if not matrix.flags.c_contiguous:
                # The trainer scatters through the flat view (updates.py).
                raise ValueError(f"{etype}: expected a C-contiguous matrix")

    @classmethod
    def random(
        cls,
        entity_counts: dict[EntityType, int],
        dim: int,
        *,
        scale: float = 0.01,
        nonnegative: bool = True,
        rng: "int | np.random.Generator | None" = None,
    ) -> "EmbeddingSet":
        """Gaussian N(0, scale) initialisation (the paper's setup).

        With ``nonnegative`` (the paper applies a ReLU projection after
        every update) the initial values are the absolute Gaussian draws so
        no dimension starts dead at exactly zero.
        """
        if dim <= 0:
            raise ValueError(f"dim must be > 0, got {dim}")
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        rng = ensure_rng(rng)
        built: dict[EntityType, np.ndarray] = {}
        for etype, count in entity_counts.items():
            if count < 0:
                raise ValueError(f"{etype}: negative entity count {count}")
            matrix = rng.normal(0.0, scale, size=(count, dim)).astype(np.float32)
            if nonnegative:
                np.abs(matrix, out=matrix)
            built[etype] = np.ascontiguousarray(matrix, dtype=np.float32)
        return cls(matrices=built, dim=dim)

    def of(self, entity_type: EntityType) -> np.ndarray:
        """The embedding matrix for ``entity_type``."""
        return self.matrices[entity_type]

    @property
    def users(self) -> np.ndarray:
        return self.matrices[EntityType.USER]

    @property
    def events(self) -> np.ndarray:
        return self.matrices[EntityType.EVENT]

    def copy(self) -> "EmbeddingSet":
        """Deep copy (used to snapshot checkpoints during convergence runs)."""
        return EmbeddingSet(
            matrices={k: v.copy() for k, v in self.matrices.items()}, dim=self.dim
        )

    def as_named_dict(self) -> dict[str, np.ndarray]:
        """String-keyed view: the matrices by :class:`EntityType` value."""
        return {etype.value: matrix for etype, matrix in self.matrices.items()}
