"""CBPF baseline: collective Bayesian Poisson factorization.

Zhang & Wang (KDD'15, ref [36]) address cold-start event recommendation
by representing each user, location, time slot and content word with a
non-negative K-dimensional vector and modelling *an event as the weighted
average of the vectors of its content, location and time*; the user's
response is Poisson with rate ``u·x̄``.

The defining property the paper's analysis leans on — "this scheme
refrains CBPF from learning a more robust representation from the
auxiliary information" because the event has no free parameters of its
own — is preserved exactly: event vectors here are *derived* through a
fixed row-normalised composition matrix S (``x̄ = S Θ`` where Θ stacks
the attribute vectors), never trained directly.  Inference is stochastic
MAP ascent of the Poisson likelihood with non-negativity projection and
sampled zero entries — a faithful, simpler stand-in for the original's
variational coordinate ascent (the model class, not the inference
flavour, is what the comparison measures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.baselines.base import EmbeddingRecommender
from repro.core.updates import scatter_add_rows
from repro.ebsn.graphs import (
    EVENT_LOCATION,
    EVENT_TIME,
    EVENT_WORD,
    USER_EVENT,
    EntityType,
    GraphBundle,
)
from repro.utils.rng import ensure_rng

_RATE_FLOOR = 1e-6
_COEF_CLIP = 20.0

_ATTRIBUTE_GRAPHS = (
    (EVENT_LOCATION, EntityType.LOCATION),
    (EVENT_TIME, EntityType.TIME),
    (EVENT_WORD, EntityType.WORD),
)


@dataclass(slots=True)
class CBPFConfig:
    """CBPF hyper-parameters."""

    dim: int = 32
    learning_rate: float = 0.02
    n_epochs: int = 30
    zeros_per_positive: int = 3
    init_scale: float = 0.1
    seed: int = 31

    def validate(self) -> None:
        """Fail fast on invalid hyper-parameters."""
        if self.dim <= 0:
            raise ValueError(f"dim must be > 0, got {self.dim}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be >= 0")
        if self.zeros_per_positive < 1:
            raise ValueError("zeros_per_positive must be >= 1")


class CBPF(EmbeddingRecommender):
    """Collective Poisson factorization with averaged auxiliary vectors."""

    def __init__(self, config: CBPFConfig | None = None):
        super().__init__()
        self.config = config or CBPFConfig()
        self.config.validate()
        self.composition: sparse.csr_matrix | None = None  # S: events x attrs
        self.attribute_factors: np.ndarray | None = None  # Θ: attrs x K

    # ------------------------------------------------------------------
    def _build_composition(self, bundle: GraphBundle) -> sparse.csr_matrix:
        """S (n_events × n_attributes), rows normalised to sum to one, so
        the derived event vector is the weighted average ``x̄ = S Θ``."""
        n_events = bundle.entity_counts[EntityType.EVENT]
        offsets: dict[EntityType, int] = {}
        total_attrs = 0
        for _name, etype in _ATTRIBUTE_GRAPHS:
            offsets[etype] = total_attrs
            total_attrs += bundle.entity_counts[etype]

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for name, etype in _ATTRIBUTE_GRAPHS:
            if name not in bundle:
                continue
            graph = bundle[name]
            rows.append(graph.left)
            cols.append(graph.right + offsets[etype])
            vals.append(graph.weights)
        if not rows:
            raise ValueError("bundle has no event attribute graphs")
        S = sparse.csr_matrix(
            (
                np.concatenate(vals),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(n_events, total_attrs),
        )
        row_sums = np.asarray(S.sum(axis=1)).ravel()
        row_sums[row_sums == 0.0] = 1.0
        return sparse.diags(1.0 / row_sums) @ S

    # ------------------------------------------------------------------
    def fit(self, bundle: GraphBundle) -> "CBPF":
        """Stochastic MAP Poisson factorization of user-event responses."""
        cfg = self.config
        rng = ensure_rng(cfg.seed)

        S = self._build_composition(bundle)
        n_attrs = S.shape[1]
        theta = (
            np.abs(rng.normal(0.0, cfg.init_scale, size=(n_attrs, cfg.dim))) + 0.05
        )
        n_users = bundle.entity_counts[EntityType.USER]
        users = (
            np.abs(rng.normal(0.0, cfg.init_scale, size=(n_users, cfg.dim))) + 0.05
        )

        ue = bundle[USER_EVENT]
        n_pos = ue.n_edges
        n_events = S.shape[0]
        lr = cfg.learning_rate

        for _epoch in range(cfg.n_epochs):
            events_m = S @ theta  # recomposed each epoch
            order = rng.permutation(n_pos)
            for block in np.array_split(order, max(1, n_pos // 2048)):
                u_idx = ue.left[block]
                x_idx = ue.right[block]
                xbar = events_m[x_idx]
                mu = np.maximum(
                    np.einsum("bk,bk->b", users[u_idx], xbar), _RATE_FLOOR
                )
                # ∂(y log μ − μ)/∂μ, clipped: near-zero rates otherwise
                # produce coefficients ~y/μ ≈ 1e6 and the ascent diverges.
                coef = np.clip(ue.weights[block] / mu - 1.0, -1.0, _COEF_CLIP)
                user_grad = coef[:, None] * xbar
                event_grad = coef[:, None] * users[u_idx]

                # Sampled zero responses: ∂(−μ) = −x̄ / −u.
                z_x = rng.integers(
                    0, n_events, size=block.size * cfg.zeros_per_positive
                )
                z_u = rng.integers(
                    0, n_users, size=block.size * cfg.zeros_per_positive
                )

                scatter_add_rows(users, u_idx, lr * user_grad)
                scatter_add_rows(users, z_u, -lr * events_m[z_x])
                # Event gradients flow to Θ through the fixed composition.
                sel_pos = S[x_idx]
                sel_zero = S[z_x]
                theta += lr * (sel_pos.T @ event_grad)
                theta -= lr * (sel_zero.T @ users[z_u])

                np.maximum(users, 0.0, out=users)
                np.maximum(theta, 0.0, out=theta)

        self.composition = S
        self.attribute_factors = theta
        self.user_factors = users
        self.event_factors = np.asarray(S @ theta)
        return self

    # score_user_user: inherited — the dot product of the learned user
    # vectors.  The paper extends every comparison method to event-partner
    # recommendation by computing "the social affinity between u and u'
    # based on their vector representations", not the raw friendship graph.
