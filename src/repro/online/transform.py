"""The space transformation of Section IV ("Fast Online Recommendation").

The triple score ``u·x + u'·x + u·u'`` (Eqn 8) is not an inner product
between the query user and a candidate vector, so off-the-shelf
maximum-inner-product retrieval cannot index event-partner pairs directly.
The paper's trick creates a ``2K+1``-dimensional space where it *is* one:

.. math::
    \\vec p_{xu'} = (\\vec x,\\; \\vec u',\\; \\vec u'^\\top\\vec x), \\qquad
    \\vec q_u = (\\vec u,\\; \\vec u,\\; 1)

so that :math:`\\vec q_u^\\top \\vec p_{xu'} = \\vec u^\\top\\vec x +
\\vec u^\\top\\vec u' + \\vec u'^\\top\\vec x` — exactly Eqn 8.

Only the TA retrieval of :mod:`repro.online.ta` needs the points
themselves.  Every scan evaluates the same inner product *factored*: for
an extended query ``q = (q_x, q_u, w)``,

.. math::
    \\vec q^\\top \\vec p_{xu'} = a[x] + b[u'] + w\\,c[x, u'], \\qquad
    a = X q_x,\\; b = U' q_u,\\; c[x, u'] = \\vec u'^\\top\\vec x

``a`` and ``b`` are one small product per query and ``c`` is a
query-independent scalar per pair, so a :class:`PairSpace` stores the
candidate factor rows once plus 16 bytes per pair, and
:func:`factored_scores` is the one scan kernel.  **The factored sum is
the scoring oracle**: its value differs from the dense ``points @ q`` by
summation-order rounding (≤ 1e-12), and every reduction in it is per
row / per pair (``einsum``, never BLAS), so its bits do not depend on
how partners are sliced across shards or events are appended.

A space records its layout where it is made: :func:`transform_all_pairs`
and every appended block lay pairs out event-major over all partners, and
:attr:`PairSpace.cross_max` holds one entry per trailing event row laid
out so — the row's largest interaction, taken by :func:`cross_pairs`
where the row is made.  Over those rows ``interaction`` is an ``(E, P)``
matrix, which :class:`~repro.online.bruteforce.BruteForceIndex` bounds
row by row (``a[e] + max(b) + w·cross_max[e]``) to score only the rows
that can reach the answer.  The layout is never inferred from the pair
count: a space pruned to ``k = n_events`` events per partner has ``E·P``
pairs too, partner-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.contracts import check_shapes

#: Dtype of the per-pair factor-row indices (half of the 16 B/pair).
INDEX_DTYPE = np.int32


def factored_scores(
    a: np.ndarray,
    b: np.ndarray,
    w: float,
    event_index: np.ndarray,
    partner_index: np.ndarray,
    interaction: np.ndarray,
) -> np.ndarray:
    """``(a[event] + b[partner]) + w * c`` per pair — the scan kernel.

    ``a`` / ``b`` are the per-event / per-partner query terms (see
    :meth:`PairSpace.query_terms`); the three per-pair arrays are aligned.
    Elementwise, so each pair's bits depend on that pair alone.
    """
    return a[event_index] + b[partner_index] + w * interaction


@dataclass(slots=True)
class PairSpace:
    """Candidate event-partner pairs of the 2K+1 space, stored factored.

    Storage is O((|events| + |partners|)·K + 16·|pairs|) bytes; the dense
    ``(n_pairs, 2K+1)`` matrix exists only while someone holds the result
    of :attr:`points` / :meth:`dense_rows` (the TA index keeps one).

    Attributes
    ----------
    event_factors, partner_factors:
        ``(n_events, K)`` / ``(n_partners, K)`` float64 embedding rows of
        the candidates.
    candidate_events, candidate_partners:
        ``(n_events,)`` / ``(n_partners,)`` global ids of those rows.
    event_index, partner_index:
        ``(n_pairs,)`` factor-row positions of each pair's event/partner.
    interaction:
        ``(n_pairs,)`` float64 :math:`\\vec u'^\\top\\vec x` per pair.
    cross_max:
        ``(cross rows,)`` float64, one entry per trailing event row laid
        out as an event-major cross-product block — the last ``cross rows
        × n_partners`` pairs are those rows, in order, each paired with
        every partner row in order — holding the row's largest
        interaction (``-inf`` over no partners).  Set where the layout is
        made (:func:`transform_all_pairs`, an appended block); empty
        otherwise.  Never inferred from the pair count: a pruned space
        with ``k = n_events`` holds ``E·P`` pairs too, partner-major.
    version:
        Embedding version this space was materialised from.  0 means
        "unversioned" (spaces built outside a serving engine); the
        :class:`~repro.serving.engine.ServingEngine` stamps its own
        monotonically increasing version so persisted indices and cached
        results can be matched to the embeddings that produced them.
    """

    event_factors: np.ndarray
    partner_factors: np.ndarray
    candidate_events: np.ndarray
    candidate_partners: np.ndarray
    event_index: np.ndarray
    partner_index: np.ndarray
    interaction: np.ndarray
    cross_max: np.ndarray = field(default_factory=lambda: np.empty(0))
    version: int = 0

    def __post_init__(self) -> None:
        ev, pa = self.event_factors, self.partner_factors
        if ev.ndim != 2 or pa.ndim != 2 or ev.shape[1] != pa.shape[1]:
            raise ValueError(f"factor rows must share K: {ev.shape}, {pa.shape}")
        if self.candidate_events.shape != ev.shape[:1] or (
            self.candidate_partners.shape != pa.shape[:1]
        ):
            raise ValueError("candidate ids must align with the factor rows")
        n = self.interaction.shape
        if len(n) != 1 or not self.event_index.shape == self.partner_index.shape == n:
            raise ValueError("per-pair arrays must be aligned and 1-D")
        if max(ev.shape[0], pa.shape[0]) > np.iinfo(INDEX_DTYPE).max:
            raise ValueError("too many candidates for the index dtype")
        rows = self.cross_max.shape
        if len(rows) != 1 or rows[0] > ev.shape[0] or rows[0] * pa.shape[0] > n[0]:
            raise ValueError(f"cross_max {rows} does not fit the space")

    @property
    def n_pairs(self) -> int:
        return int(self.interaction.shape[0])

    @property
    def cross_events(self) -> int:
        """Trailing event rows laid out as cross-product blocks."""
        return int(self.cross_max.shape[0])

    @property
    def embedding_dim(self) -> int:
        """The original K."""
        return int(self.event_factors.shape[1])

    @property
    def dim(self) -> int:
        """``2K+1``, the length of an extended query."""
        return 2 * self.embedding_dim + 1

    @property
    def nbytes(self) -> int:
        """Resident bytes of the arrays this space holds."""
        values = (getattr(self, f.name) for f in fields(self))
        return sum(v.nbytes for v in values if isinstance(v, np.ndarray))

    @property
    def event_ids(self) -> np.ndarray:
        """``(n_pairs,)`` global event id per pair (gathered per access)."""
        return self.candidate_events[self.event_index]

    @property
    def partner_ids(self) -> np.ndarray:
        """``(n_pairs,)`` global partner id per pair (gathered per access)."""
        return self.candidate_partners[self.partner_index]

    def decode(
        self, pair_indices: np.ndarray | int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(event_ids, partner_ids)`` of the given pairs."""
        return (
            self.candidate_events[self.event_index[pair_indices]],
            self.candidate_partners[self.partner_index[pair_indices]],
        )

    def pair(self, index: int) -> tuple[int, int]:
        """(event, partner) of pair ``index``."""
        event, partner = self.decode(index)
        return int(event), int(partner)

    def dense_rows(
        self,
        start: int = 0,
        stop: int | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Pairs ``[start:stop]`` as ``(m, 2K+1)`` points :math:`\\vec p_{xu'}`.

        With ``out`` (float64, exactly ``(m, 2K+1)``) the same bits are
        gathered into the caller's buffer and nothing of size ``m`` is
        returned fresh — the IVF build reuses one block this way.
        """
        if out is not None:
            k = self.embedding_dim
            interaction = self.interaction[start:stop]
            if out.shape != (interaction.shape[0], self.dim) or out.dtype != np.float64:
                raise ValueError(
                    f"out must be float64 {(interaction.shape[0], self.dim)}, "
                    f"got {out.dtype} {out.shape}"
                )
            np.take(
                self.event_factors, self.event_index[start:stop], axis=0,
                out=out[:, :k],
            )
            np.take(
                self.partner_factors, self.partner_index[start:stop], axis=0,
                out=out[:, k : 2 * k],
            )
            out[:, 2 * k] = interaction
            return out
        return np.concatenate(
            [
                self.event_factors[self.event_index[start:stop]],
                self.partner_factors[self.partner_index[start:stop]],
                self.interaction[start:stop, None],
            ],
            axis=1,
        )

    @property
    def points(self) -> np.ndarray:
        """The whole ``(n_pairs, 2K+1)`` matrix, built per access — the one
        way to take all of it, which only a TA index does (scans never)."""
        return self.dense_rows()

    def checked_query(self, q: np.ndarray, n: int) -> np.ndarray:
        """``q`` as float64, after validating a top-``n`` request against
        this space — the argument checks every index's ``query`` shares."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query dim {q.shape} != candidate dim ({self.dim},)")
        return q

    def n_appended(self, space: "PairSpace", n_old: int) -> int:
        """Pairs ``space`` adds after this space's — the ``extend`` contract.

        ``space`` must hold this space's pairs, unchanged and in order,
        as its first ``n_old`` rows; every index's ``extend(space,
        n_old)`` absorbs rows ``[n_old:]`` on that promise.
        """
        if n_old != self.n_pairs:
            raise ValueError(
                f"extend expects the first {self.n_pairs} rows to be "
                f"the current candidates, got n_old={n_old}"
            )
        if space.n_pairs < n_old:
            raise ValueError("extended space is smaller than the current one")
        return space.n_pairs - n_old

    def query_terms(
        self, q: np.ndarray, exclude_partner: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """``(a, b, w)`` of an extended query (any ``q``, not only ``(u, u, 1)``).

        ``exclude_partner`` (a global id) sets that partner's ``b`` entry
        to ``-inf``, which excludes every pair naming it.
        """
        k = self.embedding_dim
        a = np.einsum("ek,k->e", self.event_factors, q[:k])
        b = np.einsum("pk,k->p", self.partner_factors, q[k : 2 * k])
        if exclude_partner is not None:
            b[self.candidate_partners == exclude_partner] = -np.inf
        return a, b, float(q[-1])

    def scores(
        self,
        q: np.ndarray,
        *,
        exclude_partner: int | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Factored Eqn-8 scores of pairs ``[start:stop]`` (excluded: ``-inf``)."""
        a, b, w = self.query_terms(q, exclude_partner)
        e, p, c = self.event_index, self.partner_index, self.interaction
        return factored_scores(
            a, b, w, e[start:stop], p[start:stop], c[start:stop]
        )


def cross_pairs(
    event_factors: np.ndarray, partner_factors: np.ndarray, first_event: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Event-major ``(event_index, partner_index, interaction, row_max)`` of
    a cross product.

    Event rows are numbered from ``first_event`` (an appended block's rows
    follow the ones already in the space).  The interaction is reduced
    over K per pair, so a pair's bits are the same in any block;
    ``row_max`` is each event row's largest (:attr:`PairSpace.cross_max`).
    The index columns are broadcast fills of ``(E, P)`` arrays: two
    sharded legs built side by side took 2.6 ms through ``np.repeat`` /
    ``np.tile`` and take 0.7 ms so.
    """
    n_events, n_partners = event_factors.shape[0], partner_factors.shape[0]
    events = np.empty((n_events, n_partners), dtype=INDEX_DTYPE)
    events[:] = np.arange(
        first_event, first_event + n_events, dtype=INDEX_DTYPE
    )[:, None]
    partners = np.empty((n_events, n_partners), dtype=INDEX_DTYPE)
    partners[:] = np.arange(n_partners, dtype=INDEX_DTYPE)
    interaction = np.einsum("ek,pk->ep", event_factors, partner_factors)
    row_max = (
        interaction.max(axis=1) if n_partners else np.full(n_events, -np.inf)
    )
    return (
        events.reshape(-1),
        partners.reshape(-1),
        interaction.reshape(-1),
        row_max,
    )


def _candidate_fields(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    event_ids: np.ndarray | None,
    partner_ids: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """The per-candidate fields of a space: float64 row copies and their ids."""
    if event_ids is None:
        event_ids = np.arange(np.shape(event_vectors)[0])
    if partner_ids is None:
        partner_ids = np.arange(np.shape(partner_vectors)[0])
    return {
        "event_factors": np.array(event_vectors, dtype=np.float64),
        "partner_factors": np.array(partner_vectors, dtype=np.float64),
        "candidate_events": np.array(event_ids, dtype=np.int64),
        "candidate_partners": np.array(partner_ids, dtype=np.int64),
    }


@check_shapes("(E,K),(P,K),(n,),(n,)")
def transform_pairs(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    *,
    event_index: np.ndarray,
    partner_index: np.ndarray,
    event_ids: np.ndarray | None = None,
    partner_ids: np.ndarray | None = None,
) -> PairSpace:
    """The pair space of the listed ``(event row, partner row)`` candidates.

    ``event_index`` / ``partner_index`` are aligned row positions into the
    two vector matrices (typically from
    :func:`repro.online.pruning.top_k_events_per_partner`); ``event_ids``
    / ``partner_ids`` name the matrix rows globally (defaults: positions).
    All four are keyword-only: the matrices hold candidates, not one row
    per pair, so a positional per-pair call fails instead of mis-indexing.
    """
    rows = _candidate_fields(event_vectors, partner_vectors, event_ids, partner_ids)
    e = np.asarray(event_index, dtype=INDEX_DTYPE)
    p = np.asarray(partner_index, dtype=INDEX_DTYPE)
    # The same per-pair reduction (and bits) as cross_pairs.
    c = np.einsum("nk,nk->n", rows["partner_factors"][p], rows["event_factors"][e])
    return PairSpace(**rows, event_index=e, partner_index=p, interaction=c)


def transform_all_pairs(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    *,
    event_ids: np.ndarray | None = None,
    partner_ids: np.ndarray | None = None,
) -> PairSpace:
    """The *full* cross product (the unpruned search space), event-major.

    Storage is 16 B per pair plus the factor rows — the dense
    O(|partners|·|events|·(2K+1)) cost the paper's pruning strategy exists
    to avoid is only paid by a TA index built over the result.
    """
    rows = _candidate_fields(event_vectors, partner_vectors, event_ids, partner_ids)
    e, p, c, row_max = cross_pairs(rows["event_factors"], rows["partner_factors"])
    return PairSpace(
        **rows, event_index=e, partner_index=p, interaction=c, cross_max=row_max
    )


@check_shapes("(K,)->(2K+1,)")
def query_vector(user_vector: np.ndarray) -> np.ndarray:
    """The extended query :math:`\\vec q_u = (\\vec u, \\vec u, 1)`."""
    user_vector = np.asarray(user_vector, dtype=np.float64)
    if user_vector.ndim != 1:
        raise ValueError(f"user_vector must be 1-D, got {user_vector.shape}")
    return np.concatenate([user_vector, user_vector, [1.0]])
