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
candidate factor rows once plus 8 bytes per pair (16 where pruning
listed the pair), and
:func:`factored_scores` is the one scan kernel.  **The factored sum is
the scoring oracle**: its value differs from the dense ``points @ q`` by
summation-order rounding (≤ 1e-12), and every reduction in it is per
row / per pair (``einsum``, never BLAS), so its bits do not depend on
how partners are sliced across shards or events are appended.

A space records its layout where it is made.  Its first ``L`` pairs are
*listed* (:func:`transform_pairs`, the partner-major pruned build): each
stores its event and partner row.  The rest is the *cross region* of
:func:`transform_all_pairs` and every appended block, event-major over
all partners, where a pair's position is its rows
(:meth:`PairSpace.pair_rows`, the one reading of the layout) and only
``interaction`` is stored — an ``(R, P)`` matrix.
:attr:`PairSpace.cross_max` holds each cross row's largest interaction,
taken by :func:`cross_pairs` where the row is made, with which
:class:`~repro.online.bruteforce.BruteForceIndex` bounds row by row
(``a[e] + max(b) + w·cross_max[e]``) to score only the rows that can
reach the answer.  The layout is never inferred from the pair count: a
space pruned to ``k = n_events`` events per partner has ``E·P`` pairs
too, listed partner-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.contracts import check_shapes

#: Dtype of a listed pair's factor-row indices (8 B per listed pair).
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


def partner_terms(
    partner_factors: np.ndarray,
    partner_ids: np.ndarray,
    q: np.ndarray,
    exclude_partner: int | None = None,
) -> np.ndarray:
    """``b``, the ``(P,)`` partner terms of an extended query ``q`` over
    the partner factor rows ``partner_factors`` (ids ``partner_ids``).

    ``exclude_partner`` (a global id) sets that partner's entry to
    ``-inf``, which excludes every pair naming it.  Each entry's bits
    depend on its row alone, so the terms of rows laid side by side are
    the concatenation of their terms.
    """
    k = partner_factors.shape[1]
    b = np.einsum("pk,k->p", partner_factors, q[k : 2 * k])
    if exclude_partner is not None:
        b[partner_ids == exclude_partner] = -np.inf
    return b


@dataclass(slots=True)
class PairSpace:
    """Candidate event-partner pairs of the 2K+1 space, stored factored.

    Storage is O((|events| + |partners|)·K + 8·|pairs| + 8·|listed pairs|)
    bytes; the dense ``(n_pairs, 2K+1)`` matrix exists only while someone
    holds the result of :attr:`points` / :meth:`dense_rows` (the TA index
    keeps one).

    Attributes
    ----------
    event_factors, partner_factors:
        ``(n_events, K)`` / ``(n_partners, K)`` float64 embedding rows of
        the candidates.
    candidate_events, candidate_partners:
        ``(n_events,)`` / ``(n_partners,)`` global ids of those rows.
    interaction:
        ``(n_pairs,)`` float64 :math:`\\vec u'^\\top\\vec x` per pair.
    event_index, partner_index:
        ``(L,)`` factor-row positions of the event/partner of each of the
        first ``L`` pairs, the *listed* ones (a pruned build's); empty
        where every pair is in the cross region.
    cross_max:
        ``(R,)`` float64, one entry per cross row: the last ``R`` event
        rows, laid out after the listed pairs as an event-major
        cross-product block — ``n_pairs == L + R × n_partners``, each row
        paired with every partner row in order — holding the row's
        largest interaction (``-inf`` over no partners).  Set where the
        layout is made (:func:`transform_all_pairs`, an appended block).
        Never inferred from the pair count: a pruned space with ``k =
        n_events`` holds ``E·P`` pairs too, listed partner-major.
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
    interaction: np.ndarray
    event_index: np.ndarray = field(default_factory=lambda: np.empty(0, INDEX_DTYPE))
    partner_index: np.ndarray = field(default_factory=lambda: np.empty(0, INDEX_DTYPE))
    cross_max: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    version: int = 0

    def __post_init__(self) -> None:
        ev, pa = self.event_factors, self.partner_factors
        if ev.ndim != 2 or pa.ndim != 2 or ev.shape[1] != pa.shape[1]:
            raise ValueError(f"factor rows must share K: {ev.shape}, {pa.shape}")
        if self.candidate_events.shape != ev.shape[:1] or (
            self.candidate_partners.shape != pa.shape[:1]
        ):
            raise ValueError("candidate ids must align with the factor rows")
        n, listed = self.interaction.shape, self.event_index.shape
        if len(n) != 1 or len(listed) != 1 or self.partner_index.shape != listed:
            raise ValueError("per-pair arrays must be aligned and 1-D")
        if max(ev.shape[0], pa.shape[0]) > np.iinfo(INDEX_DTYPE).max:
            raise ValueError("too many candidates for the index dtype")
        rows = self.cross_max.shape
        if len(rows) != 1 or rows[0] > ev.shape[0] or (
            listed[0] + rows[0] * pa.shape[0] != n[0]
        ):
            raise ValueError(f"cross_max {rows} does not fit the space")

    @property
    def n_pairs(self) -> int:
        return int(self.interaction.shape[0])

    @property
    def cross_events(self) -> int:
        """Trailing event rows laid out as cross-product blocks."""
        return int(self.cross_max.shape[0])

    def pair_rows(
        self, pairs: np.ndarray | slice
    ) -> tuple[np.ndarray, np.ndarray]:
        """int64 ``(event rows, partner rows)`` of the given pair positions.

        The one reading of the layout: a listed pair's rows are stored,
        pair ``L + r·P + p`` of the cross region is event row ``E − R + r``
        with partner row ``p`` (``L`` listed pairs, ``R`` cross rows, ``E``
        event and ``P`` partner rows).  ``pairs`` is a 1-D index array,
        in ``[0, n_pairs)``, or a slice of the pairs.
        """
        if isinstance(pairs, slice):
            pairs = np.arange(*pairs.indices(self.n_pairs), dtype=np.int64)
        pairs = np.asarray(pairs, dtype=np.int64)
        listed = self.event_index.shape[0]
        cross, partners = np.divmod(
            pairs - listed, max(self.candidate_partners.shape[0], 1)
        )
        events = cross + (self.candidate_events.shape[0] - self.cross_events)
        if listed:
            mask = pairs < listed
            events[mask] = self.event_index[pairs[mask]]
            partners[mask] = self.partner_index[pairs[mask]]
        return events, partners

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
        """``(n_pairs,)`` global event id per pair (decoded per access)."""
        return self.decode(slice(None))[0]

    @property
    def partner_ids(self) -> np.ndarray:
        """``(n_pairs,)`` global partner id per pair (decoded per access)."""
        return self.decode(slice(None))[1]

    def decode(
        self, pair_indices: np.ndarray | slice
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(event_ids, partner_ids)`` of the given pairs."""
        events, partners = self.pair_rows(pair_indices)
        return self.candidate_events[events], self.candidate_partners[partners]

    def pair(self, index: int) -> tuple[int, int]:
        """(event, partner) of pair ``index``."""
        event, partner = self.decode(np.array([index], dtype=np.int64))
        return int(event[0]), int(partner[0])

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
        events, partners = self.pair_rows(slice(start, stop))
        interaction = self.interaction[start:stop]
        if out is None:
            out = np.empty((interaction.shape[0], self.dim), dtype=np.float64)
        elif out.shape != (interaction.shape[0], self.dim) or out.dtype != np.float64:
            raise ValueError(
                f"out must be float64 {(interaction.shape[0], self.dim)}, "
                f"got {out.dtype} {out.shape}"
            )
        k = self.embedding_dim
        np.take(self.event_factors, events, axis=0, out=out[:, :k])
        np.take(self.partner_factors, partners, axis=0, out=out[:, k : 2 * k])
        out[:, 2 * k] = interaction
        return out

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

    def cross_rows(self, rows: int) -> np.ndarray:
        """The interactions of the last ``rows`` cross rows as an ``(rows,
        n_partners)`` view (``rows <=`` :attr:`cross_events`)."""
        p = self.candidate_partners.size
        return self.interaction[self.n_pairs - rows * p :].reshape(rows, p)

    def event_terms(self, q: np.ndarray, first: int = 0) -> np.ndarray:
        """``a``, the event terms of an extended query for event rows
        ``[first:]`` (all ``n_events`` by default): each row's bits do not
        depend on ``first``."""
        return np.einsum("ek,k->e", self.event_factors[first:], q[: self.embedding_dim])

    def query_terms(
        self, q: np.ndarray, exclude_partner: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """``(a, b, w)`` of an extended query (any ``q``, not only ``(u, u, 1)``);
        ``exclude_partner`` as in :func:`partner_terms`."""
        return (
            self.event_terms(q),
            partner_terms(
                self.partner_factors, self.candidate_partners, q, exclude_partner
            ),
            float(q[-1]),
        )

    def scores(
        self,
        q: np.ndarray,
        *,
        exclude_partner: int | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Factored Eqn-8 scores of pairs ``[start:stop]`` (excluded: ``-inf``).

        Listed pairs are gathered through their rows; the cross region is
        scored through its ``(rows, P)`` view, ``(a[e] + b[p]) + w·c`` per
        pair as :func:`factored_scores` sums it, so the bits are the same.
        """
        a, b, w = self.query_terms(q, exclude_partner)
        start, stop, _ = slice(start, stop).indices(self.n_pairs)
        base = self.event_index.shape[0]
        mid = min(max(base, start), stop)
        events, partners = self.pair_rows(slice(start, mid))
        c = self.interaction[start:mid]
        listed = factored_scores(a, b, w, events, partners, c)
        if mid == stop:
            return listed
        # The cross rows [r0, r1) that hold pairs [mid:stop], scored whole.
        p = b.shape[0]
        r0, r1 = (mid - base) // p, (stop - base + p - 1) // p
        first = a.shape[0] - self.cross_events
        block = np.add.outer(a[first + r0 : first + r1], b)
        block += w * self.cross_rows(self.cross_events)[r0:r1]
        cross = block.reshape(-1)[mid - base - r0 * p : stop - base - r0 * p]
        return np.concatenate([listed, cross]) if listed.size else cross


def cross_pairs(
    event_factors: np.ndarray, partner_factors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Event-major ``(interaction, row_max)`` of a cross product.

    The interaction is reduced over K per pair, so a pair's bits are the
    same in any block; ``row_max`` is each event row's largest
    (:attr:`PairSpace.cross_max`).  A pair's rows are its position
    (:meth:`PairSpace.pair_rows`), so nothing else is stored.
    """
    n_events, n_partners = event_factors.shape[0], partner_factors.shape[0]
    interaction = np.einsum("ek,pk->ep", event_factors, partner_factors)
    row_max = (
        interaction.max(axis=1)
        if n_partners
        else np.full(n_events, -np.inf, dtype=np.float64)
    )
    return interaction.reshape(-1), row_max


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

    Storage is 8 B per pair (the interaction; a pair's rows are its
    position) plus the factor rows — the dense
    O(|partners|·|events|·(2K+1)) cost the paper's pruning strategy exists
    to avoid is only paid by a TA index built over the result.
    """
    rows = _candidate_fields(event_vectors, partner_vectors, event_ids, partner_ids)
    c, row_max = cross_pairs(rows["event_factors"], rows["partner_factors"])
    return PairSpace(**rows, interaction=c, cross_max=row_max)


@check_shapes("(K,)->(2K+1,)")
def query_vector(user_vector: np.ndarray) -> np.ndarray:
    """The extended query :math:`\\vec q_u = (\\vec u, \\vec u, 1)`."""
    user_vector = np.asarray(user_vector, dtype=np.float64)
    if user_vector.ndim != 1:
        raise ValueError(f"user_vector must be 1-D, got {user_vector.shape}")
    return np.concatenate([user_vector, user_vector, [1.0]])
