"""Brute-force online recommendation (the paper's GEM-BF / naive method).

Exact top-n over the candidate event-partner pairs, scored by the one
factored kernel (:func:`repro.online.transform.factored_scores`):
``(a[e] + b[p]) + w·c[e, p]``.  Over an event-major cross-product space
(a serving engine's) the scan is *bounded*: ``a[e] + max(b) + w·cmax[e]``
caps every score of event row ``e``, so scoring the rows of highest bound
first and stopping once the best unvisited bound is strictly below the
n-th score gives the full scan's answer, bit for bit, from a subset of
the pairs (≈ 3 % on the benchmark spine's worlds; EXPERIMENTS.md
"The bounded full scan").  A pruned (partner-major) space, and a prefix of
any space, are scored whole by :func:`scan_top_n` — the paper's GEM-BF,
which Table VI times and every other retrieval path is tested against.
:func:`top_n` is the one canonical selection they all share.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.contracts import check_shapes
from repro.online.ta import RetrievalResult
from repro.online.transform import PairSpace, partner_terms

#: Event rows the bounded scan scores first: those of highest bound.
_FIRST_ROWS = 24


def top_n(
    scores: np.ndarray, n: int, pair_index: np.ndarray | None = None
) -> np.ndarray:
    """Positions of the canonical top-``n`` of ``scores``, best first.

    Canonical order: descending score, then ascending pair index
    (``pair_index[position]`` when the scored rows are a reordered subset,
    else the position itself).  Every candidate tied at the n-th score
    takes part in the sort, so the smallest-index ties win — which keeps
    single-index, TA, IVF and sharded-merge results bit-identical under
    ties.  Non-finite scores (excluded pairs) are never returned.
    """
    total = scores.shape[0]
    k = min(n, total)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # The k-th best score; clamped so that fewer than k eligible
    # candidates select exactly the finite ones.
    boundary = max(
        np.partition(scores, total - k)[total - k], np.finfo(np.float64).min
    )
    top = np.flatnonzero(scores >= boundary)
    keys = top if pair_index is None else pair_index[top]
    order = top[np.lexsort((keys, -scores[top]))][:k]
    return order[np.isfinite(scores[order])]


def _selected(
    space: PairSpace, scores: np.ndarray, n: int, start: int = 0
) -> RetrievalResult:
    """The canonical top-``n`` of the scored pairs ``[start:start + m]`` of
    ``space`` as a result."""
    order = top_n(scores, n)
    m = scores.shape[0]
    return RetrievalResult(
        pair_indices=order + start if start else order,
        scores=scores[order],
        n_examined=m,
        n_sorted_accesses=0,
        fraction_examined=m / max(space.n_pairs, 1),
        exact=m == space.n_pairs,
        n_events=space.candidate_events.size,
    )


def scan_top_n(
    space: PairSpace,
    q: np.ndarray,
    n: int,
    *,
    exclude_partner: int | None = None,
    start: int = 0,
    stop: int | None = None,
) -> RetrievalResult:
    """Exact top-``n`` of pairs ``[start:stop]`` of ``space`` (default: all),
    every one of them scored."""
    scores = space.scores(
        q, exclude_partner=exclude_partner, start=start, stop=stop
    )
    return _selected(space, scores, n, start)


def _row_scores(
    a: np.ndarray,
    b: np.ndarray,
    w: float,
    blocks: Sequence[np.ndarray],
    rows: np.ndarray,
) -> np.ndarray:
    """``(m, P)`` kernel scores ``(a[e] + b[p]) + w·c[e, p]`` of event ``rows``
    — per pair the bits of :func:`~repro.online.transform.factored_scores`.

    ``c`` is given as column ``blocks`` (one per partner slice, in column
    order); each adds its rows into its own columns of the one matrix.
    """
    scores = np.add.outer(a[rows], b)
    if len(blocks) == 1:  # a single index: one block, every column
        c = blocks[0]
        scores += c[rows] if w == 1.0 else w * c[rows]
        return scores
    col = 0
    # replint: allow-loop(one column block per partner slice, not per candidate)
    for c in blocks:
        view = scores[:, col : col + c.shape[1]]
        view += c[rows] if w == 1.0 else w * c[rows]
        col += c.shape[1]
    return scores


def _rows_top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """``top_n(scores.reshape(-1), n)`` of an ``(m, P)`` score matrix.

    The n-th largest row maximum is at most the n-th largest score (those
    n maxima are n distinct scores), so only the scores reaching it take
    part in the selection — a few dozen of ``m·P``.
    """
    flat = scores.reshape(-1)
    m = scores.shape[0]
    if n < m:
        floor = np.partition(scores.max(axis=1), m - n)[m - n]
        if floor > -np.inf:  # and not NaN: every kept score is finite
            kept = np.flatnonzero(flat >= floor)
            return kept[np.lexsort((kept, -flat[kept]))[:n]]
    return top_n(flat, n)


def bounded_rows_top_n(
    a: np.ndarray,
    b: np.ndarray,
    w: float,
    blocks: Sequence[np.ndarray],
    cmax: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact top-``n`` of an event-major ``(rows, P)`` region, bounded by row.

    ``a`` (``(rows,)``) and ``b`` (``(P,)``) are the query terms of the
    region's event rows and partner columns, ``blocks`` its interactions
    as column blocks (``(rows, P_s)`` each, widths summing to ``P``) and
    ``cmax`` each row's largest interaction over *all* blocks; ``w >= 0``.
    Returns ``(keys, scores, rows scored)``, with ``keys = row·P +
    column`` in canonical order — the literal scan's answer, bit for bit,
    however the columns are split into blocks.

    Every pair of row ``e`` scores at most its row's bound ``(a[e] +
    max(b)) + w·cmax[e]`` — the kernel's own sum with ``b[p]`` and ``c``
    raised to their maxima, and IEEE rounding is monotone.  The first
    round scores the :data:`_FIRST_ROWS` rows of highest bound (every row
    of a smaller region), sorted ascending, so flat positions are key
    order and one canonical selection gives both the answer and its n-th
    score.  The answer is final once every unvisited bound is *strictly*
    below that score (an equal one could hide a tie of smaller key);
    otherwise one more round scores exactly the unvisited rows that
    reach it (all of them while fewer than ``n`` scores are finite) and
    merges their candidates by key.
    """
    rows, p = a.shape[0], b.shape[0]
    m = min(_FIRST_ROWS, rows)
    if m == rows:
        visit = np.arange(rows)
    else:
        bound = a + b.max(initial=-np.inf)
        bound += cmax if w == 1.0 else w * cmax
        # ``part[rows - m - 1]`` is the best unvisited row, and every row
        # after it bounds at least as high: one kth, one selection pass.
        part = np.argpartition(bound, rows - m - 1)
        visit = np.sort(part[rows - m :])
    flat = _row_scores(a, b, w, blocks, visit).reshape(-1)
    top = _rows_top_n(flat.reshape(m, p), n)
    keys, scores = visit[top // p] * p + top % p, flat[top]
    enough = scores.size == n
    if m == rows or enough and bound[part[rows - m - 1]] < scores[-1]:
        return keys, scores, m
    need = ~(bound < scores[-1]) if enough else np.ones(rows, bool)
    need[visit] = False
    more = np.flatnonzero(need)
    flat = _row_scores(a, b, w, blocks, more).reshape(-1)
    kept = np.flatnonzero(flat >= scores[-1]) if enough else np.arange(flat.size)
    keys = np.concatenate([keys, more[kept // p] * p + kept % p])
    scores = np.concatenate([scores, flat[kept]])
    # With n finite scores in hand every candidate is finite.
    top = np.lexsort((keys, -scores))[:n] if enough else top_n(scores, n, keys)
    return keys[top], scores[top], m + more.size


def row_bounded(space: PairSpace, q: np.ndarray, rows: int) -> bool:
    """Whether :func:`bounded_top_n` answers the last ``rows`` event rows of
    ``space`` (or of partner slices laid out as it is): they are cross rows
    over at least one partner, and ``w >= 0``.  ``w < 0`` (never a user's
    query: :func:`~repro.online.transform.query_vector` sets ``w = 1``)
    inverts the ``c`` side of the bound."""
    return (
        rows <= space.cross_events
        and q[-1] >= 0
        and space.candidate_partners.size > 0
    )


def bounded_top_n(
    spaces: Sequence[PairSpace],
    cross_max: np.ndarray,
    q: np.ndarray,
    n: int,
    exclude_partner: int | None,
    rows: int,
    columns: tuple[np.ndarray, np.ndarray] | None = None,
) -> RetrievalResult:
    """Exact top-``n`` of the pairs of the last ``rows`` cross rows of
    ``spaces`` side by side: :func:`bounded_rows_top_n` over one column
    block per space.

    ``spaces`` are one pair space (a single index) or partner slices of
    one event set, in column order, which :func:`row_bounded` admits;
    ``cross_max`` is the row maxima over all their columns (one space:
    its :attr:`~repro.online.transform.PairSpace.cross_max`), and
    ``columns`` the ``(partner ids, partner factor rows)`` of all their
    columns in order — one space's own by default; slices pass the
    copies their snapshot concatenated once, so a read forms ``b`` and
    its exclusion in one call each.  The slices' pairs are addressed as
    one space's: the pair indices are ``row·P + column`` from ``n_pairs
    - rows·P`` on, ``P`` the partners and ``n_pairs`` the pairs of all
    slices, and the event and partner ids are read off the rows and
    columns.  Only the event terms of the ``rows`` rows are formed.
    """
    first = spaces[0]
    if columns is None:
        columns = first.candidate_partners, first.partner_factors
    partners, factors = columns
    b = partner_terms(factors, partners, q, exclude_partner)
    if len(spaces) == 1:
        n_pairs, blocks = first.n_pairs, [first.cross_rows(rows)]
    else:
        n_pairs = sum(sp.n_pairs for sp in spaces)
        blocks = [sp.cross_rows(rows) for sp in spaces]
    n_events = first.candidate_events.size
    first_row, p = n_events - rows, b.size
    keys, scores, visited = bounded_rows_top_n(
        first.event_terms(q, first_row),
        b,
        float(q[-1]),
        blocks,
        cross_max[cross_max.size - rows :],
        n,
    )
    base, examined = n_pairs - rows * p, visited * p
    row, col = np.divmod(keys, p)
    return RetrievalResult(
        pair_indices=keys + base if base else keys,
        scores=scores,
        n_examined=examined,
        n_sorted_accesses=0,
        fraction_examined=examined / max(n_pairs, 1),
        exact=base == 0,
        event_ids=first.candidate_events[first_row:][row],
        partner_ids=partners[col],
        n_events=n_events,
    )


class BruteForceIndex:
    """Exact retrieval over a pair space (GEM-BF), bounded where the layout allows.

    The surface the three index classes share, which
    :class:`repro.serving.index.CandidateIndex` serves its rungs through:
    ``query(q, n, *, exclude=None, budget_s=None)`` over the *extended*
    query :math:`\\vec q_u` (build it with
    :func:`~repro.online.transform.query_vector`), ``extend(space,
    n_old)`` and ``memory_bytes()``.  An index is immutable: ``extend``
    returns a new one and leaves this one untouched, so any number of
    threads may query it while a writer grows its successor.

    The query-independent half of the per-event bound, ``cmax``, is the
    space's own :attr:`~repro.online.transform.PairSpace.cross_max`,
    taken where the space's cross rows were computed (a build, an
    appended block): the index derives nothing.
    """

    def __init__(self, space: PairSpace) -> None:
        self.space = space

    @property
    def n_candidates(self) -> int:
        return self.space.n_pairs

    def memory_bytes(self) -> int:
        """Resident bytes: the factored pair space, ``cmax`` included."""
        return self.space.nbytes

    def extend(self, space: PairSpace, n_old: int) -> "BruteForceIndex":
        """A new index over ``space``, whose pairs ``[n_old:]`` are appended
        (no derived state to carry over)."""
        self.space.n_appended(space, n_old)
        return BruteForceIndex(space)

    @check_shapes("(M,)")
    def query(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude: int | None = None,
        budget_s: float | None = None,
    ) -> RetrievalResult:
        """Exact top-n (``exact=True``); ``n_examined`` counts the pairs scored.

        ``exclude`` removes that partner's pairs (one cannot be one's own
        partner).  Over a cross-product space the bounded scan scores
        ~3 % of the pairs at the spine's shape; otherwise every pair is
        scored.  A bounded answer carries its decoded ids.  ``budget_s``
        is ignored: the answer takes two rounds at most, and the
        ``truncated`` rung is the budgeted scan.
        """
        q = self.space.checked_query(q, n)
        space = self.space
        rows = space.candidate_events.size
        if row_bounded(space, q, rows):
            return bounded_top_n((space,), space.cross_max, q, n, exclude, rows)
        return scan_top_n(space, q, n, exclude_partner=exclude)

    def query_appended(
        self, q: np.ndarray, n: int, rows: int, *, exclude: int | None = None
    ) -> RetrievalResult:
        """Top-n of the pairs of the last ``rows`` event rows — the blocks
        appended since an answer covering the rest was computed.

        Indices and score bits are :meth:`query`'s; ``exact`` only when
        those rows are the whole space.  Appended blocks are cross blocks,
        pruned primary or not, so they are bounded whenever they lie in
        the cross region.
        """
        q = self.space.checked_query(q, n)
        space = self.space
        if row_bounded(space, q, rows):
            return bounded_top_n((space,), space.cross_max, q, n, exclude, rows)
        start = space.n_pairs - rows * space.candidate_partners.size
        return scan_top_n(space, q, n, exclude_partner=exclude, start=start)
