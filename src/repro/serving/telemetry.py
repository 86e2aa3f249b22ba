"""Query telemetry for the serving engine.

Every retrieval the :class:`~repro.serving.engine.ServingEngine` answers
produces one :class:`QueryStats` record — the access counts the paper's
efficiency study reports (pairs examined, sorted accesses) plus the
wall-clock split into query-vector construction and index retrieval, the
embedding version served, and whether the answer came from the result
cache.  Deadline-scoped requests additionally record which **degradation
rung** produced the answer (see :mod:`repro.serving.lifecycle`), how much
of the deadline budget remained, and whether the answer was exact or
stale.  Requests that were *not* answered — load shedding — are counted
separately via :meth:`MetricsRegistry.record_shed`, so "zero silent
drops" is an auditable property: every admitted request shows up either
as a :class:`QueryStats` record or as a shed counter increment.

A :class:`MetricsRegistry` collects the records and aggregates them, so
experiment runners (Table VI, Fig 7, the HeteRS latency bench), the
metrics exporter and the benchmark spine read their numbers from one
instrumented source instead of hand-rolled ``time.perf_counter`` loops.
"""

from __future__ import annotations

import math
import threading
import time

from repro.sanitizer import tsan_lock
from dataclasses import dataclass, fields


@dataclass(slots=True)
class QueryStats:
    """Telemetry for a single served query.

    Immutable value object; safe to share across threads once recorded.

    The deadline fields are only meaningful for requests served through
    the request-lifecycle path (``recommend_within`` /
    ``recommend_many``):

    * ``rung`` — which degradation rung answered (``"full"``,
      ``"pruned"``, ``"ivf"``, ``"truncated"`` or ``"stale_cache"``;
      plain un-deadlined queries always record ``"full"``).
    * ``n_clusters_probed`` — IVF coarse cells scanned for the answer
      (0 for every non-IVF retrieval path).
    * ``deadline_budget_s`` — the per-request budget (0.0 = no deadline).
    * ``deadline_remaining_s`` — budget left when the answer was ready
      (negative = the deadline was missed).
    * ``deadline_met`` — ``deadline_remaining_s >= 0`` at response time.
    * ``queue_wait_s`` — time spent queued before a worker picked the
      request up (the budget keeps draining while queued).
    * ``exact`` — the answer is the exact top-n over the engine's full
      candidate space (degraded rungs and budget-capped TA scans are
      approximate).
    * ``stale`` — the answer came from the stale-answer cache and may
      reflect an older embedding version than ``version``.
    """

    user: int
    n: int
    backend: str
    version: int
    n_candidates: int
    n_examined: int
    n_sorted_accesses: int
    fraction_examined: float
    seconds_total: float
    seconds_query_vector: float = 0.0
    seconds_retrieval: float = 0.0
    cache_hit: bool = False
    batched: bool = False
    rung: str = "full"
    n_clusters_probed: int = 0
    deadline_budget_s: float = 0.0
    deadline_remaining_s: float = 0.0
    deadline_met: bool = True
    queue_wait_s: float = 0.0
    exact: bool = True
    stale: bool = False

    def as_dict(self) -> dict:
        """Plain-dict view (for logging / serialisation)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class BuildStats:
    """Counters for index construction and incremental maintenance.

    ``n_pairs_transformed`` counts every pair run through the 2K+1 space
    transformation since the engine was created; a refresh that re-used
    the existing rows only adds the *new* pairs, which is how the tests
    verify refreshes are incremental rather than cold rebuilds.
    """

    n_full_builds: int = 0
    n_incremental_refreshes: int = 0
    n_pairs_transformed: int = 0
    seconds_building: float = 0.0


class _Timer:
    """Tiny context-manager stopwatch: ``with _Timer() as t: ...; t.seconds``."""

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted).

    The nearest-rank (inverted-CDF) definition: the smallest value with
    at least ``q`` percent of the sample at or below it — rank
    ``ceil(q/100 * n)``, clamped to ``[1, n]`` so ``q=0`` returns the
    minimum and ``q=100`` the maximum.  Matches
    ``numpy.percentile(values, q, method="inverted_cdf")`` exactly
    (property-tested in ``tests/test_telemetry.py``); an empty sample
    returns the ``0.0`` sentinel the registry aggregates use.  Raises
    :class:`ValueError` for ``q`` outside ``[0, 100]``.

    This replaces an earlier formula that truncated ``q * n`` to an int
    *before* the ceiling division, which rounded fractional ``q`` the
    wrong way (e.g. ``q=33.4, n=3``: true rank ``ceil(1.002) = 2``, the
    truncated form gave 1).
    """
    return _percentile_of_sorted(sorted(values), q)


def _percentile_of_sorted(ordered: list[float], q: float) -> float:
    """:func:`percentile` of an already ascending list (never re-sorts)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    rank = min(max(math.ceil((q / 100.0) * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


class MetricsRegistry:
    """Accumulates :class:`QueryStats` and answers aggregate questions.

    **Thread-safety guarantee:** ``record``, ``record_shed``, ``reset``
    and every reader take an internal lock, so any number of serving
    workers may call them concurrently without losing records — the
    exact property ``recommend_many`` relies on, and what the threaded
    stress test in ``tests/test_serving.py`` verifies (N threads x M
    records each, all N*M arrive).  Aggregation filters let one registry
    serve an experiment that interleaves backends and top-n values:

    >>> registry.summary(backend="ta", n=10)["mean_seconds_total"]
    """

    def __init__(self) -> None:
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._records: list[QueryStats] = []  # replint: guarded-by(_lock)
        self._sheds: dict[str, int] = {}  # replint: guarded-by(_lock)

    # ------------------------------------------------------------------
    def record(self, stats: QueryStats) -> None:
        """Append one query record (thread-safe, lock-protected)."""
        with self._lock:
            self._records.append(stats)

    def record_shed(self, reason: str) -> None:
        """Count one load-shed request under its explicit ``reason``.

        Thread-safe.  Reasons are free-form strings; the canonical ones
        are in :mod:`repro.serving.lifecycle` (``SHED_QUEUE_FULL``,
        ``SHED_DEADLINE_EXPIRED``, ``SHED_RUNGS_EXHAUSTED``).
        """
        with self._lock:
            self._sheds[reason] = self._sheds.get(reason, 0) + 1

    def reset(self) -> None:
        """Drop all records and shed counters (thread-safe)."""
        with self._lock:
            self._records.clear()
            self._sheds.clear()

    @property
    def records(self) -> list[QueryStats]:
        """A snapshot copy of the recorded queries (thread-safe)."""
        with self._lock:
            return list(self._records)

    def shed_counts(self) -> dict[str, int]:
        """Snapshot of shed counters: ``{reason: count}`` (thread-safe)."""
        with self._lock:
            return dict(self._sheds)

    @property
    def n_shed(self) -> int:
        """Total requests shed across all reasons."""
        with self._lock:
            return sum(self._sheds.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    def select(self, **criteria: object) -> list[QueryStats]:
        """Records whose fields match every ``criteria`` item exactly."""
        return [
            r
            for r in self.records
            if all(getattr(r, k) == v for k, v in criteria.items())
        ]

    def percentiles(
        self,
        qs: tuple[float, ...] = (50.0, 95.0, 99.0),
        field: str = "seconds_total",
        **criteria: object,
    ) -> dict[str, float]:
        """Nearest-rank percentiles of ``field`` over matching records.

        Returns ``{"p50": ..., "p95": ..., "p99": ...}`` (keys follow
        ``qs``); all zeros when nothing matches.
        """
        values = sorted(
            float(getattr(r, field)) for r in self.select(**criteria)
        )
        return {
            f"p{q:g}": _percentile_of_sorted(values, float(q)) for q in qs
        }

    def rung_summary(self, **criteria: object) -> dict[str, dict]:
        """Per-rung request counts and latency percentiles.

        ``{rung: {"count": int, "p50": s, "p95": s, "p99": s}}`` over the
        matching records — the degradation-ladder view an operator reads
        first (see docs/OPERATIONS.md).
        """
        records = self.select(**criteria)
        out: dict[str, dict] = {}
        # replint: allow-loop(aggregation over <= 5 rung labels, not queries)
        for rung in sorted({r.rung for r in records}):
            values = sorted(
                r.seconds_total for r in records if r.rung == rung
            )
            out[rung] = {
                "count": len(values),
                **{
                    f"p{q:g}": _percentile_of_sorted(values, q)
                    for q in (50.0, 95.0, 99.0)
                },
            }
        return out

    def summary(self, **criteria: object) -> dict:
        """Aggregate statistics over the matching records.

        Keys: ``n_queries``, ``n_cache_hits``, ``cache_hit_rate``,
        ``total_seconds``, ``mean_seconds_total``, ``mean_seconds_retrieval``,
        ``mean_fraction_examined``, ``mean_n_examined``,
        ``total_n_examined``, ``total_sorted_accesses``, plus the
        degradation view: ``n_degraded`` (answers from a rung below
        ``full``), ``n_stale`` and ``n_deadline_missed``.
        """
        records = self.select(**criteria)
        n = len(records)
        if n == 0:
            return {
                "n_queries": 0,
                "n_cache_hits": 0,
                "cache_hit_rate": 0.0,
                "total_seconds": 0.0,
                "mean_seconds_total": 0.0,
                "mean_seconds_retrieval": 0.0,
                "mean_fraction_examined": 0.0,
                "mean_n_examined": 0.0,
                "total_n_examined": 0,
                "total_sorted_accesses": 0,
                "n_degraded": 0,
                "n_stale": 0,
                "n_deadline_missed": 0,
            }
        hits = sum(1 for r in records if r.cache_hit)
        return {
            "n_queries": n,
            "n_cache_hits": hits,
            "cache_hit_rate": hits / n,
            "total_seconds": sum(r.seconds_total for r in records),
            "mean_seconds_total": sum(r.seconds_total for r in records) / n,
            "mean_seconds_retrieval": (
                sum(r.seconds_retrieval for r in records) / n
            ),
            "mean_fraction_examined": (
                sum(r.fraction_examined for r in records) / n
            ),
            "mean_n_examined": sum(r.n_examined for r in records) / n,
            "total_n_examined": sum(r.n_examined for r in records),
            "total_sorted_accesses": sum(
                r.n_sorted_accesses for r in records
            ),
            "n_degraded": sum(1 for r in records if r.rung != "full"),
            "n_stale": sum(1 for r in records if r.stale),
            "n_deadline_missed": sum(
                1 for r in records if not r.deadline_met
            ),
        }
