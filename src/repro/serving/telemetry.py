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
It counts on write and keeps a window, so its memory and the cost of a
read are bounded however long the process serves:

* **lifetime** — ``len(registry)``, :meth:`MetricsRegistry.totals`,
  ``shed_counts()`` / ``n_shed``: counters bumped inside ``record`` /
  ``record_shed``, never decreasing until ``reset()``;
* **newest** :data:`WINDOW` — ``records``, ``select``, ``summary``,
  ``percentiles``, ``rung_summary``: exact aggregates over the most
  recent records only (identical to lifetime until the window wraps).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, fields

from repro.sanitizer import tsan_lock

#: Records a :class:`MetricsRegistry` keeps for its window readers.
#: Deliberately not configurable: 4096 requests is about a second of the
#: spine's ``serve_ladder`` traffic, and an experiment that needs every
#: record uses one registry per measured point.
WINDOW = 4096


@dataclass(slots=True)
class QueryStats:
    """Telemetry for a single served query.

    Immutable value object; safe to share across threads once recorded.

    The deadline fields are only meaningful for requests served through
    the request-lifecycle path (``recommend_within`` /
    ``recommend_many``):

    * ``rung`` — which degradation rung answered (``"full"``,
      ``"ivf"``, ``"truncated"`` or ``"stale_cache"``;
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
    seconds_retrieval: float = 0.0
    cache_hit: bool = False
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


def quantiles(
    values: list[float], qs: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` (keys follow ``qs``), one sort."""
    ordered = sorted(values)
    return {f"p{q:g}": _percentile_of_sorted(ordered, float(q)) for q in qs}


class MetricsRegistry:
    """Counts every :class:`QueryStats` and keeps the newest :data:`WINDOW`.

    **Thread-safety guarantee:** ``record``, ``record_shed``, ``reset``
    and every reader take one internal lock, so any number of serving
    workers may call them concurrently without losing a count — the
    exact property ``recommend_many`` relies on, and what the threaded
    stress test in ``tests/test_serving.py`` verifies (N threads x M
    records each, all N*M arrive).  Aggregation filters let one registry
    serve an experiment that interleaves backends and top-n values:

    >>> registry.summary(backend="ta", n=10)["mean_seconds_total"]
    """

    def __init__(self) -> None:
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._window: deque[QueryStats] = deque(maxlen=WINDOW)  # replint: guarded-by(_lock)
        self._by_rung: dict[str, int] = {}  # replint: guarded-by(_lock)
        # replint: guarded-by(_lock)
        self._totals = {
            "n_cache_hits": 0,
            "n_stale": 0,
            "n_deadline_missed": 0,
            "total_n_examined": 0,
            "total_sorted_accesses": 0,
        }
        self._sheds: dict[str, int] = {}  # replint: guarded-by(_lock)

    def record(self, stats: QueryStats) -> None:
        """Count one query record and append it to the window (thread-safe)."""
        with self._lock:
            self._window.append(stats)
            self._by_rung[stats.rung] = self._by_rung.get(stats.rung, 0) + 1
            totals = self._totals
            totals["total_n_examined"] += stats.n_examined
            totals["total_sorted_accesses"] += stats.n_sorted_accesses
            if stats.cache_hit:
                totals["n_cache_hits"] += 1
            if stats.stale:
                totals["n_stale"] += 1
            if not stats.deadline_met:
                totals["n_deadline_missed"] += 1

    def record_shed(self, reason: str) -> None:
        """Count one load-shed request under its explicit ``reason``.

        Thread-safe.  Reasons are free-form strings; the canonical ones
        are in :mod:`repro.serving.lifecycle` (``SHED_QUEUE_FULL``,
        ``SHED_DEADLINE_EXPIRED``, ``SHED_RUNGS_EXHAUSTED``).
        """
        with self._lock:
            self._sheds[reason] = self._sheds.get(reason, 0) + 1

    def reset(self) -> None:
        """Drop the window, the lifetime totals and the shed counters."""
        with self._lock:
            self._window.clear()
            self._by_rung.clear()
            self._totals = dict.fromkeys(self._totals, 0)
            self._sheds.clear()

    # -- lifetime readers ----------------------------------------------
    def __len__(self) -> int:
        """Queries recorded since construction or :meth:`reset`."""
        with self._lock:
            return sum(self._by_rung.values())

    def totals(self) -> dict:
        """Lifetime counters, read in O(1) without touching the window.

        The seven count keys of :meth:`summary` (``n_queries``,
        ``n_cache_hits``, ``n_degraded``, ``n_stale``,
        ``n_deadline_missed``, ``total_n_examined``,
        ``total_sorted_accesses``) plus ``n_by_rung``
        (``{rung: answered requests}``) — what the exporter's
        ``counter`` families read, so they never decrease.
        """
        with self._lock:
            by_rung = dict(self._by_rung)
            totals = dict(self._totals)
        n = sum(by_rung.values())
        return {
            "n_queries": n,
            "n_degraded": n - by_rung.get("full", 0),
            **totals,
            "n_by_rung": by_rung,
        }

    def shed_counts(self) -> dict[str, int]:
        """Snapshot of shed counters: ``{reason: count}`` (thread-safe)."""
        with self._lock:
            return dict(self._sheds)

    @property
    def n_shed(self) -> int:
        """Total requests shed across all reasons."""
        with self._lock:
            return sum(self._sheds.values())

    # -- window readers ------------------------------------------------
    @property
    def records(self) -> list[QueryStats]:
        """A snapshot copy of the newest :data:`WINDOW` records, oldest first."""
        with self._lock:
            return list(self._window)

    def select(self, **criteria: object) -> list[QueryStats]:
        """Window records whose fields match every ``criteria`` item exactly."""
        records = self.records
        # replint: allow-loop(one filtering pass per criterion, not per query)
        for name, value in criteria.items():
            records = [r for r in records if getattr(r, name) == value]
        return records

    def percentiles(
        self,
        qs: tuple[float, ...] = (50.0, 95.0, 99.0),
        field: str = "seconds_total",
        **criteria: object,
    ) -> dict[str, float]:
        """Nearest-rank percentiles of ``field`` over matching window records.

        Returns ``{"p50": ..., "p95": ..., "p99": ...}`` (keys follow
        ``qs``); all zeros when nothing matches.
        """
        values = [float(getattr(r, field)) for r in self.select(**criteria)]
        return quantiles(values, qs)

    def rung_summary(self, **criteria: object) -> dict[str, dict]:
        """Per-rung request counts and latency percentiles over the window.

        ``{rung: {"count": int, "p50": s, "p95": s, "p99": s}}`` over the
        matching records — the degradation-ladder view an operator reads
        first (see docs/OPERATIONS.md).
        """
        by_rung: dict[str, list[float]] = {}
        # replint: allow-loop(one grouping pass over <= WINDOW records)
        for r in self.select(**criteria):
            by_rung.setdefault(r.rung, []).append(r.seconds_total)
        return {
            rung: {"count": len(values), **quantiles(values)}
            for rung, values in sorted(by_rung.items())
        }

    def summary(self, **criteria: object) -> dict:
        """Aggregate statistics over the matching window records.

        Keys: ``n_queries``, ``n_cache_hits``, ``cache_hit_rate``,
        ``total_seconds``, ``mean_seconds_total``, ``mean_seconds_retrieval``,
        ``mean_fraction_examined``, ``mean_n_examined``,
        ``total_n_examined``, ``total_sorted_accesses``, plus the
        degradation view: ``n_degraded`` (answers from a rung below
        ``full``), ``n_stale`` and ``n_deadline_missed``.  Every mean is
        ``0.0`` when nothing matches.
        """
        records = self.select(**criteria)
        n = len(records)

        def mean(total: float) -> float:
            return total / n if n else 0.0

        hits = sum(1 for r in records if r.cache_hit)
        seconds = sum((r.seconds_total for r in records), 0.0)
        examined = sum(r.n_examined for r in records)
        return {
            "n_queries": n,
            "n_cache_hits": hits,
            "cache_hit_rate": mean(hits),
            "total_seconds": seconds,
            "mean_seconds_total": mean(seconds),
            "mean_seconds_retrieval": mean(sum(r.seconds_retrieval for r in records)),
            "mean_fraction_examined": mean(sum(r.fraction_examined for r in records)),
            "mean_n_examined": mean(examined),
            "total_n_examined": examined,
            "total_sorted_accesses": sum(r.n_sorted_accesses for r in records),
            "n_degraded": sum(1 for r in records if r.rung != "full"),
            "n_stale": sum(1 for r in records if r.stale),
            "n_deadline_missed": sum(1 for r in records if not r.deadline_met),
        }
