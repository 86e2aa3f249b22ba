"""Unified serving engine for fast online recommendation (Section IV).

One request path over the space transformation, pruning, the
:mod:`repro.online` index classes, incremental refresh, caching, and
query telemetry:

>>> from repro.serving import ServingEngine
>>> engine = ServingEngine(U, E, candidate_events)  # GEM-BF; backend="ta" = GEM-TA
>>> recs = engine.recommend(3, n=10)
>>> engine.metrics.summary()["mean_seconds_total"]

Two layers: the **index layer** (:mod:`repro.serving.index`,
:class:`CandidateIndex`) is what can be scanned; the **engine**
(:mod:`repro.serving.engine`) is how a request is served, written once
against the index's scan surface.  Deadline-aware serving is the same
walk: ``recommend`` runs it without a deadline, ``recommend_within``
under a budget via the degradation ladder (``full -> ivf -> truncated
-> stale_cache``), and ``recommend_many`` drives it
concurrently behind a bounded admission queue with explicit load
shedding — see
:mod:`repro.serving.lifecycle`, :mod:`repro.serving.faults`, DESIGN.md
§8 and docs/OPERATIONS.md.

Scale-out and streaming are compositions, not second engines:
:class:`ShardedIndex` partitions candidate partners into contiguous
rank slices with an exact top-n merge (:class:`ShardedServingEngine` is
the engine constructed over it), and :mod:`repro.serving.streaming`
serves live traffic while folding in post-training event arrivals — a
:class:`FoldInPump` batches arrivals into ``engine.refresh``, which
publishes the extended index as one snapshot, so queries never block on
a write and never see half of one (DESIGN.md §11, docs/OPERATIONS.md
§10).
"""

from repro.serving.engine import Recommendation, ServingEngine
from repro.serving.index import (
    CandidateIndex,
    merge_sharded_topn,
)
from repro.serving.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    fault_point,
    install,
    parse_faults,
    uninstall,
)
from repro.serving.lifecycle import (
    RUNGS,
    SHED_DEADLINE_EXPIRED,
    SHED_QUEUE_FULL,
    SHED_RUNGS_EXHAUSTED,
    AdmissionController,
    LadderPolicy,
    RequestContext,
    RequestOutcome,
)
from repro.serving.sharded import ShardedIndex, ShardedServingEngine
from repro.serving.streaming import (
    DoubleBufferedEngine,
    FoldInPump,
    StalenessRecord,
)
from repro.serving.telemetry import (
    BuildStats,
    MetricsRegistry,
    QueryStats,
    percentile,
)

__all__ = [
    "AdmissionController",
    "BuildStats",
    "CandidateIndex",
    "DoubleBufferedEngine",
    "FaultPlan",
    "FoldInPump",
    "FaultSpec",
    "InjectedFault",
    "LadderPolicy",
    "MetricsRegistry",
    "QueryStats",
    "RUNGS",
    "Recommendation",
    "RequestContext",
    "RequestOutcome",
    "SHED_DEADLINE_EXPIRED",
    "SHED_QUEUE_FULL",
    "SHED_RUNGS_EXHAUSTED",
    "ServingEngine",
    "ShardedIndex",
    "ShardedServingEngine",
    "StalenessRecord",
    "merge_sharded_topn",
    "active_plan",
    "fault_point",
    "install",
    "parse_faults",
    "percentile",
    "uninstall",
]
