"""Request lifecycle for deadline-aware serving: budgets, ladder, shedding.

The ROADMAP's target is a service answering heavy traffic, and the
paper's whole Section IV (the 2K+1 transform, pruning, TA) exists to
bound *online* latency — so overload behaviour must be engineered, not
emergent.  This module gives every query an explicit lifecycle:

1. **Admission** — a bounded-queue :class:`AdmissionController` either
   admits a request (its deadline budget starts draining immediately,
   queue wait included) or sheds it with an explicit reason.  Nothing is
   ever dropped silently: every request ends as exactly one
   :class:`RequestOutcome`, and sheds increment a named counter in the
   :class:`~repro.serving.telemetry.MetricsRegistry`.
2. **Rung selection** — a :class:`LadderPolicy` plans the walk: the
   rungs of the **degradation ladder** to try, starting at the highest
   one whose predicted latency fits the remaining budget::

       full  ->  ivf  ->  truncated  ->  stale_cache

   ``full`` is the engine's primary index at full fidelity (GEM-BF by
   default, or GEM-TA — the paper's two exact methods; pruned to Fig 7's
   per-partner top-k when ``top_k_events`` is set); ``ivf`` scans only
   the ``nprobe`` nearest coarse clusters of a clustered inverted-file
   sibling (:mod:`repro.online.ivf`) — the one rung whose cost is
   governed by a recall knob instead of the candidate count;
   ``truncated`` brute-forces a budget-sized prefix of the candidate
   matrix; ``stale_cache`` replays the last good answer for the user,
   possibly from an older embedding version.  Which rung answered is
   recorded in :class:`~repro.serving.telemetry.QueryStats`.
3. **Step-down** — a rung that fails (e.g. an injected backend error,
   see :mod:`repro.serving.faults`) or overruns its slice falls through
   to the next rung down; ``stale_cache`` is terminal — a miss there is
   a shed, and the policy names it (:meth:`LadderPolicy.shed_reason`):
   :data:`SHED_RUNGS_EXHAUSTED` when budget was left (every rung
   failed), :data:`SHED_DEADLINE_EXPIRED` otherwise.

Prediction uses per-rung log-space EWMA latency estimates with a safety
factor, so the policy routes traffic around a rung that stays slow
instead of burning every request's budget rediscovering it.

**Thread-safety:** :class:`RequestContext` instances are confined to one
request.  :class:`LadderPolicy` and :class:`AdmissionController` are
shared across workers and protect their mutable state with locks.  See
DESIGN.md §8 for the full semantics and docs/OPERATIONS.md for tuning.
"""

from __future__ import annotations

import threading
import time

from repro.sanitizer import tsan_lock
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.tracing import Span
    from repro.serving.engine import Recommendation
    from repro.serving.telemetry import MetricsRegistry, QueryStats

__all__ = [
    "AdmissionController",
    "LadderPolicy",
    "RequestContext",
    "RequestOutcome",
    "RUNGS",
    "SHED_DEADLINE_EXPIRED",
    "SHED_QUEUE_FULL",
    "SHED_RUNGS_EXHAUSTED",
]

#: The degradation ladder, best rung first.  ``full`` = the engine's
#: primary index (GEM-BF by default), the paper-exact answer;
#: ``ivf`` = the clustered inverted-file sibling, approximate but
#: recall-bounded via its ``nprobe`` knob (see :mod:`repro.online.ivf`).
RUNGS: tuple[str, ...] = ("full", "ivf", "truncated", "stale_cache")

#: Floor of every reading :meth:`LadderPolicy.observe` folds in: in log
#: space a 0 s (fake-clock) reading would pin a rung's estimate at 0.
_MIN_READING_S = 1e-6

#: Shed reason: the bounded admission queue was at capacity.
SHED_QUEUE_FULL = "queue_full"
#: Shed reason: the deadline expired and no stale answer existed.
SHED_DEADLINE_EXPIRED = "deadline_expired"
#: Shed reason: every rung failed with budget left, no stale answer existed.
SHED_RUNGS_EXHAUSTED = "rungs_exhausted"


class RequestContext:
    """Per-request deadline budget, measured on the monotonic clock.

    Created at *admission* (arrival), so queue wait drains the budget —
    a request that waited 40 ms of a 50 ms budget has 10 ms left for
    retrieval, which is exactly the situation the degradation ladder is
    for.  Not thread-safe and never shared: each request owns one
    context, handed from the admission queue to the worker serving it.

    ``span`` is the explicit trace-propagation slot: the submitter parks
    the request's root :class:`~repro.obs.tracing.Span` here and the
    worker that serves the context picks it up — this is how a span tree
    crosses the ``recommend_many`` worker pool without thread-local
    state.  ``None`` (the default) means untraced.

    ``clock`` is the request's only source of time (seconds, monotonic):
    the budget starts draining at construction, and the engine times
    rungs as differences of it, never reading the wall clock itself — so
    a test drives the whole ladder on a fake clock that an injected
    fault's ``sleep`` advances (:class:`~repro.serving.faults.FaultPlan`).
    """

    __slots__ = ("budget_s", "clock", "start", "span", "queue_wait_s")

    def __init__(
        self, budget_s: float, *, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        if budget_s <= 0.0:
            raise ValueError(f"budget_s must be > 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self.clock = clock
        self.start = clock()
        self.span: "Span | None" = None
        #: Seconds spent queued before a worker started serving.
        self.queue_wait_s = 0.0

    def elapsed(self) -> float:
        """Seconds since admission."""
        return self.clock() - self.start

    def remaining(self) -> float:
        """Budget seconds left (negative once the deadline has passed)."""
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.remaining() <= 0.0

    def mark_dequeued(self) -> float:
        """Record that a worker picked the request up; returns the wait.

        Called once by the serving worker; the wait is surfaced as
        ``QueryStats.queue_wait_s``.
        """
        self.queue_wait_s = self.elapsed()
        return self.queue_wait_s


class LadderPolicy:
    """What is policy about a ladder walk: where it starts, how it ends.

    ``plan`` returns the rungs to try, in order — the available rungs
    from the highest one whose latency estimate times ``safety`` fits
    the remaining budget; unknown rungs (no observation yet) are
    optimistically estimated at 0 so they get tried once and learned.
    ``observe`` folds a measured rung latency into a log-space EWMA,
    ``seconds**alpha * prior**(1 - alpha)`` (``alpha`` = weight of the
    newest sample): one outlier moves the estimate by a bounded factor,
    so a single 30 ms stall lifts a 0.5 ms rung to ≈ 1.7 ms, not the
    9.35 ms an arithmetic mean says — which would lock it out of a 10 ms
    budget for good, as an unplanned rung is never re-measured
    (DESIGN.md §8).  ``shed_reason`` names the shed of a walk that found
    no answer.  All methods are thread-safe.
    """

    def __init__(self, *, safety: float = 1.5, alpha: float = 0.3) -> None:
        if safety < 1.0:
            raise ValueError(f"safety must be >= 1, got {safety}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.safety = float(safety)
        self.alpha = float(alpha)
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._estimate_s: dict[str, float] = {}  # replint: guarded-by(_lock)

    def estimate(self, rung: str) -> float:
        """The current latency estimate for ``rung`` (0.0 = unobserved)."""
        with self._lock:
            return self._estimate_s.get(rung, 0.0)

    def estimates(self) -> dict[str, float]:
        """Snapshot of all rung latency estimates (seconds)."""
        with self._lock:
            return dict(self._estimate_s)

    def observe(self, rung: str, seconds: float) -> None:
        """Fold one measured rung latency into its geometric EWMA estimate."""
        reading = max(float(seconds), _MIN_READING_S)
        with self._lock:
            prior = self._estimate_s.get(rung)
            self._estimate_s[rung] = reading if prior is None else (
                reading**self.alpha * prior ** (1.0 - self.alpha)
            )

    def plan(
        self, remaining_s: float, available: tuple[str, ...]
    ) -> tuple[str, ...]:
        """The rungs a walk with ``remaining_s`` left should try, in order.

        ``available`` is what the index can scan right now, best first
        (a cold ``ivf`` sibling is simply absent).  The walk
        starts at the highest rung predicted to fit and steps down
        through the rest on failure or overrun; ``()`` — nothing fits, or
        no budget is left — sends it straight to the terminal
        ``stale_cache`` rung, which is the engine's and costs a
        dictionary lookup.
        """
        if remaining_s > 0.0:
            with self._lock:
                # replint: allow-loop(<= 3 index rungs, not candidates)
                for i, rung in enumerate(available):
                    estimate = self._estimate_s.get(rung, 0.0)
                    if estimate * self.safety <= remaining_s:
                        return available[i:]
        return ()

    def select(
        self, remaining_s: float, *, available: tuple[str, ...] = RUNGS
    ) -> str:
        """The rung :meth:`plan` starts at (``stale_cache`` when none fits;
        never observed, it "fits" any budget that is left)."""
        plan = self.plan(remaining_s, available)
        return plan[0] if plan else "stale_cache"

    def shed_reason(self, remaining_s: float) -> str:
        """Why a walk that found no answer ended: with budget left every
        rung failed, with none left the deadline did the shedding."""
        return SHED_RUNGS_EXHAUSTED if remaining_s > 0.0 else SHED_DEADLINE_EXPIRED


@dataclass(slots=True)
class RequestOutcome:
    """The single, explicit result of one lifecycle-managed request.

    Exactly one of two shapes: **answered** (``answered=True``,
    ``recommendations`` filled, ``stats`` carrying the rung that served
    it) or **shed** (``answered=False``, ``shed_reason`` set).  The
    "zero silent drops" property of ``recommend_many`` is: one outcome
    per submitted request, always.
    """

    user: int
    n: int
    answered: bool
    recommendations: list["Recommendation"] = field(default_factory=list)
    stats: "QueryStats | None" = None
    shed_reason: str | None = None

    @property
    def rung(self) -> str | None:
        """The degradation rung that answered (``None`` when shed)."""
        return self.stats.rung if self.stats is not None else None


class AdmissionController:
    """Bounded-capacity admission with reject-with-reason semantics.

    ``capacity`` bounds the number of requests admitted but not yet
    finished (queued + in service).  ``try_admit`` never blocks: at
    capacity it returns ``False`` and the caller sheds the request with
    :data:`SHED_QUEUE_FULL` — backpressure is explicit, not an unbounded
    queue silently growing.  Thread-safe; a shared
    :class:`~repro.serving.telemetry.MetricsRegistry` may be attached so
    sheds are counted centrally.
    """

    def __init__(
        self,
        capacity: int,
        *,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.metrics = metrics
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._pending = 0  # replint: guarded-by(_lock)

    @property
    def pending(self) -> int:
        """Requests currently admitted but not yet released."""
        with self._lock:
            return self._pending

    def try_admit(self) -> bool:
        """Admit one request, or refuse without blocking.

        A refusal is counted in the attached metrics registry (when
        there is one) under :data:`SHED_QUEUE_FULL`.
        """
        with self._lock:
            admitted = self._pending < self.capacity
            if admitted:
                self._pending += 1
        if not admitted and self.metrics is not None:
            self.metrics.record_shed(SHED_QUEUE_FULL)
        return admitted

    def release(self) -> None:
        """Mark one admitted request finished (answered *or* failed)."""
        with self._lock:
            if self._pending <= 0:
                raise RuntimeError("release() without a matching admit")
            self._pending -= 1
