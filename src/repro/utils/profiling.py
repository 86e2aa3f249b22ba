"""Scoped-timer/counter profiling shared by the trainer and the engine.

The offline trainer (:mod:`repro.core.trainer`) and the serving engine
(:mod:`repro.serving.engine`) both need the same thing: a per-phase
wall-clock breakdown — graph draw, edge draw, negative sampling, SGD on
one side; pair transform and index build on the other — cheap enough to
leave compiled in, and *near-zero cost when disabled* so the reference
throughput numbers are not polluted by their own instrumentation.

Usage::

    prof = Profiler(enabled=True)
    with prof.phase("edge_draw"):
        edges = table.sample(rng, size=256)
    prof.count("reject_cap_hits", 3)
    prof.as_dict()   # {"phases": {...}, "counters": {...}}
    prof.shares()    # {"edge_draw": 1.0}

Design constraints, in order:

1. **Disabled cost.**  ``Profiler(enabled=False).phase(...)`` performs
   one attribute read, one branch and returns a shared no-op context
   manager — no allocation, no clock read (``tests/test_profiling.py``
   asserts the identity; speed is the benchmark spine's to judge).
   :data:`NULL_PROFILER` is the shared disabled instance components
   default to.
2. **Mergeability.**  Hogwild workers each profile their private
   trainer and ship ``as_dict()`` payloads to the parent over a queue;
   :func:`merge_profiles` (or :meth:`Profiler.merge`) sums them so the
   speedup report carries one aggregate phase breakdown.
3. **No policy.**  The profiler records; callers decide phase names.
   The canonical trainer phase names live in
   :data:`repro.core.trainer.TRAINER_PHASES`.

Not thread-safe: one profiler per thread/process (the serving engine
only profiles under its build lock; Hogwild workers each own one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import TracebackType
from typing import Iterable, Mapping


@dataclass(slots=True)
class PhaseStat:
    """Accumulated cost of one named phase: call count and total seconds."""

    calls: int = 0
    seconds: float = 0.0


class NullContext:
    """Shared no-op context manager for disabled instrumentation.

    Returned by disabled profilers, and reusable by any component that
    wants the same "structurally free when off" shape (the tracer in
    :mod:`repro.obs.tracing` uses its own typed null objects but follows
    this exact pattern).  Even a no-op scope is still entered via
    ``with`` — replint REP011 enforces that spelling for span/phase
    factories, so disabled and enabled code paths stay structurally
    identical.
    """

    __slots__ = ()

    def __enter__(self) -> "NullContext":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


#: The shared :class:`NullContext` instance (stateless, so one suffices).
NULL_CONTEXT = NullContext()


class _Phase:
    """Context manager that records one timed interval into a profiler."""

    __slots__ = ("_stat", "_start")

    def __init__(self, stat: PhaseStat) -> None:
        self._stat = stat
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        stat = self._stat
        stat.calls += 1
        stat.seconds += time.perf_counter() - self._start
        return False


class Profiler:
    """Named scoped timers plus integer counters.

    ``enabled=False`` turns every operation into a cheap no-op (see the
    module docstring); flip at construction time, not mid-run, so a
    report never mixes instrumented and dark intervals.
    """

    __slots__ = ("enabled", "phases", "counters")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.phases: dict[str, PhaseStat] = {}
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    def phase(self, name: str) -> "_Phase | NullContext":
        """Context manager timing one occurrence of phase ``name``."""
        if not self.enabled:
            return NULL_CONTEXT
        stat = self.phases.get(name)
        if stat is None:
            stat = self.phases[name] = PhaseStat()
        return _Phase(stat)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Sum of recorded phase seconds (not wall time between phases)."""
        return sum(stat.seconds for stat in self.phases.values())

    def shares(self) -> dict[str, float]:
        """Per-phase fraction of the total recorded seconds."""
        total = self.total_seconds()
        if total <= 0.0:
            return {name: 0.0 for name in self.phases}
        return {
            name: stat.seconds / total for name, stat in self.phases.items()
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot: phases (calls/seconds/share) + counters."""
        shares = self.shares()
        return {
            "phases": {
                name: {
                    "calls": stat.calls,
                    "seconds": stat.seconds,
                    "share": shares[name],
                }
                for name, stat in self.phases.items()
            },
            "counters": dict(self.counters),
        }

    # ------------------------------------------------------------------
    def merge(self, other: "Profiler | Mapping[str, object]") -> None:
        """Fold another profiler (or an :meth:`as_dict` payload) into this
        one — used to aggregate Hogwild worker profiles."""
        if isinstance(other, Profiler):
            payload = other.as_dict()
        else:
            payload = dict(other)
        phases = payload.get("phases", {})
        if isinstance(phases, Mapping):
            for name, entry in phases.items():
                if not isinstance(entry, Mapping):
                    continue
                stat = self.phases.get(name)
                if stat is None:
                    stat = self.phases[name] = PhaseStat()
                stat.calls += int(entry.get("calls", 0))  # type: ignore[arg-type]
                stat.seconds += float(entry.get("seconds", 0.0))  # type: ignore[arg-type]
        counters = payload.get("counters", {})
        if isinstance(counters, Mapping):
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + int(value)  # type: ignore[arg-type]

    def reset(self) -> None:
        """Drop all recorded phases and counters."""
        self.phases.clear()
        self.counters.clear()


#: Shared disabled profiler; safe to share because a disabled profiler
#: never mutates its state.  Components default to it so instrumentation
#: costs ~one branch per phase unless a caller opts in.
NULL_PROFILER = Profiler(enabled=False)


def merge_profiles(payloads: Iterable[Mapping[str, object]]) -> dict[str, object]:
    """Sum several :meth:`Profiler.as_dict` payloads into one report."""
    merged = Profiler(enabled=True)
    for payload in payloads:
        merged.merge(payload)
    return merged.as_dict()
