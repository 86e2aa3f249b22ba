"""Fault injection at serving backend boundaries (``REPRO_FAULTS``-gated).

The degradation ladder and the load shedder only matter when backends
misbehave — and backends on a developer laptop never do.  This module
makes overload *reproducible*: named fault points sit at the engine's
backend boundaries, and an installed :class:`FaultPlan` injects latency
stalls and/or errors at chosen sites with a seeded RNG, so the ladder
and conformance tests can drive the exact scenarios the operator's
manual describes (slow index, flaky index, both).

Mirroring the ``REPRO_CONTRACTS`` pattern of :mod:`repro.contracts`, the
gate costs nothing when off: :func:`fault_point` checks one module-level
reference and returns.  No plan installed (the production default) means
no sleeps, no RNG draws, no exceptions.

Enabling
--------
* **Environment** — set ``REPRO_FAULTS`` before import, e.g.::

      REPRO_FAULTS="backend.query:delay=0.05;backend.ivf:error=0.2"

  Sites are ``;``-separated; each site takes ``,``-separated
  ``delay=<seconds>`` and/or ``error=<probability>`` actions.  A global
  ``seed=<int>`` entry seeds the error-draw RNG (default 0).
* **Programmatic** — ``install(parse_faults(...))`` / ``uninstall()``,
  which is what the tests use.

Sites instrumented by the engine: ``backend.build`` (index build),
``backend.query`` (primary-backend single query — the ladder's ``full``
rung), ``backend.ivf`` (the ``ivf`` rung's sibling index) and
``backend.truncated`` (the truncated brute-force rung).

**Thread-safety:** :func:`fault_point` may be called from any number of
serving workers; error draws are serialised on an internal lock.
:func:`install`/:func:`uninstall` swap one reference atomically and may
race with in-flight queries harmlessly (a query observes either the old
or the new plan).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.sanitizer import tsan_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.tracing import Span

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "fault_point",
    "install",
    "parse_faults",
    "uninstall",
]


class InjectedFault(RuntimeError):
    """An error deliberately raised by an installed :class:`FaultPlan`.

    Raised from :func:`fault_point`; the serving engine treats it (like
    any backend ``RuntimeError``) as "this rung failed" and steps down
    the degradation ladder.
    """


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Injection behaviour for one named site.

    ``delay_s`` seconds of stall are applied on every pass through the
    site; ``error_rate`` is the per-call probability of raising
    :class:`InjectedFault` (drawn after the stall, so a slow *and* flaky
    site stalls even when it then fails).
    """

    site: str
    delay_s: float = 0.0
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(
                f"error_rate must be in [0, 1], got {self.error_rate}"
            )


class FaultPlan:
    """A set of :class:`FaultSpec` entries plus a seeded error RNG.

    Error draws are serialised on an internal lock, so one plan may be
    shared by every serving worker; with a fixed ``seed`` the *sequence*
    of error decisions is deterministic (their assignment to threads
    follows arrival order).  ``sleep`` is how a ``delay_s`` stall is
    spent: really, by default; a test passes a callable that *advances*
    the fake clock its :class:`~repro.serving.lifecycle.RequestContext`
    reads, so an injected stall costs budget without costing time.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec],
        seed: int = 0,
        *,
        sleep: Callable[[float], object] = time.sleep,
    ) -> None:
        self.sleep = sleep
        self._specs: dict[str, FaultSpec] = {}
        # replint: allow-loop(plan construction, a handful of sites)
        for spec in specs:
            if spec.site in self._specs:
                raise ValueError(f"duplicate fault site {spec.site!r}")
            self._specs[spec.site] = spec
        self._rng = np.random.default_rng(seed)  # replint: guarded-by(_lock)
        self._lock = tsan_lock(threading.Lock(), "_lock")

    @property
    def sites(self) -> tuple[str, ...]:
        """The instrumented site names, sorted."""
        return tuple(sorted(self._specs))

    def spec(self, site: str) -> FaultSpec | None:
        """The spec for ``site``, or ``None`` if the site is clean."""
        return self._specs.get(site)

    def should_error(self, spec: FaultSpec) -> bool:
        """Draw the error decision for one pass through ``spec``'s site."""
        if spec.error_rate <= 0.0:
            return False
        with self._lock:
            return bool(self._rng.random() < spec.error_rate)


#: The installed plan; ``None`` (production default) short-circuits
#: :func:`fault_point` to a single attribute load.
_PLAN: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` for every subsequent :func:`fault_point` call."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    """Deactivate fault injection (restores the zero-cost fast path)."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _PLAN


def fault_point(site: str, *, span: "Span | None" = None) -> None:
    """Apply the installed plan's behaviour for ``site``, if any.

    The serving engine calls this at each backend boundary.  With no
    plan installed this is one module-attribute load and a ``return`` —
    safe to keep on the hot path.  With a plan: spends ``delay_s`` through
    :attr:`FaultPlan.sleep`, then raises :class:`InjectedFault` with
    probability ``error_rate``.

    When the caller passes the enclosing trace ``span``, any injection
    stamps it — ``fault.site`` plus ``fault.delay_s``/``fault.error`` —
    so a flight-recorder dump names the exact boundary that consumed the
    budget (the default-interest predicate retains fault-stamped trees).
    """
    plan = _PLAN
    if plan is None:
        return
    spec = plan.spec(site)
    if spec is None:
        return
    if spec.delay_s > 0.0:
        plan.sleep(spec.delay_s)
        if span is not None:
            span.tag(**{"fault.site": site, "fault.delay_s": spec.delay_s})
    if plan.should_error(spec):
        if span is not None:
            span.tag(**{"fault.site": site, "fault.error": True})
        raise InjectedFault(f"injected fault at {site!r}")


def parse_faults(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` mini-language into a :class:`FaultPlan`.

    Grammar (whitespace-tolerant)::

        plan   := entry (";" entry)*
        entry  := "seed=" INT
                | SITE ":" action ("," action)*
        action := "delay=" FLOAT-SECONDS | "error=" PROBABILITY

    Example: ``"backend.query:delay=0.05,error=0.1;seed=7"``.
    """
    specs: list[FaultSpec] = []
    seed = 0
    # replint: allow-loop(config parsing at install time, not per query)
    for raw_entry in text.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            seed = int(entry[len("seed="):])
            continue
        site, sep, actions = entry.partition(":")
        site = site.strip()
        if not sep or not site:
            raise ValueError(
                f"malformed REPRO_FAULTS entry {entry!r}: expected "
                "'site:action,...' or 'seed=N'"
            )
        delay_s = 0.0
        error_rate = 0.0
        # replint: allow-loop(config parsing at install time, not per query)
        for raw_action in actions.split(","):
            action = raw_action.strip()
            key, sep, value = action.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed fault action {action!r} at site {site!r}"
                )
            if key == "delay":
                delay_s = float(value)
            elif key == "error":
                error_rate = float(value)
            else:
                raise ValueError(
                    f"unknown fault action {key!r} at site {site!r} "
                    "(expected 'delay' or 'error')"
                )
        specs.append(
            FaultSpec(site=site, delay_s=delay_s, error_rate=error_rate)
        )
    return FaultPlan(specs, seed=seed)


# Environment gate, mirroring REPRO_CONTRACTS: a plan named in the
# environment at import time is installed immediately, so external
# drivers (an operator's game-day drill) need no code changes to inject
# faults.
_ENV_PLAN = os.environ.get("REPRO_FAULTS", "").strip()
if _ENV_PLAN:
    install(parse_faults(_ENV_PLAN))
