"""Flight recorder: bounded retention of *interesting* span trees.

Production tracing cannot afford to keep every request's span tree, but
the requests worth a postmortem — sheds, deadline misses, stale-cache
answers, anything a fault injection touched — are exactly the ones an
operator needs the full causal story for.  The
:class:`FlightRecorder` is a ring buffer: every finished root span is
*offered*; only trees matching the interest predicate are retained (as
frozen JSON-ready dicts), and the ring evicts oldest-first at
``capacity`` so memory stays bounded no matter how bad an incident gets.

The default predicate (:func:`default_interesting`) keys off the tags
:func:`repro.obs.tracing.stamp_outcome` and
:func:`repro.serving.faults.fault_point` write:

* the request was shed (``shed_reason`` tag present),
* the deadline was missed (``deadline_met`` is ``False``),
* the answer was stale (``stale`` is ``True``),
* any span in the tree errored or carries a ``fault.site`` tag.

Dumps (:meth:`FlightRecorder.dump` / :meth:`FlightRecorder.dump_json`)
are what the exporter serves at ``GET /flight`` — see
docs/OPERATIONS.md §9 for the reading guide.

**Thread-safety:** ``offer`` runs on whichever serving worker finishes
a root; all mutable state is lock-protected.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Callable

from repro.obs.tracing import Span
from repro.sanitizer import tsan_lock
from repro.utils.files import write_text_atomic

__all__ = [
    "FlightRecorder",
    "audit_trace",
    "default_interesting",
]


def default_interesting(root: Span) -> bool:
    """Whether a finished tree is worth retaining (see module docs)."""
    tags = root.tags
    if tags.get("shed_reason") is not None:
        return True
    if tags.get("deadline_met") is False:
        return True
    if tags.get("stale") is True:
        return True
    for node in root.walk():
        if node.status == "error" or "fault.site" in node.tags:
            return True
    return False


class FlightRecorder:
    """A bounded ring of retained span trees for postmortems.

    ``capacity`` bounds retained trees (oldest evicted first);
    ``predicate`` decides retention (default
    :func:`default_interesting`; pass ``lambda root: True`` to retain
    everything, e.g. under a test's coverage assertion).  Retained
    trees are frozen to plain dicts at offer time, so later tag writes
    by the serving path cannot tear a dump.  Thread-safe.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        predicate: Callable[[Span], bool] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.predicate = (
            predicate if predicate is not None else default_interesting
        )
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._retained: deque[dict[str, object]] = deque(maxlen=capacity)  # replint: guarded-by(_lock)
        self._n_offered = 0  # replint: guarded-by(_lock)
        self._n_retained = 0  # replint: guarded-by(_lock)

    # ------------------------------------------------------------------
    def offer(self, root: Span) -> bool:
        """Offer one finished root; retain it if interesting.

        Returns whether the tree was retained.  Called by
        :meth:`Tracer._on_finish <repro.obs.tracing.Tracer>`; safe from
        any number of serving workers.
        """
        interesting = self.predicate(root)
        frozen = root.as_dict() if interesting else None
        with self._lock:
            self._n_offered += 1
            if frozen is not None:
                self._n_retained += 1
                self._retained.append(frozen)
        return frozen is not None

    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict[str, object]]:
        """The retained trees, oldest first (a copy; thread-safe)."""
        with self._lock:
            return list(self._retained)

    def counts(self) -> dict[str, int]:
        """``{"offered", "retained", "resident", "evicted"}`` totals."""
        with self._lock:
            resident = len(self._retained)
            return {
                "offered": self._n_offered,
                "retained": self._n_retained,
                "resident": resident,
                "evicted": self._n_retained - resident,
            }

    def clear(self) -> None:
        """Drop retained trees and counters (between measurement phases)."""
        with self._lock:
            self._retained.clear()
            self._n_offered = 0
            self._n_retained = 0

    # ------------------------------------------------------------------
    def dump(self) -> dict[str, object]:
        """JSON-ready postmortem payload: counts + retained trees."""
        payload: dict[str, object] = dict(self.counts())
        payload["capacity"] = self.capacity
        payload["traces"] = self.snapshot()
        return payload

    def dump_json(self, path: str | Path) -> Path:
        """Write :meth:`dump` to ``path`` (pretty-printed); returns it.

        Renamed into place: a reader never sees a truncated dump.
        """
        return write_text_atomic(
            path, json.dumps(self.dump(), indent=2, sort_keys=True) + "\n"
        )


def audit_trace(tree: dict[str, object]) -> list[str]:
    """Structural problems in one dumped span tree (empty = complete).

    Checks the properties the acceptance tests assert about every
    shed/deadline-missed request: every span is closed, every non-root
    span is parented at its enclosing span, and an answered request
    names the rung that served it.  Operates on the frozen dict form so
    dumps can be audited long after the spans are gone.
    """
    problems: list[str] = []

    def visit(node: dict[str, object], parent_id: object) -> None:
        name = node.get("name")
        if not node.get("closed"):
            problems.append(f"span '{name}' is not closed")
        if parent_id is not None and node.get("parent_id") != parent_id:
            problems.append(
                f"span '{name}' is parented at {node.get('parent_id')}, "
                f"expected {parent_id}"
            )
        children = node.get("children")
        if isinstance(children, list):
            for child in children:
                if isinstance(child, dict):
                    visit(child, node.get("span_id"))

    visit(tree, None)
    tags = tree.get("tags")
    tags = tags if isinstance(tags, dict) else {}
    if tags.get("answered") is True and not tags.get("rung"):
        problems.append("answered request does not name its serving rung")
    if tags.get("answered") is False and not tags.get("shed_reason"):
        problems.append("shed request does not name its shed reason")
    return problems
