"""Unified observability layer: tracing, flight recorder, metrics export.

Three pieces, all stdlib-only and structurally free when disabled:

* :mod:`repro.obs.tracing` — per-request spans with explicit context
  propagation across the serving thread pools;
* :mod:`repro.obs.flight` — a bounded ring buffer retaining full span
  trees for *interesting* requests (sheds, deadline misses, stale
  answers, fault-injected paths);
* :mod:`repro.obs.exporter` — Prometheus text-format rendering of the
  serving ``MetricsRegistry``, index version / staleness age, and
  rung/shed counters, over HTTP or as a textfile.

This package deliberately never imports :mod:`repro.serving` at
runtime — collectors are duck-typed — so the serving layer can depend
on it without a cycle.
"""

from repro.obs.exporter import (
    CONTENT_TYPE,
    MetricFamily,
    MetricsExporter,
    Sample,
    ScrapeResult,
    engine_families,
    flight_families,
    foldin_families,
    ivf_families,
    parse_exposition,
    registry_families,
    render_exposition,
    tracer_families,
)
from repro.obs.flight import FlightRecorder, audit_trace, default_interesting
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    stamp_outcome,
)

__all__ = [
    "CONTENT_TYPE",
    "FlightRecorder",
    "MetricFamily",
    "MetricsExporter",
    "NULL_SPAN",
    "NULL_TRACER",
    "Sample",
    "ScrapeResult",
    "Span",
    "Tracer",
    "audit_trace",
    "default_interesting",
    "engine_families",
    "flight_families",
    "foldin_families",
    "ivf_families",
    "parse_exposition",
    "registry_families",
    "render_exposition",
    "stamp_outcome",
    "tracer_families",
]
