"""Pull-based metrics export in Prometheus text exposition format.

The serving stack already *measures* everything — per-query
:class:`~repro.serving.telemetry.QueryStats` in a ``MetricsRegistry``,
rung/shed counters, ladder estimates, store/index versions — but until
now each consumer read a different Python object.  This module
renders them all through one wire format (Prometheus text exposition,
``text/plain; version=0.0.4``) via two surfaces:

* :class:`MetricsExporter` — a background stdlib ``http.server`` thread
  serving ``GET /metrics`` (the scrape endpoint) and ``GET /flight``
  (the attached flight recorder's JSON dump, for postmortems);
* :meth:`MetricsExporter.write_textfile` — the *textfile* mode for
  batch and cron jobs (node-exporter textfile-collector style):
  render one scrape to a ``.prom`` file and exit.

:func:`parse_exposition` is a deliberately strict miniature parser for
the same format — ``tests/test_obs.py`` scrapes the live endpoint and
re-parses it, so a rendering regression fails the gate rather than a
dashboard.  All metric names are prefixed ``repro_`` and documented
in docs/OPERATIONS.md §9.

**Thread-safety:** collectors snapshot lock-protected sources
(registry/tracer/recorder) and read engine fields that are immutable
after build; the HTTP server runs scrapes on its own daemon threads.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.utils.files import write_text_atomic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracing import Tracer

__all__ = [
    "CONTENT_TYPE",
    "MetricFamily",
    "MetricsExporter",
    "Sample",
    "ScrapeResult",
    "engine_families",
    "flight_families",
    "ivf_families",
    "parse_exposition",
    "registry_families",
    "render_exposition",
    "tracer_families",
]

#: The exposition-format content type Prometheus scrapers expect.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_KINDS = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


@dataclass(slots=True)
class Sample:
    """One sample line: a label set and a float value."""

    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0


@dataclass(slots=True)
class MetricFamily:
    """One metric family: name, kind, help text, and its samples."""

    name: str
    kind: str
    help: str
    samples: list[Sample] = field(default_factory=list)

    def add(self, value: float, **labels: object) -> "MetricFamily":
        """Append a sample (labels stringified); returns ``self``."""
        self.samples.append(
            Sample(
                labels={k: str(v) for k, v in labels.items()},
                value=float(value),
            )
        )
        return self


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Render metric families as Prometheus text exposition format.

    Validates names/kinds/label names eagerly (a bad metric should fail
    the producing test, not a scraper three systems away).
    """
    lines: list[str] = []
    for fam in families:
        if not _NAME_RE.match(fam.name):
            raise ValueError(f"invalid metric name {fam.name!r}")
        if fam.kind not in _KINDS:
            raise ValueError(
                f"invalid metric kind {fam.kind!r} for {fam.name}"
            )
        lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for sample in fam.samples:
            for label in sample.labels:
                if not _LABEL_RE.match(label):
                    raise ValueError(
                        f"invalid label name {label!r} on {fam.name}"
                    )
            if sample.labels:
                body = ",".join(
                    f'{k}="{_escape_label(v)}"'
                    for k, v in sorted(sample.labels.items())
                )
                lines.append(f"{fam.name}{{{body}}} {sample.value!r}")
            else:
                lines.append(f"{fam.name} {sample.value!r}")
    return "\n".join(lines) + "\n"


@dataclass(slots=True)
class ScrapeResult:
    """A parsed exposition page.

    ``kinds`` maps metric name to its declared TYPE; ``helps`` to its
    HELP text; ``samples`` maps ``(name, ((label, value), ...))`` —
    labels sorted — to the sample value.
    """

    kinds: dict[str, str] = field(default_factory=dict)
    helps: dict[str, str] = field(default_factory=dict)
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = field(
        default_factory=dict
    )

    def value(self, name: str, **labels: object) -> float:
        """The sample value for ``name`` with exactly these labels."""
        key = (
            name,
            tuple(sorted((k, str(v)) for k, v in labels.items())),
        )
        return self.samples[key]

    def series(self, name: str) -> int:
        """How many samples (label combinations) ``name`` has."""
        return sum(1 for n, _ in self.samples if n == name)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<val>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_exposition(text: str) -> ScrapeResult:
    """Parse (and validate) a Prometheus text-format page.

    Strict on purpose — the CI smoke uses it to prove the exporter's
    output is well-formed.  Raises :class:`ValueError` with the line
    number on: malformed HELP/TYPE/sample lines, unknown metric kinds,
    samples for a metric with no preceding TYPE declaration, duplicate
    sample keys, and non-float values.
    """
    result = ScrapeResult()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                name, kind = parts[2], parts[3] if len(parts) > 3 else ""
                if not _NAME_RE.match(name):
                    raise ValueError(f"line {lineno}: bad TYPE name {name!r}")
                if kind not in _KINDS:
                    raise ValueError(f"line {lineno}: bad kind {kind!r}")
                result.kinds[name] = kind
            elif len(parts) >= 3 and parts[1] == "HELP":
                result.helps[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        if name not in result.kinds:
            raise ValueError(
                f"line {lineno}: sample for {name!r} precedes its TYPE"
            )
        labels: dict[str, str] = {}
        body = match.group("labels")
        if body:
            pos = 0
            while pos < len(body):
                pair = _LABEL_PAIR_RE.match(body, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels {body!r}"
                    )
                labels[pair.group("key")] = _unescape_label(
                    pair.group("val")
                )
                pos = pair.end()
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-float value {match.group('value')!r}"
            ) from exc
        key = (name, tuple(sorted(labels.items())))
        if key in result.samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        result.samples[key] = value
    return result


# ----------------------------------------------------------------------
# collectors
# ----------------------------------------------------------------------
def registry_families(
    registry: object, *, prefix: str = "repro"
) -> list[MetricFamily]:
    """Metric families from a :class:`~repro.serving.telemetry.MetricsRegistry`.

    Every ``counter`` family is a lifetime total from
    :meth:`~repro.serving.telemetry.MetricsRegistry.totals` (request
    counts per rung, the degradation/staleness events) or
    ``shed_counts()``; the latency quantile gauges (overall and per
    rung) cover the registry's newest window only.
    Duck-typed so shard-private registries export identically.
    """
    totals = registry.totals()  # type: ignore[attr-defined]
    rungs = registry.rung_summary()  # type: ignore[attr-defined]
    sheds = registry.shed_counts()  # type: ignore[attr-defined]
    quantiles = registry.percentiles()  # type: ignore[attr-defined]

    requests = MetricFamily(
        f"{prefix}_requests_total", "counter",
        "Answered requests by degradation rung",
    )
    for rung, count in sorted(totals["n_by_rung"].items()):
        requests.add(count, rung=rung)
    rung_latency = MetricFamily(
        f"{prefix}_request_rung_seconds", "gauge",
        "Nearest-rank latency quantiles per degradation rung, newest window",
    )
    for rung, entry in sorted(rungs.items()):
        for q in ("p50", "p95", "p99"):
            rung_latency.add(entry[q], rung=rung, quantile=q)
    shed = MetricFamily(
        f"{prefix}_shed_total", "counter",
        "Requests shed at admission or after rung exhaustion, by reason",
    )
    for reason, count in sorted(sheds.items()):
        shed.add(count, reason=reason)
    latency = MetricFamily(
        f"{prefix}_request_seconds", "gauge",
        "Nearest-rank latency quantiles over the newest window of queries",
    )
    for q, value in quantiles.items():
        latency.add(value, quantile=q)
    counters = MetricFamily(
        f"{prefix}_request_events_total", "counter",
        "Request-level event counters (cache hits: replayed from a cached "
        "answer of the served version, no pairs examined; degraded, stale, "
        "deadline-missed, examined pairs, sorted accesses)",
    )
    counters.add(totals["n_queries"], kind="recorded")
    counters.add(totals["n_cache_hits"], kind="cache_hit")
    counters.add(totals["n_degraded"], kind="degraded")
    counters.add(totals["n_stale"], kind="stale")
    counters.add(totals["n_deadline_missed"], kind="deadline_missed")
    counters.add(totals["total_n_examined"], kind="pairs_examined")
    counters.add(totals["total_sorted_accesses"], kind="sorted_accesses")
    return [requests, rung_latency, shed, latency, counters]


def engine_families(
    engine: object, *, prefix: str = "repro"
) -> list[MetricFamily]:
    """Version, staleness age, and index-size gauges for an engine.

    Works on a :class:`~repro.serving.engine.ServingEngine` over any
    index (duck-typed; an engine with ``shards`` additionally exports
    per-shard index bytes, and every engine exports its one ladder's
    per-rung estimates).  Never
    triggers a build: unbuilt engines export age ``-1`` and size ``0``.
    """
    families = [
        MetricFamily(
            f"{prefix}_index_version", "gauge",
            "Embedding version currently served",
        ).add(int(getattr(engine, "version", 0))),
        MetricFamily(
            f"{prefix}_index_bytes", "gauge",
            "Resident bytes of the built retrieval index",
        ).add(int(engine.memory_bytes())),  # type: ignore[attr-defined]
    ]
    age = MetricFamily(
        f"{prefix}_index_age_seconds", "gauge",
        "Seconds since the served index was last built or refreshed "
        "(-1 before the first build)",
    )
    families.append(age.add(float(engine.index_age_s())))  # type: ignore[attr-defined]
    shards = getattr(engine, "shards", None)
    if shards is not None:
        per_shard = MetricFamily(
            f"{prefix}_shard_index_bytes", "gauge",
            "Resident index bytes per shard",
        )
        for i, sh in enumerate(shards):
            per_shard.add(sh.memory_bytes(), shard=i)
        families.append(per_shard)
    ladder = getattr(engine, "ladder", None)
    if ladder is not None:
        estimates = MetricFamily(
            f"{prefix}_ladder_estimate_seconds", "gauge",
            "EWMA latency estimate per degradation rung",
        )
        for rung, seconds in sorted(ladder.estimates().items()):
            estimates.add(seconds, rung=rung)
        families.append(estimates)
    return families


def tracer_families(
    tracer: "Tracer", *, prefix: str = "repro"
) -> list[MetricFamily]:
    """Per-span-name count/seconds aggregates from a tracer."""
    count = MetricFamily(
        f"{prefix}_span_total", "counter",
        "Finished spans per span name",
    )
    seconds = MetricFamily(
        f"{prefix}_span_seconds_total", "counter",
        "Total seconds across finished spans per span name",
    )
    for name, entry in tracer.span_summary().items():
        count.add(entry["count"], span=name)
        seconds.add(entry["seconds_total"], span=name)
    return [count, seconds]


def flight_families(
    recorder: "FlightRecorder", *, prefix: str = "repro"
) -> list[MetricFamily]:
    """Offer/retention counters from a flight recorder."""
    fam = MetricFamily(
        f"{prefix}_flight_traces_total", "counter",
        "Span trees offered to / retained by / evicted from the flight "
        "recorder",
    )
    for kind, value in recorder.counts().items():
        if kind != "resident":
            fam.add(value, kind=kind)
    resident = MetricFamily(
        f"{prefix}_flight_resident", "gauge",
        "Span trees currently resident in the flight-recorder ring",
    ).add(recorder.counts()["resident"])
    return [fam, resident]


def ivf_families(
    index: object, *, prefix: str = "repro"
) -> list[MetricFamily]:
    """Cluster-geometry gauges for a clustered-IVF index.

    ``index`` is duck-typed on the :class:`repro.online.ivf.IVFIndex`
    surface (``n_clusters`` / ``nprobe`` / ``cluster_sizes()`` /
    ``n_candidates`` / ``memory_bytes()`` — this module never imports
    ``repro.online`` at runtime).  These are the families the nprobe
    tuning loop in docs/OPERATIONS.md reads: the configured probe width,
    the expected examined fraction it implies on a balanced clustering,
    and the imbalance ratio (max/mean cluster size) that says how far
    from balanced the k-means partition actually is.
    """
    n_clusters = int(index.n_clusters)  # type: ignore[attr-defined]
    nprobe = int(index.nprobe)  # type: ignore[attr-defined]
    sizes = index.cluster_sizes()  # type: ignore[attr-defined]
    n_pairs = int(index.n_candidates)  # type: ignore[attr-defined]
    families = [
        MetricFamily(
            f"{prefix}_ivf_clusters", "gauge",
            "Coarse k-means cells in the clustered-IVF rung",
        ).add(n_clusters),
        MetricFamily(
            f"{prefix}_ivf_nprobe_default", "gauge",
            "Cells scanned per query unless the caller overrides nprobe",
        ).add(nprobe),
        MetricFamily(
            f"{prefix}_ivf_pairs_indexed", "gauge",
            "Pairs resident in the cluster-major blocks",
        ).add(n_pairs),
        MetricFamily(
            f"{prefix}_ivf_index_bytes", "gauge",
            "Resident bytes of the IVF sibling (blocks + centroids)",
        ).add(int(index.memory_bytes())),  # type: ignore[attr-defined]
    ]
    balance = MetricFamily(
        f"{prefix}_ivf_cluster_size", "gauge",
        "Cluster-size distribution of the coarse partition (imbalance "
        "ratio = max/mean; 1.0 is perfectly balanced)",
    )
    n_nonzero = int((sizes > 0).sum()) if len(sizes) else 0
    balance.add(float(sizes.max()) if len(sizes) else 0.0, stat="max")
    mean = n_pairs / n_clusters if n_clusters else 0.0
    balance.add(mean, stat="mean")
    balance.add(
        (float(sizes.max()) / mean) if mean > 0 else 0.0, stat="imbalance"
    )
    balance.add(n_nonzero, stat="nonempty")
    families.append(balance)
    return families


def foldin_families(
    pump: object, *, prefix: str = "repro"
) -> list[MetricFamily]:
    """Streaming-ingestion staleness families from a fold-in pump.

    ``pump`` is duck-typed on ``summary()`` returning the
    :meth:`repro.serving.streaming.FoldInPump.summary` payload (this
    module never imports ``repro.serving`` at runtime).  Exports the
    zero-silent-drop ledger (arrivals offered / visible / pending /
    dropped), fold errors, published refresh count,
    overall fold-in lag percentiles, and per-version staleness for the
    recently published versions (events made visible and max lag at
    each version stamp).
    """
    summary = pump.summary()  # type: ignore[attr-defined]
    arrivals = MetricFamily(
        f"{prefix}_foldin_arrivals", "counter",
        "Post-training event arrivals by ledger state "
        "(offered = visible + pending + dropped)",
    )
    for state in ("offered", "visible", "dropped"):
        arrivals.add(int(summary[state]), state=state)
    pending = MetricFamily(
        f"{prefix}_foldin_pending", "gauge",
        "Arrivals offered but not yet visible or dropped",
    ).add(int(summary["pending"]))
    errors = MetricFamily(
        f"{prefix}_foldin_errors_total", "counter",
        "Failed fold attempts by kind (every failure is retried or "
        "explicitly dropped)",
    )
    errors.add(int(summary["errors"]), kind="all")
    swaps = MetricFamily(
        f"{prefix}_foldin_swaps_total", "counter",
        "Fold batches published to the engine (one snapshot each)",
    ).add(int(summary["batches"]))
    lag = MetricFamily(
        f"{prefix}_foldin_lag_seconds", "gauge",
        "Fold-in lag (arrival offer to published refresh), nearest-rank "
        "percentiles over recent arrivals",
    )
    percentiles = summary.get("lag_percentiles")
    if isinstance(percentiles, dict):
        for key, value in sorted(percentiles.items()):
            lag.add(float(value), quantile=key)
    families = [arrivals, pending, errors, swaps, lag]
    versions = summary.get("versions")
    if isinstance(versions, list) and versions:
        per_version_events = MetricFamily(
            f"{prefix}_foldin_version_events", "gauge",
            "Events made visible at each recently published version",
        )
        per_version_lag = MetricFamily(
            f"{prefix}_foldin_version_lag_seconds", "gauge",
            "Max fold-in lag of the batch published at each recent version",
        )
        for record in versions:
            if not isinstance(record, dict):
                continue
            per_version_events.add(
                int(record["events"]), version=record["version"]
            )
            per_version_lag.add(
                float(record["lag_max_s"]), version=record["version"]
            )
        families.extend([per_version_events, per_version_lag])
    return families


# ----------------------------------------------------------------------
# the exporter
# ----------------------------------------------------------------------
class MetricsExporter:
    """Serve (or write) one collector's families on demand.

    ``collect`` is called per scrape and returns the metric families —
    compose it from the collector helpers above.  :meth:`start` spins a
    daemon ``ThreadingHTTPServer`` on ``host:port`` (port 0 = ephemeral,
    read :attr:`url` after start); :meth:`write_textfile` is the
    serverless mode.  Usable as a context manager; thread-safe.
    """

    def __init__(
        self,
        collect: Callable[[], list[MetricFamily]],
        *,
        flight: "FlightRecorder | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.collect = collect
        self.flight = flight
        self.host = host
        self.requested_port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def scrape(self) -> str:
        """One rendered exposition page (what ``GET /metrics`` returns)."""
        return render_exposition(self.collect())

    def write_textfile(self, path: str | Path) -> Path:
        """Textfile-collector mode: replace ``path`` with one scrape.

        Written beside ``path`` and renamed over it, so a collector reads
        the previous scrape or this one, never half of either.
        """
        return write_text_atomic(path, self.scrape())

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (raises before :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("exporter is not started")
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        """The scrape URL, e.g. ``http://127.0.0.1:43210/metrics``."""
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsExporter":
        """Bind and serve on a background daemon thread; returns self."""
        if self._server is not None:
            raise RuntimeError("exporter already started")
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            """Per-connection request handler bound to this exporter."""

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path in ("/metrics", "/"):
                    try:
                        body = exporter.scrape().encode("utf-8")
                    except Exception as exc:  # pragma: no cover - defensive
                        self.send_error(500, explain=repr(exc))
                        return
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path == "/flight" and exporter.flight is not None:
                    body = json.dumps(
                        exporter.flight.dump(), indent=2, sort_keys=True
                    ).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, format: str, *args: object) -> None:
                """Silence per-request logging (scrapes are periodic)."""

        server = ThreadingHTTPServer((self.host, self.requested_port), Handler)
        server.daemon_threads = True
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._server = server
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsExporter":
        """Start on entry (if not already started); returns self."""
        if self._server is None:
            self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        """Stop on exit."""
        self.stop()
