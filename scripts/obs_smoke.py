"""CI smoke for the observability layer, end to end.

Drives a fault-injected, deadline-scoped ``recommend_many`` against a
2-shard :class:`~repro.serving.ShardedServingEngine` with tracing on,
then checks the whole obs pipeline in one pass:

1. **Trace completeness** — every request root in the flight recorder's
   offer stream is closed, correctly parented, and names the rung (or
   shed reason) that consumed its budget; the rung that answered carries
   one ``shard`` child span per leg (``request -> rung.<name> ->
   shard[i]``), unless the root is tagged as a cache replay (an exact
   answer-cache hit or a stale answer, legitimately zero fan-out).
2. **Exporter** — a background :class:`~repro.obs.MetricsExporter` is
   started, scraped over real HTTP, and the response is validated with
   the strict Prometheus text-format parser (``parse_exposition``),
   including the content type and a handful of must-exist series.
3. **Artifacts** — writes ``BENCH_obs_smoke.json`` (summary + scrape
   digest) and ``FLIGHT_obs_smoke.json`` (the flight-recorder dump CI
   uploads for postmortem inspection).

Exit status is non-zero on any failed check; every failure is printed.
"""

from __future__ import annotations

import json
import sys
import urllib.request
from pathlib import Path

import numpy as np

from repro.obs import (
    CONTENT_TYPE,
    FlightRecorder,
    MetricsExporter,
    Tracer,
    audit_trace,
    engine_families,
    flight_families,
    parse_exposition,
    registry_families,
    tracer_families,
)
from repro.serving import ShardedServingEngine, install, parse_faults, uninstall

N_SHARDS = 2
N_REQUESTS = 48
BUDGET_S = 0.08
FAULTS = "backend.query:delay=0.02;backend.pruned:error=0.3"


def main() -> int:
    failures: list[str] = []
    rng = np.random.default_rng(11)
    user_vectors = np.abs(rng.normal(size=(64, 8)))
    event_vectors = np.abs(rng.normal(size=(128, 8)))

    flight = FlightRecorder(capacity=256, predicate=lambda root: True)
    tracer = Tracer(recorder=flight)
    install(parse_faults(FAULTS))
    try:
        with ShardedServingEngine(
            user_vectors,
            event_vectors,
            np.arange(128, dtype=np.int64),
            n_shards=N_SHARDS,
            tracer=tracer,
        ) as fleet:
            users = rng.integers(0, 64, size=N_REQUESTS)
            outcomes = fleet.recommend_many(
                users, n=5, budget_s=BUDGET_S, workers=6, queue_depth=12
            )

            # -- 1. trace completeness -------------------------------
            if len(outcomes) != N_REQUESTS:
                failures.append(
                    f"{len(outcomes)} outcomes for {N_REQUESTS} requests"
                )
            traces = [
                t for t in flight.snapshot() if t.get("name") == "request"
            ]
            if len(traces) != N_REQUESTS:
                failures.append(
                    f"flight recorder holds {len(traces)} request trees "
                    f"for {N_REQUESTS} requests"
                )
            n_shed = sum(1 for o in outcomes if not o.answered)
            n_missed = sum(
                1
                for o in outcomes
                if o.answered and o.stats is not None and not o.stats.deadline_met
            )
            for tree in traces:
                problems = audit_trace(tree)
                if problems:
                    failures.append(
                        f"trace {tree.get('trace_id')}: " + "; ".join(problems)
                    )
                    continue
                tags = tree.get("tags", {})
                if tags.get("answered") is True:
                    # request -> rung.<name> -> shard[i]: the legs of
                    # the rung that answered.
                    shards = sorted(
                        leg["tags"]["shard"]
                        for rung in tree.get("children", [])
                        if rung.get("name") == f"rung.{tags.get('rung')}"
                        for leg in rung.get("children", [])
                        if leg.get("name") == "shard"
                    )
                    if shards == [] and tags.get("cache_hit") is True:
                        # Served above the fan-out — legitimately zero
                        # legs: a stale replay, or a version-keyed
                        # answer-cache hit (exact by construction).
                        if (
                            tags.get("rung") != "stale_cache"
                            and tags.get("exact") is not True
                        ):
                            failures.append(
                                f"trace {tree.get('trace_id')} answer-cache "
                                "hit not tagged exact"
                            )
                    elif shards != list(range(N_SHARDS)):
                        failures.append(
                            f"trace {tree.get('trace_id')} answered from "
                            f"shards {shards}, expected full fan-out "
                            "(and not a cache replay)"
                        )

            # -- 2. exporter over real HTTP --------------------------
            def collect():
                return (
                    registry_families(fleet.metrics)
                    + engine_families(fleet)
                    + tracer_families(tracer)
                    + flight_families(flight)
                )

            with MetricsExporter(collect, flight=flight) as exporter:
                with urllib.request.urlopen(exporter.url, timeout=10) as resp:
                    content_type = resp.headers["Content-Type"]
                    body = resp.read().decode("utf-8")
                if content_type != CONTENT_TYPE:
                    failures.append(
                        f"content type {content_type!r} != {CONTENT_TYPE!r}"
                    )
                try:
                    scrape = parse_exposition(body)
                except ValueError as exc:
                    failures.append(f"scrape failed strict parsing: {exc}")
                    scrape = None
                if scrape is not None:
                    for required in (
                        "repro_requests_total",
                        "repro_shed_total",
                        "repro_index_age_seconds",
                        "repro_span_total",
                        "repro_flight_resident",
                    ):
                        if required not in scrape.kinds:
                            failures.append(
                                f"scrape is missing metric {required}"
                            )
                    recorded = sum(
                        value
                        for (name, labels), value in scrape.samples.items()
                        if name == "repro_span_total"
                        and dict(labels).get("span") == "request"
                    )
                    if recorded != float(N_REQUESTS):
                        failures.append(
                            f"repro_span_total{{span=request}} = {recorded}, "
                            f"expected {N_REQUESTS}"
                        )

            # -- 3. artifacts ----------------------------------------
            flight_path = Path("FLIGHT_obs_smoke.json")
            flight.dump_json(flight_path)
            report = {
                "bench": "obs_smoke",
                "requests": N_REQUESTS,
                "shards": N_SHARDS,
                "budget_s": BUDGET_S,
                "faults": FAULTS,
                "answered": len(outcomes) - n_shed,
                "shed": n_shed,
                "deadline_missed": n_missed,
                "flight": flight.counts(),
                "span_summary": tracer.span_summary(),
                "scrape_series": (
                    {name: scrape.series(name) for name in sorted(scrape.kinds)}
                    if scrape is not None
                    else None
                ),
                "failures": failures,
            }
            Path("BENCH_obs_smoke.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(
                f"obs_smoke: {N_REQUESTS} traced requests over "
                f"{N_SHARDS} shards under faults [{FAULTS}]: "
                f"answered {report['answered']}, shed {n_shed}, "
                f"deadline missed {n_missed}; flight {flight.counts()}; "
                f"scrape ok={scrape is not None}"
            )
            print(f"  wrote BENCH_obs_smoke.json and {flight_path}")
    finally:
        uninstall()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
