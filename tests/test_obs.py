"""The observability layer: tracing, flight recorder, metrics exporter.

Covers the span tree lifecycle (inline ``with`` scopes and the explicit
cross-thread ``request``/``finish`` spelling), the structural
zero-cost-when-disabled guarantees, flight-recorder retention and
auditing, the Prometheus text-format render/parse round trip, the HTTP
exporter, and the acceptance scenario: threaded ``recommend_many``
under injected faults where every request's span tree must be closed,
parented, and name the rung (and shard) that consumed the budget.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import (
    CONTENT_TYPE,
    FlightRecorder,
    MetricFamily,
    MetricsExporter,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    audit_trace,
    default_interesting,
    engine_families,
    flight_families,
    ivf_families,
    parse_exposition,
    registry_families,
    render_exposition,
    stamp_outcome,
    tracer_families,
)
from repro.serving import (
    MetricsRegistry,
    RequestOutcome,
    ServingEngine,
    ShardedServingEngine,
)
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall
from repro.serving.lifecycle import RequestContext
from repro.serving.telemetry import QueryStats


@pytest.fixture(autouse=True)
def clean_faults():
    uninstall()
    yield
    uninstall()


@pytest.fixture
def model():
    rng = np.random.default_rng(42)
    user_vectors = np.abs(rng.normal(size=(40, 8)))
    event_vectors = np.abs(rng.normal(size=(90, 8)))
    return user_vectors, event_vectors


def make_engine(model, **kwargs):
    user_vectors, event_vectors = model
    kwargs.setdefault("backend", "ta")
    return ServingEngine(
        user_vectors,
        event_vectors,
        np.arange(event_vectors.shape[0], dtype=np.int64),
        **kwargs,
    )


def answered_stats(**overrides):
    base = dict(
        user=3,
        n=5,
        backend="ta",
        version=2,
        n_candidates=90,
        n_examined=40,
        n_sorted_accesses=40,
        fraction_examined=40 / 90,
        seconds_total=0.001,
        rung="pruned",
        deadline_met=True,
        deadline_remaining_s=0.01,
        queue_wait_s=0.002,
        cache_hit=False,
        exact=False,
        stale=False,
    )
    base.update(overrides)
    return QueryStats(**base)


# ----------------------------------------------------------------------
# Span
# ----------------------------------------------------------------------
class TestSpan:
    def test_with_scope_closes_and_times(self):
        tracer = Tracer()
        with tracer.start("request", user=1) as root:
            assert root.recording
            assert not root.closed
        assert root.closed
        assert root.duration_s >= 0.0
        assert root.tags == {"user": 1}

    def test_children_are_parented_and_share_trace_id(self):
        tracer = Tracer()
        with tracer.start("request") as root:
            with root.child("rung.full", rung="full") as rung:
                with rung.child("shard", shard=0):
                    pass
        names = [s.name for s in root.walk()]
        assert names == ["request", "rung.full", "shard"]
        for node in root.walk():
            assert node.trace_id == root.trace_id
            assert node.closed
        assert root.children[0].parent_id == root.span_id

    def test_annotate_backdates_a_finished_child(self):
        tracer = Tracer()
        root = tracer.request("request")
        root.annotate("queue.wait", 0.25, source="test")
        root.finish()
        (wait,) = root.children
        assert wait.closed
        assert wait.duration_s == pytest.approx(0.25, abs=1e-6)
        assert wait.tags == {"source": "test"}

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        root = tracer.request("request")
        root.finish()
        first = root.ended_s
        root.finish()
        assert root.ended_s == first
        assert len(tracer.finished()) == 0  # keep_last defaults to 0
        assert tracer.span_summary()["request"]["count"] == 1.0

    def test_exception_marks_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.start("request") as root:
                raise RuntimeError("boom")
        assert root.closed
        assert root.status == "error"
        assert "boom" in (root.error or "")

    def test_as_dict_uses_root_relative_offsets(self):
        tracer = Tracer()
        with tracer.start("request") as root:
            with root.child("rung.full"):
                pass
        tree = root.as_dict()
        assert tree["start_s"] == 0.0
        assert tree["closed"] is True
        (child,) = tree["children"]
        assert child["start_s"] >= 0.0
        assert child["parent_id"] == tree["span_id"]


# ----------------------------------------------------------------------
# The disabled path is structurally free
# ----------------------------------------------------------------------
class TestNullPath:
    def test_disabled_tracer_hands_out_the_singleton(self):
        assert NULL_TRACER.start("x") is NULL_SPAN
        assert NULL_TRACER.request("x") is NULL_SPAN

    def test_null_span_operations_return_the_singleton(self):
        assert NULL_SPAN.child("x") is NULL_SPAN
        assert NULL_SPAN.tag(a=1) is NULL_SPAN
        assert NULL_SPAN.annotate("x", 1.0) is NULL_SPAN
        assert list(NULL_SPAN.walk()) == []
        assert NULL_SPAN.as_dict() == {}
        assert not NULL_SPAN.recording
        assert NULL_SPAN.closed
        assert NULL_SPAN.duration_s == 0.0
        NULL_SPAN.finish()  # no-op, never raises

    def test_engines_default_to_the_null_tracer(self, model):
        engine = make_engine(model)
        assert engine.tracer is NULL_TRACER
        engine.recommend_batch([0], n=3)  # instrumented path still works

    def test_stamp_outcome_short_circuits_on_null_span(self):
        outcome = RequestOutcome(user=1, n=2, answered=False, shed_reason="queue_full")
        stamp_outcome(NULL_SPAN, outcome)  # must not mutate the singleton
        assert NULL_SPAN.as_dict() == {}


# ----------------------------------------------------------------------
# Tracer aggregation
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_summary_aggregates_across_trees(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.start("request") as root:
                with root.child("rung.full"):
                    pass
        summary = tracer.span_summary()
        assert summary["request"]["count"] == 3.0
        assert summary["rung.full"]["count"] == 3.0
        assert summary["request"]["seconds_total"] >= 0.0
        assert summary["request"]["seconds_mean"] == pytest.approx(
            summary["request"]["seconds_total"] / 3.0
        )

    def test_keep_last_ring_retains_newest(self):
        tracer = Tracer(keep_last=2)
        roots = []
        for i in range(4):
            with tracer.start("request", i=i) as root:
                roots.append(root)
        assert tracer.finished() == roots[-2:]

    def test_reset_clears_aggregates(self):
        tracer = Tracer(keep_last=4)
        with tracer.start("request"):
            pass
        tracer.reset()
        assert tracer.finished() == []
        assert tracer.span_summary() == {}

    def test_negative_keep_last_rejected(self):
        with pytest.raises(ValueError, match="keep_last"):
            Tracer(keep_last=-1)

    def test_finished_roots_are_offered_to_the_recorder(self):
        recorder = FlightRecorder(capacity=4, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        with tracer.start("request"):
            pass
        assert recorder.counts()["offered"] == 1
        assert recorder.counts()["retained"] == 1


# ----------------------------------------------------------------------
# stamp_outcome
# ----------------------------------------------------------------------
class TestStampOutcome:
    def test_answered_outcome_stamps_rung_and_latency_tags(self):
        tracer = Tracer()
        stats = answered_stats()
        outcome = RequestOutcome(user=3, n=5, answered=True, stats=stats)
        with tracer.start("request") as root:
            stamp_outcome(root, outcome)
        assert root.tags["answered"] is True
        assert root.tags["rung"] == "pruned"
        assert root.tags["deadline_met"] is True
        assert root.tags["queue_wait_s"] == stats.queue_wait_s
        assert "shed_reason" not in root.tags

    def test_shed_outcome_stamps_the_reason(self):
        tracer = Tracer()
        outcome = RequestOutcome(
            user=3, n=5, answered=False, shed_reason="queue_full"
        )
        with tracer.start("request") as root:
            stamp_outcome(root, outcome)
        assert root.tags["answered"] is False
        assert root.tags["shed_reason"] == "queue_full"


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def _finished_root(self, tracer, **tags):
        with tracer.start("request", **tags) as root:
            pass
        return root

    def test_default_predicate_keys_off_outcome_tags(self):
        tracer = Tracer()
        boring = self._finished_root(tracer)
        assert not default_interesting(boring)
        assert default_interesting(self._finished_root(tracer, shed_reason="queue_full"))
        assert default_interesting(self._finished_root(tracer, deadline_met=False))
        assert default_interesting(self._finished_root(tracer, stale=True))

    def test_default_predicate_sees_fault_and_error_descendants(self):
        tracer = Tracer()
        with tracer.start("request") as root:
            with root.child("rung.full") as rung:
                rung.tag(**{"fault.site": "backend.query"})
        assert default_interesting(root)
        with tracer.start("request") as root2:
            with root2.child("rung.full") as rung2:
                rung2.status = "error"
        assert default_interesting(root2)

    def test_ring_evicts_oldest_and_counts(self):
        recorder = FlightRecorder(capacity=2, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        for i in range(5):
            self._finished_root(tracer, i=i)
        counts = recorder.counts()
        assert counts == {
            "offered": 5,
            "retained": 5,
            "resident": 2,
            "evicted": 3,
        }
        kept = [t["tags"]["i"] for t in recorder.snapshot()]
        assert kept == [3, 4]

    def test_uninteresting_trees_are_counted_but_not_kept(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer(recorder=recorder)
        self._finished_root(tracer)  # boring
        self._finished_root(tracer, shed_reason="queue_full")
        counts = recorder.counts()
        assert counts["offered"] == 2
        assert counts["retained"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_dump_json_round_trips(self, tmp_path):
        recorder = FlightRecorder(capacity=4, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        self._finished_root(tracer, user=7)
        out = recorder.dump_json(tmp_path / "flight.json")
        payload = json.loads(out.read_text())
        assert payload["capacity"] == 4
        assert payload["resident"] == 1
        assert payload["traces"][0]["tags"]["user"] == 7

    def test_clear_resets_counters(self):
        recorder = FlightRecorder(capacity=4, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        self._finished_root(tracer)
        recorder.clear()
        assert recorder.counts() == {
            "offered": 0,
            "retained": 0,
            "resident": 0,
            "evicted": 0,
        }


class TestAuditTrace:
    def test_complete_tree_is_clean(self):
        tracer = Tracer()
        with tracer.start("request") as root:
            with root.child("rung.full"):
                pass
        stamp_outcome(
            root,
            RequestOutcome(user=1, n=2, answered=True, stats=answered_stats()),
        )
        assert audit_trace(root.as_dict()) == []

    def test_unclosed_span_is_reported(self):
        tracer = Tracer()
        root = tracer.request("request")
        root.child("rung.full")  # never closed
        root.finish()
        problems = audit_trace(root.as_dict())
        assert any("not closed" in p for p in problems)

    def test_answered_without_rung_is_reported(self):
        tracer = Tracer()
        with tracer.start("request", answered=True) as root:
            pass
        problems = audit_trace(root.as_dict())
        assert any("rung" in p for p in problems)

    def test_shed_without_reason_is_reported(self):
        tracer = Tracer()
        with tracer.start("request", answered=False) as root:
            pass
        problems = audit_trace(root.as_dict())
        assert any("shed reason" in p for p in problems)


# ----------------------------------------------------------------------
# Exposition format: render + parse round trip
# ----------------------------------------------------------------------
class TestExposition:
    def test_round_trip(self):
        families = [
            MetricFamily("repro_requests_total", "counter", "Requests")
            .add(3, rung="full")
            .add(1, rung="pruned"),
            MetricFamily("repro_index_age_seconds", "gauge", "Age").add(1.5),
        ]
        text = render_exposition(families)
        scrape = parse_exposition(text)
        assert scrape.kinds["repro_requests_total"] == "counter"
        assert scrape.value("repro_requests_total", rung="full") == 3.0
        assert scrape.value("repro_requests_total", rung="pruned") == 1.0
        assert scrape.value("repro_index_age_seconds") == 1.5
        assert scrape.series("repro_requests_total") == 2

    def test_label_and_help_escaping_round_trips(self):
        family = MetricFamily(
            "repro_test_total", "counter", 'help with \\ and "quotes"\nnewline'
        ).add(1, label='va\\lue "quoted"\nline')
        scrape = parse_exposition(render_exposition([family]))
        assert scrape.value(
            "repro_test_total", label='va\\lue "quoted"\nline'
        ) == 1.0

    def test_bad_metric_name_rejected_at_render(self):
        with pytest.raises(ValueError, match="metric name"):
            render_exposition(
                [MetricFamily("bad-name", "counter", "x").add(1)]
            )

    def test_bad_kind_rejected_at_render(self):
        with pytest.raises(ValueError, match="kind"):
            render_exposition([MetricFamily("ok_name", "bogus", "x").add(1)])

    def test_parse_rejects_sample_before_type(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_exposition('orphan_metric 1\n')

    def test_parse_rejects_malformed_line(self):
        text = "# TYPE a_total counter\n# HELP a_total x\nnot a sample !!\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_exposition(text)

    def test_parse_rejects_duplicate_sample(self):
        text = (
            "# TYPE a_total counter\n"
            "# HELP a_total x\n"
            "a_total 1\n"
            "a_total 2\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_exposition(text)


# ----------------------------------------------------------------------
# Collectors
# ----------------------------------------------------------------------
class TestCollectors:
    def test_registry_families_export_rungs_and_sheds(self):
        registry = MetricsRegistry()
        registry.record(answered_stats(rung="full"))
        registry.record(answered_stats(rung="pruned"))
        registry.record_shed("queue_full")
        scrape = parse_exposition(render_exposition(registry_families(registry)))
        assert scrape.value("repro_requests_total", rung="full") == 1.0
        assert scrape.value("repro_requests_total", rung="pruned") == 1.0
        assert scrape.value("repro_shed_total", reason="queue_full") == 1.0
        assert scrape.value("repro_request_events_total", kind="recorded") == 2.0
        assert scrape.series("repro_request_rung_seconds") == 6  # 2 rungs x 3 q

    def test_engine_families_export_version_and_age(self, model):
        engine = make_engine(model)
        scrape = parse_exposition(render_exposition(engine_families(engine)))
        assert scrape.value("repro_index_age_seconds") == -1.0  # unbuilt
        engine.recommend_batch([0], n=3)
        scrape = parse_exposition(render_exposition(engine_families(engine)))
        assert scrape.value("repro_index_age_seconds") >= 0.0
        assert scrape.value("repro_index_version") >= 1.0
        assert scrape.value("repro_index_bytes") > 0.0

    def test_engine_families_export_per_shard_bytes(self, model):
        user_vectors, event_vectors = model
        with ShardedServingEngine(
            user_vectors,
            event_vectors,
            np.arange(event_vectors.shape[0], dtype=np.int64),
            n_shards=2,
        ) as fleet:
            fleet.recommend_batch([0], n=3)
            scrape = parse_exposition(
                render_exposition(engine_families(fleet))
            )
            assert scrape.series("repro_shard_index_bytes") == 2
            assert scrape.value("repro_index_age_seconds") >= 0.0

    def test_ladder_estimates_exported_for_every_composition(self, model):
        # One LadderPolicy per engine, sharded or not, so the EWMA
        # lock-in of spine Finding 3 is observable everywhere.
        user_vectors, event_vectors = model
        cand = np.arange(event_vectors.shape[0], dtype=np.int64)

        def sharded():
            return ShardedServingEngine(
                user_vectors, event_vectors, cand, n_shards=2
            )

        for engine in (make_engine(model), sharded()):
            with engine:
                assert engine.recommend_within(0, n=3, budget_s=5.0).answered
                scrape = parse_exposition(
                    render_exposition(engine_families(engine))
                )
            assert scrape.series("repro_ladder_estimate_seconds") >= 1

    def test_ivf_families_export_cluster_geometry(self, model):
        engine = make_engine(model, ivf_clusters=6, ivf_nprobe=2)
        engine.warm_ladder()
        scrape = parse_exposition(
            render_exposition(ivf_families(engine._ivf_index))
        )
        assert scrape.value("repro_ivf_clusters") == 6.0
        assert scrape.value("repro_ivf_nprobe_default") == 2.0
        assert scrape.value("repro_ivf_pairs_indexed") == float(
            engine.space.n_pairs
        )
        assert scrape.value("repro_ivf_index_bytes") > 0.0
        # max >= mean and the imbalance ratio reflects both.
        vmax = scrape.value("repro_ivf_cluster_size", stat="max")
        mean = scrape.value("repro_ivf_cluster_size", stat="mean")
        ratio = scrape.value("repro_ivf_cluster_size", stat="imbalance")
        assert vmax >= mean > 0.0
        assert ratio == pytest.approx(vmax / mean)
        assert 1 <= scrape.value(
            "repro_ivf_cluster_size", stat="nonempty"
        ) <= 6

    def test_tracer_and_flight_families(self):
        recorder = FlightRecorder(capacity=4, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        with tracer.start("request") as root:
            with root.child("rung.full"):
                pass
        scrape = parse_exposition(
            render_exposition(
                tracer_families(tracer) + flight_families(recorder)
            )
        )
        assert scrape.value("repro_span_total", span="request") == 1.0
        assert scrape.value("repro_span_total", span="rung.full") == 1.0
        assert scrape.value("repro_flight_traces_total", kind="retained") == 1.0
        assert scrape.value("repro_flight_resident") == 1.0


# ----------------------------------------------------------------------
# HTTP exporter
# ----------------------------------------------------------------------
class TestMetricsExporter:
    def _collect(self):
        return [MetricFamily("repro_up", "gauge", "Liveness").add(1)]

    def test_scrape_and_textfile_without_server(self, tmp_path):
        exporter = MetricsExporter(self._collect)
        scrape = parse_exposition(exporter.scrape())
        assert scrape.value("repro_up") == 1.0
        out = exporter.write_textfile(tmp_path / "metrics.prom")
        assert parse_exposition(out.read_text()).value("repro_up") == 1.0

    @pytest.mark.parametrize("fail_at", ["mid-write", "rename"])
    @pytest.mark.parametrize("writer", ["textfile", "flight"])
    def test_failed_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch, break_write, writer, fail_at
    ):
        value = [1]
        exporter = MetricsExporter(
            lambda: [MetricFamily("repro_up", "gauge", "Liveness").add(value[0])]
        )
        recorder = FlightRecorder(capacity=4, predicate=lambda root: True)
        target = tmp_path / "out"
        write = {
            "textfile": lambda: exporter.write_textfile(target),
            "flight": lambda: recorder.dump_json(target),
        }[writer]
        assert write() == target
        previous = target.read_text()
        # What the next write would say differs from what is on disk.
        value[0] = 2
        with Tracer(recorder=recorder).start("request"):
            pass

        break_write(fail_at)
        with pytest.raises(OSError):
            write()
        monkeypatch.undo()
        assert target.read_text() == previous
        assert list(tmp_path.iterdir()) == [target]
        write()
        assert target.read_text() != previous
        assert list(tmp_path.iterdir()) == [target]

    def test_port_and_url_require_start(self):
        exporter = MetricsExporter(self._collect)
        with pytest.raises(RuntimeError):
            exporter.port
        with pytest.raises(RuntimeError):
            exporter.url

    def test_http_scrape_flight_and_404(self):
        recorder = FlightRecorder(capacity=4, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        with tracer.start("request"):
            pass
        with MetricsExporter(self._collect, flight=recorder) as exporter:
            with urllib.request.urlopen(exporter.url, timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode("utf-8")
            assert parse_exposition(body).value("repro_up") == 1.0
            base = exporter.url.rsplit("/", 1)[0]
            with urllib.request.urlopen(f"{base}/flight", timeout=5) as resp:
                flight = json.loads(resp.read().decode("utf-8"))
            assert flight["resident"] == 1
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert err.value.code == 404

    def test_stop_is_idempotent(self):
        exporter = MetricsExporter(self._collect).start()
        exporter.stop()
        exporter.stop()


# ----------------------------------------------------------------------
# Engine integration: spans from the serving path
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_query_produces_retrieval_and_cache_children(self, model):
        tracer = Tracer(keep_last=8)
        engine = make_engine(model, tracer=tracer)
        engine.query(0, n=3)
        build, request = tracer.finished()
        assert build.name == "engine.build"
        # One span shape for every answer: a plain query is a `request`
        # root with a rung attempt and a cache write, like a deadline one.
        assert [node.name for node in request.walk()] == [
            "request", "rung.full", "cache.write",
        ]
        assert request.tags["rung"] == "full" and "budget_s" not in request.tags

    def test_every_entry_point_shares_the_request_span_shape(self, model):
        tracer = Tracer(keep_last=8)
        engine = make_engine(model, tracer=tracer, cache_size=0).warm()
        engine.recommend(1, n=3)
        engine.recommend_within(2, n=3, budget_s=60.0)
        engine.recommend_batch(np.array([3, 4]), n=3)
        shapes = [
            [node.name for node in root.walk()]
            for root in tracer.finished()
            if root.name != "engine.build"
        ]
        assert shapes == [
            ["request", "rung.full", "cache.write"],
            ["request", "rung.full", "cache.write"],
            ["request.batch", "rung.full", "cache.write", "cache.write"],
        ]

    def test_cache_hit_is_tagged(self, model):
        tracer = Tracer(keep_last=8)
        engine = make_engine(model, tracer=tracer)
        engine.query(0, n=3)
        engine.query(0, n=3)
        queries = [r for r in tracer.finished() if r.name == "request"]
        assert queries[-1].tags["cache_hit"] is True
        assert [node.name for node in queries[-1].walk()] == ["request"]

    def test_recommend_within_stamps_the_rung(self, model):
        tracer = Tracer(keep_last=8)
        engine = make_engine(model, tracer=tracer)
        outcome = engine.recommend_within(0, n=3, ctx=RequestContext(5.0))
        assert outcome.answered
        (root,) = [r for r in tracer.finished() if r.name == "request"]
        assert root.tags["rung"] == outcome.stats.rung
        assert audit_trace(root.as_dict()) == []

    def test_fault_injection_stamps_the_rung_span(self, model):
        tracer = Tracer(keep_last=8)
        engine = make_engine(model, tracer=tracer)
        install(FaultPlan([FaultSpec(site="backend.query", error_rate=1.0)]))
        outcome = engine.recommend_within(0, n=3, ctx=RequestContext(5.0))
        assert outcome.answered
        assert outcome.stats.rung != "full"  # full rung faulted away
        (root,) = [r for r in tracer.finished() if r.name == "request"]
        fault_sites = [
            node.tags["fault.site"]
            for node in root.walk()
            if "fault.site" in node.tags
        ]
        assert "backend.query" in fault_sites
        assert audit_trace(root.as_dict()) == []


# ----------------------------------------------------------------------
# Acceptance: cross-thread propagation under faults
# ----------------------------------------------------------------------
class TestCrossThreadPropagation:
    def test_recommend_many_closes_and_parents_every_tree(self, model):
        recorder = FlightRecorder(capacity=256, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        engine = make_engine(model, tracer=tracer)
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", delay_s=0.002),
                    FaultSpec(site="backend.pruned", error_rate=0.5),
                ],
                seed=7,
            )
        )
        users = np.arange(24, dtype=np.int64)
        outcomes = engine.recommend_many(
            users, n=3, budget_s=0.02, workers=4, queue_depth=4
        )
        assert len(outcomes) == len(users)
        # The lazy index build inside the first request contributes one
        # extra "engine.build" root; every request root must be present.
        traces = [
            t for t in recorder.snapshot() if t["name"] == "request"
        ]
        assert len(traces) == len(users)
        for tree in traces:
            assert audit_trace(tree) == [], tree
        waits = [
            node["name"]
            for tree in traces
            for node in tree["children"]
            if node["name"] == "queue.wait"
        ]
        # Every admitted (non-queue_full) request annotates its wait.
        admitted = [
            t for t in traces if t["tags"].get("shed_reason") != "queue_full"
        ]
        assert len(waits) == len(admitted)

    def test_sharded_fanout_trees_are_shard_complete(self, model):
        recorder = FlightRecorder(capacity=256, predicate=lambda root: True)
        tracer = Tracer(recorder=recorder)
        user_vectors, event_vectors = model
        install(
            FaultPlan(
                [FaultSpec(site="backend.query", delay_s=0.001)], seed=11
            )
        )
        with ShardedServingEngine(
            user_vectors,
            event_vectors,
            np.arange(event_vectors.shape[0], dtype=np.int64),
            n_shards=2,
            tracer=tracer,
        ) as fleet:
            users = np.arange(16, dtype=np.int64)
            outcomes = fleet.recommend_many(
                users, n=3, budget_s=0.5, workers=4
            )
        assert all(o.answered for o in outcomes)
        traces = [
            t for t in recorder.snapshot() if t["name"] == "request"
        ]
        assert len(traces) == len(users)
        for tree in traces:
            assert audit_trace(tree) == [], tree
            # request -> rung.<name> -> shard[i]: the rung that answered
            # fanned out to every shard.
            (rung,) = [
                c
                for c in tree["children"]
                if c["name"] == "rung." + tree["tags"]["rung"]
            ]
            shards = [
                c["tags"]["shard"]
                for c in rung["children"]
                if c["name"] == "shard"
            ]
            assert sorted(shards) == [0, 1]
            assert tree["tags"]["rung"] in ("full", "pruned", "truncated")

    def test_shed_requests_name_reason_and_budget_consumer(self, model):
        recorder = FlightRecorder(capacity=256)  # default predicate
        tracer = Tracer(recorder=recorder)
        engine = make_engine(model, tracer=tracer)
        install(
            FaultPlan([FaultSpec(site="backend.query", delay_s=0.05)], seed=3)
        )
        users = np.arange(12, dtype=np.int64)
        outcomes = engine.recommend_many(
            users, n=3, budget_s=0.005, workers=2, queue_depth=2
        )
        interesting = [
            o
            for o in outcomes
            if not o.answered
            or (o.stats is not None and not o.stats.deadline_met)
            or (o.stats is not None and o.stats.stale)
        ]
        assert interesting, "fault plan should shed or degrade something"
        traces = recorder.snapshot()
        assert len(traces) >= len(interesting)
        for tree in traces:
            assert audit_trace(tree) == [], tree
            tags = tree["tags"]
            # Every retained tree names what consumed the budget: the
            # shed reason, or the rung that (too slowly) answered.
            assert tags.get("shed_reason") or tags.get("rung"), tags

    def test_concurrent_roots_do_not_cross_trees(self, model):
        tracer = Tracer(keep_last=64)
        engine = make_engine(model, tracer=tracer)
        barrier = threading.Barrier(4)

        def worker(user):
            barrier.wait()
            engine.recommend_within(user, n=3, ctx=RequestContext(5.0))

        threads = [
            threading.Thread(target=worker, args=(u,)) for u in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = [r for r in tracer.finished() if r.name == "request"]
        assert len(roots) == 4
        trace_ids = {r.trace_id for r in roots}
        assert len(trace_ids) == 4  # no shared/crossed trees
        for root in roots:
            for node in root.walk():
                assert node.trace_id == root.trace_id
