"""The request lifecycle: budgets, degradation ladder, admission, shedding.

Covers the PR's acceptance scenario end to end: under injected faults,
every request either answers within its deadline (with the degraded rung
recorded in its ``QueryStats``) or is shed with an explicit reason —
never a silent drop.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    AdmissionController,
    LadderPolicy,
    RequestContext,
    RequestOutcome,
    RUNGS,
    SHED_DEADLINE_EXPIRED,
    SHED_RUNGS_EXHAUSTED,
    SHED_QUEUE_FULL,
    MetricsRegistry,
    ServingEngine,
)
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall


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


def admitted_ago(budget_s):
    """A context admitted one second ago: drained exactly, no sleeping."""
    return RequestContext(budget_s, start=time.perf_counter() - 1.0)


def make_engine(model, **kwargs):
    user_vectors, event_vectors = model
    kwargs.setdefault("backend", "ta")
    return ServingEngine(
        user_vectors,
        event_vectors,
        np.arange(event_vectors.shape[0], dtype=np.int64),
        **kwargs,
    )


# ----------------------------------------------------------------------
# RequestContext
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget_s"):
            RequestContext(0.0)

    def test_budget_drains_with_time(self):
        ctx = admitted_ago(10.0)
        assert ctx.elapsed() >= 1.0
        assert ctx.remaining() <= 9.0
        assert not ctx.expired()

    def test_expiry(self):
        ctx = admitted_ago(0.005)
        assert ctx.expired()
        assert ctx.remaining() < 0.0

    def test_queue_wait_recorded_once(self):
        ctx = admitted_ago(5.0)
        wait = ctx.mark_dequeued()
        assert wait == pytest.approx(ctx.queue_wait_s)
        assert wait >= 1.0


# ----------------------------------------------------------------------
# LadderPolicy
# ----------------------------------------------------------------------
class TestLadderPolicy:
    def test_unobserved_rungs_are_optimistic(self):
        policy = LadderPolicy()
        assert policy.select(0.001) == "full"

    def test_slow_full_rung_routes_down(self):
        policy = LadderPolicy(safety=1.5)
        policy.observe("full", 0.050)
        # 50ms estimate * 1.5 safety > 20ms remaining -> step down.
        assert policy.select(0.020) == "pruned"

    def test_every_rung_slow_lands_on_stale(self):
        policy = LadderPolicy()
        for rung in RUNGS[:-1]:
            policy.observe(rung, 0.050)
        assert policy.select(0.010) == "stale_cache"

    def test_exhausted_budget_lands_on_stale(self):
        policy = LadderPolicy()
        assert policy.select(-0.001) == "stale_cache"
        assert policy.select(0.0) == "stale_cache"

    def test_available_filter_skips_cold_rungs(self):
        policy = LadderPolicy()
        policy.observe("full", 0.050)
        selected = policy.select(
            0.020, available=("full", "truncated", "stale_cache")
        )
        assert selected == "truncated"

    def test_ewma_converges_and_recovers(self):
        policy = LadderPolicy(alpha=0.5)
        policy.observe("full", 0.100)
        policy.observe("full", 0.001)
        # One fast sample halves the estimate; more keep shrinking it.
        assert policy.estimate("full") == pytest.approx(0.0505)
        for _ in range(10):
            policy.observe("full", 0.001)
        assert policy.estimate("full") < 0.002

    def test_validation(self):
        with pytest.raises(ValueError, match="safety"):
            LadderPolicy(safety=0.5)
        with pytest.raises(ValueError, match="alpha"):
            LadderPolicy(alpha=0.0)

    def test_thread_safety_smoke(self):
        policy = LadderPolicy()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                policy.observe("full", 0.01)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(200):
            policy.select(0.05)
        stop.set()
        for t in threads:
            t.join()
        assert policy.estimate("full") == pytest.approx(0.01)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_admits_until_capacity_then_sheds(self):
        metrics = MetricsRegistry()
        ctrl = AdmissionController(2, metrics=metrics)
        assert ctrl.try_admit() and ctrl.try_admit()
        assert not ctrl.try_admit()
        assert ctrl.pending == 2
        assert ctrl.n_shed == 1
        assert metrics.shed_counts() == {SHED_QUEUE_FULL: 1}

    def test_release_reopens_capacity(self):
        ctrl = AdmissionController(1)
        assert ctrl.try_admit()
        assert not ctrl.try_admit()
        ctrl.release()
        assert ctrl.try_admit()
        assert ctrl.n_admitted == 2

    def test_unmatched_release_raises(self):
        ctrl = AdmissionController(1)
        with pytest.raises(RuntimeError, match="release"):
            ctrl.release()

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionController(0)


# ----------------------------------------------------------------------
# The degradation ladder on a real engine
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_generous_budget_serves_full_exact(self, model):
        engine = make_engine(model)
        out = engine.recommend_within(3, n=5, budget_s=5.0)
        assert out.answered and out.rung == "full"
        assert out.stats.exact and out.stats.deadline_met
        assert [
            (r.event, r.partner) for r in out.recommendations
        ] == [(r.event, r.partner) for r in engine.recommend(3, n=5)]

    def test_slow_backend_steps_down_to_pruned(self, model):
        # 0.5s stall on the full rung, 0.2s budget: the first request
        # pays the stall (answers late), the EWMA learns, and subsequent
        # requests route to the pruned sibling within deadline.  The
        # ratio is wide on purpose so no rung choice can depend on the
        # scheduler: full's estimate x 1.5 safety is >= 0.75s, far past
        # the budget, and pruned (sub-millisecond here) fits it by two
        # orders of magnitude.
        engine = make_engine(model)
        engine.warm_ladder()
        install(FaultPlan([FaultSpec(site="backend.query", delay_s=0.5)]))
        first = engine.recommend_within(0, n=5, budget_s=0.2)
        assert first.answered  # late but explicit, never dropped
        later = [
            engine.recommend_within(u, n=5, budget_s=0.2)
            for u in range(1, 8)
        ]
        assert all(o.answered for o in later)
        assert {o.rung for o in later} == {"pruned"}
        assert all(not o.stats.exact for o in later)
        assert all(o.stats.deadline_met for o in later)

    def test_full_and_pruned_faults_fall_to_truncated(self, model):
        engine = make_engine(model)
        engine.warm_ladder()
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", error_rate=1.0),
                    FaultSpec(site="backend.pruned", error_rate=1.0),
                ]
            )
        )
        out = engine.recommend_within(2, n=5, budget_s=1.0)
        assert out.answered and out.rung == "truncated"
        assert len(out.recommendations) == 5
        # Generous budget: the planned prefix covers the whole (tiny)
        # space, so the scan itself is a full exact brute force — but it
        # is still reported as the truncated rung, not as exact-full.
        assert out.stats.fraction_examined == pytest.approx(1.0)

    def test_expired_deadline_serves_stale_flagged(self, model):
        # cache_size=0: a version-current cache hit would (correctly)
        # answer exact-full even past the deadline; disabling it forces
        # the expired request onto the stale_cache rung under test.
        engine = make_engine(model, cache_size=0)
        fresh = engine.recommend_within(5, n=4, budget_s=5.0)
        assert fresh.rung == "full"
        # Same (user, n) with an already-expired context: stale replay.
        ctx = admitted_ago(0.001)
        out = engine.recommend_within(5, n=4, ctx=ctx)
        assert out.answered and out.rung == "stale_cache"
        assert out.stats.stale and not out.stats.exact
        assert not out.stats.deadline_met
        assert [(r.event, r.partner) for r in out.recommendations] == [
            (r.event, r.partner) for r in fresh.recommendations
        ]

    def test_expired_deadline_without_stale_answer_sheds(self, model):
        engine = make_engine(model)
        engine.warm()
        ctx = admitted_ago(0.001)
        out = engine.recommend_within(7, n=4, ctx=ctx)
        assert not out.answered
        assert out.shed_reason == SHED_DEADLINE_EXPIRED
        assert out.rung is None
        assert engine.metrics.shed_counts() == {SHED_DEADLINE_EXPIRED: 1}

    def test_every_rung_faulted_falls_to_stale_or_shed(self, model):
        engine = make_engine(model)
        engine.warm_ladder()
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", error_rate=1.0),
                    FaultSpec(site="backend.pruned", error_rate=1.0),
                    FaultSpec(site="backend.truncated", error_rate=1.0),
                ]
            )
        )
        out = engine.recommend_within(1, n=5, budget_s=60.0)
        assert not out.answered and out.shed_reason == SHED_RUNGS_EXHAUSTED
        assert engine.metrics.shed_counts() == {SHED_RUNGS_EXHAUSTED: 1}

    def test_rung_recorded_in_metrics(self, model):
        engine = make_engine(model, cache_size=0)
        engine.warm_ladder()
        engine.recommend_within(0, n=5, budget_s=5.0)
        install(FaultPlan([FaultSpec(site="backend.query", error_rate=1.0)]))
        engine.recommend_within(1, n=5, budget_s=5.0)
        summary = engine.metrics.rung_summary()
        assert summary["full"]["count"] == 1
        assert summary["pruned"]["count"] == 1
        assert engine.metrics.summary()["n_degraded"] == 1

    def test_exactly_one_of_budget_or_ctx(self, model):
        engine = make_engine(model)
        with pytest.raises(ValueError, match="exactly one"):
            engine.recommend_within(0, n=5)
        with pytest.raises(ValueError, match="exactly one"):
            engine.recommend_within(
                0, n=5, budget_s=1.0, ctx=RequestContext(1.0)
            )

    def test_cache_hit_fast_path(self, model):
        engine = make_engine(model)
        engine.recommend(4, n=5)  # populates the result cache
        out = engine.recommend_within(4, n=5, budget_s=1.0)
        assert out.answered and out.rung == "full"
        assert out.stats.cache_hit and out.stats.exact

    def test_stale_cache_disabled_turns_misses_into_sheds(self, model):
        engine = make_engine(model, stale_cache_size=0)
        engine.recommend_within(3, n=5, budget_s=5.0)  # would seed stale
        ctx = admitted_ago(0.001)
        out = engine.recommend_within(3, n=5, ctx=ctx)
        # The result cache still answers this (user, n) — drop it too.
        engine2 = make_engine(model, stale_cache_size=0, cache_size=0)
        engine2.recommend_within(3, n=5, budget_s=5.0)
        ctx2 = admitted_ago(0.001)
        out2 = engine2.recommend_within(3, n=5, ctx=ctx2)
        assert not out2.answered
        assert out2.shed_reason == SHED_DEADLINE_EXPIRED
        assert out.answered  # engine1: served from the result cache


# ----------------------------------------------------------------------
# Concurrency: recommend_many
# ----------------------------------------------------------------------
class TestRecommendMany:
    def test_every_request_gets_exactly_one_outcome(self, model):
        engine = make_engine(model)
        users = np.arange(30, dtype=np.int64) % 10
        outcomes = engine.recommend_many(
            users, n=5, budget_s=5.0, workers=4
        )
        assert len(outcomes) == 30
        assert all(isinstance(o, RequestOutcome) for o in outcomes)
        assert all(o.answered for o in outcomes)
        assert [o.user for o in outcomes] == users.tolist()

    def test_concurrent_answers_match_serial(self, model):
        engine = make_engine(model)
        users = np.arange(10, dtype=np.int64)
        outcomes = engine.recommend_many(users, n=5, budget_s=5.0, workers=4)
        serial = make_engine(model)
        for out, u in zip(outcomes, users, strict=True):
            expected = serial.recommend(int(u), n=5)
            assert [(r.event, r.partner) for r in out.recommendations] == [
                (r.event, r.partner) for r in expected
            ]

    def test_saturated_queue_sheds_with_reason(self, model):
        engine = make_engine(model)
        engine.warm_ladder()
        # One worker stalled 30ms per query and a queue bound of 2:
        # submission outpaces service, so most requests must shed.
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", delay_s=0.03),
                    FaultSpec(site="backend.pruned", delay_s=0.03),
                    FaultSpec(site="backend.truncated", delay_s=0.03),
                ]
            )
        )
        users = np.zeros(20, dtype=np.int64)
        outcomes = engine.recommend_many(
            users, n=5, budget_s=5.0, workers=1, queue_depth=2
        )
        assert len(outcomes) == 20
        shed = [o for o in outcomes if not o.answered]
        assert shed, "expected queue_full sheds at depth 2"
        assert {o.shed_reason for o in shed} == {SHED_QUEUE_FULL}
        assert (
            engine.metrics.shed_counts()[SHED_QUEUE_FULL] == len(shed)
        )
        # Zero silent drops: answered + shed == submitted.
        assert len([o for o in outcomes if o.answered]) + len(shed) == 20

    def test_queue_wait_drains_budget(self, model):
        engine = make_engine(model)
        engine.warm_ladder()
        engine.recommend_within(0, n=5, budget_s=5.0)  # seed stale + EWMA
        install(FaultPlan([FaultSpec(site="backend.query", delay_s=0.03)]))
        users = np.arange(12, dtype=np.int64)
        outcomes = engine.recommend_many(
            users, n=5, budget_s=0.05, workers=1
        )
        assert all(o.answered or o.shed_reason for o in outcomes)
        waited = [o for o in outcomes if o.answered and o.stats.queue_wait_s > 0]
        assert waited, "later requests should record queue wait"

    def test_workers_validated(self, model):
        engine = make_engine(model)
        with pytest.raises(ValueError, match="workers"):
            engine.recommend_many(np.arange(3), budget_s=1.0, workers=0)


# ----------------------------------------------------------------------
# Budget-capped TA (the in-rung early exit)
# ----------------------------------------------------------------------
class TestBudgetCappedTA:
    def test_zero_ish_budget_returns_inexact(self, model):
        from repro.online.ta import ThresholdAlgorithmIndex
        from repro.online.transform import query_vector, transform_all_pairs

        user_vectors, event_vectors = model
        space = transform_all_pairs(
            event_vectors, user_vectors,
            event_ids=np.arange(event_vectors.shape[0], dtype=np.int64),
            partner_ids=np.arange(user_vectors.shape[0], dtype=np.int64),
        )
        index = ThresholdAlgorithmIndex(space)
        q = query_vector(user_vectors[0])
        exact = index.query(q, 5, exclude=0)
        assert exact.exact
        capped = index.query(
            q, 5, exclude=0, budget_s=1e-9, chunk=1
        )
        assert not capped.exact
        assert capped.n_examined <= exact.n_examined
        generous = index.query(
            q, 5, exclude=0, budget_s=10.0
        )
        assert generous.exact
        assert generous.pair_indices.tolist() == exact.pair_indices.tolist()
