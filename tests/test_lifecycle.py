"""The request lifecycle: budgets, degradation ladder, admission, shedding.

Covers the PR's acceptance scenario end to end: under injected faults,
every request either answers within its deadline (with the degraded rung
recorded in its ``QueryStats``) or is shed with an explicit reason —
never a silent drop.
"""

from __future__ import annotations

import threading

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


def admitted_ago(budget_s, clock, waited_s=1.0):
    """A context admitted ``waited_s`` ago on the test's fake clock."""
    ctx = RequestContext(budget_s, clock=clock)
    clock.advance(waited_s)
    return ctx


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

    def test_budget_drains_with_time(self, clock):
        ctx = admitted_ago(10.0, clock)
        assert ctx.elapsed() == 1.0
        assert ctx.remaining() == 9.0
        assert not ctx.expired()

    def test_expiry(self, clock):
        ctx = admitted_ago(0.005, clock)
        assert ctx.expired()
        assert ctx.remaining() < 0.0

    def test_queue_wait_recorded_once(self, clock):
        ctx = admitted_ago(5.0, clock)
        assert ctx.mark_dequeued() == ctx.queue_wait_s == 1.0
        clock.advance(2.0)  # serving time is not queue wait
        assert ctx.queue_wait_s == 1.0

    def test_the_clock_is_read_at_admission(self, clock):
        ctx = RequestContext(1.0, clock=clock)
        assert ctx.start == clock.now and ctx.clock is clock


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
        assert policy.select(0.020) == "ivf"

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

    def test_plan_is_the_available_rungs_from_the_first_that_fits(self):
        policy = LadderPolicy(safety=1.5)
        rungs = ("full", "ivf", "truncated")
        assert policy.plan(0.020, rungs) == rungs  # unobserved: optimistic
        policy.observe("full", 0.5)
        assert policy.plan(0.020, rungs) == ("ivf", "truncated")
        # Exactly at the threshold still fits (binary-exact numbers).
        policy.observe("ivf", 0.0625)
        assert policy.plan(0.09375, rungs) == ("ivf", "truncated")
        assert policy.plan(0.09374, rungs) == ("truncated",)
        assert policy.plan(0.020, ("full",)) == ()
        assert policy.plan(0.0, rungs) == policy.plan(-1.0, rungs) == ()

    def test_select_is_where_the_plan_starts(self):
        policy = LadderPolicy()
        policy.observe("full", 0.050)
        for remaining in (-1.0, 0.0, 0.020, 0.5):
            plan = policy.plan(remaining, RUNGS[:-1])
            assert policy.select(remaining) == (plan or ("stale_cache",))[0]

    def test_shed_verdict(self):
        policy = LadderPolicy()
        assert policy.shed_reason(0.010) == SHED_RUNGS_EXHAUSTED
        assert policy.shed_reason(0.0) == SHED_DEADLINE_EXPIRED
        assert policy.shed_reason(-0.5) == SHED_DEADLINE_EXPIRED

    def test_ewma_converges_and_recovers(self):
        policy = LadderPolicy(alpha=0.5)
        policy.observe("full", 0.100)
        policy.observe("full", 0.001)
        # Smoothed in log space: one fast sample takes the geometric
        # mean, sqrt(0.1 * 0.001); more keep shrinking it.
        assert policy.estimate("full") == pytest.approx(0.01)
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
        assert metrics.shed_counts() == {SHED_QUEUE_FULL: 1}

    def test_release_reopens_capacity(self):
        ctrl = AdmissionController(1)
        assert ctrl.try_admit()
        assert not ctrl.try_admit()
        ctrl.release()
        assert ctrl.try_admit()

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

    def test_slow_backend_steps_down_to_ivf(self, model, clock):
        # 0.5s stall on the full rung, 0.2s budget, all on the fake
        # clock: the first request pays the stall (answers late), the
        # EWMA learns 0.5s, and subsequent requests route to the ivf
        # sibling within deadline — exactly, whatever the scheduler does.
        engine = make_engine(model, ivf_clusters=4)
        engine.warm_ladder()
        install(
            FaultPlan(
                [FaultSpec(site="backend.query", delay_s=0.5)],
                sleep=clock.advance,
            )
        )

        def request(user):
            return engine.recommend_within(
                user, n=5, ctx=RequestContext(0.2, clock=clock)
            )

        first = request(0)
        assert first.answered  # late but explicit, never dropped
        assert first.rung == "full" and not first.stats.deadline_met
        assert first.stats.seconds_retrieval == pytest.approx(0.5)
        assert first.stats.deadline_remaining_s == pytest.approx(-0.3)
        assert engine.ladder.estimate("full") == pytest.approx(0.5)
        later = [request(u) for u in range(1, 8)]
        assert all(o.answered for o in later)
        assert {o.rung for o in later} == {"ivf"}
        assert all(not o.stats.exact for o in later)
        assert all(o.stats.deadline_met for o in later)
        assert all(o.stats.deadline_remaining_s == 0.2 for o in later)

    def test_one_stall_does_not_demote_the_ivf_rung(self, model, clock):
        # The spine's serve_ladder in miniature, under the default
        # policy: a 10 ms budget the exact rung is known not to fit,
        # served by an ivf rung that costs 0.5 ms of (fake) clock.
        engine = make_engine(
            model, backend="bruteforce", ivf_clusters=4, cache_size=0
        )
        engine.warm_ladder()
        engine.ladder.observe("full", 0.02)

        def serve(user, ivf_seconds):
            install(
                FaultPlan(
                    [FaultSpec(site="backend.ivf", delay_s=ivf_seconds)],
                    sleep=clock.advance,
                )
            )
            return engine.recommend_within(
                user, n=5, ctx=RequestContext(0.010, clock=clock)
            )

        assert {serve(u, 0.0005).rung for u in range(4)} == {"ivf"}
        stalled = serve(4, 0.030)
        assert stalled.rung == "ivf" and not stalled.stats.deadline_met
        assert {serve(u, 0.0005).rung for u in range(5, 12)} == {"ivf"}

    def test_a_rung_first_read_at_zero_still_routes_around_a_stall(
        self, model, clock
    ):
        # Nothing advances the fake clock on the first ivf answer, so it
        # reads 0 s; floored at 1 us, the log-space estimate can still
        # grow.  Once the rung stalls for good the walk starts below it
        # after a bounded number of late answers (6 at the default
        # alpha=0.3, where an arithmetic mean took 1).
        engine = make_engine(
            model, backend="bruteforce", ivf_clusters=4, cache_size=0
        )
        engine.warm_ladder()
        engine.ladder.observe("full", 0.02)

        def serve(user):
            return engine.recommend_within(
                user, n=5, ctx=RequestContext(0.010, clock=clock)
            )

        first = serve(0)
        assert first.rung == "ivf" and first.stats.seconds_retrieval == 0.0
        assert engine.ladder.estimate("ivf") == 1e-6
        install(
            FaultPlan(
                [FaultSpec(site="backend.ivf", delay_s=0.030)],
                sleep=clock.advance,
            )
        )
        outs = [serve(u) for u in range(1, 11)]
        rungs = [o.rung for o in outs]
        late = rungs.index("truncated")
        assert late == 6 and rungs[:late] == ["ivf"] * late
        assert not any(o.stats.deadline_met for o in outs[:late])
        assert set(rungs[late:]) == {"truncated"}
        assert all(o.stats.deadline_met for o in outs[late:])

    def test_full_and_ivf_faults_fall_to_truncated(self, model):
        engine = make_engine(model, ivf_clusters=4)
        engine.warm_ladder()
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", error_rate=1.0),
                    FaultSpec(site="backend.ivf", error_rate=1.0),
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

    def test_expired_deadline_serves_stale_flagged(self, model, clock):
        # cache_size=0: a version-current cache hit would (correctly)
        # answer exact-full even past the deadline; disabling it forces
        # the expired request onto the stale_cache rung under test.
        engine = make_engine(model, cache_size=0)
        fresh = engine.recommend_within(5, n=4, budget_s=5.0)
        assert fresh.rung == "full"
        # Same (user, n) with an already-expired context: stale replay.
        ctx = admitted_ago(0.001, clock)
        out = engine.recommend_within(5, n=4, ctx=ctx)
        assert out.answered and out.rung == "stale_cache"
        assert out.stats.stale and not out.stats.exact
        assert not out.stats.deadline_met
        assert out.stats.seconds_total == 1.0
        assert out.stats.deadline_remaining_s == pytest.approx(-0.999)
        assert [(r.event, r.partner) for r in out.recommendations] == [
            (r.event, r.partner) for r in fresh.recommendations
        ]

    def test_expired_deadline_without_stale_answer_sheds(self, model, clock):
        engine = make_engine(model)
        engine.warm()
        ctx = admitted_ago(0.001, clock)
        out = engine.recommend_within(7, n=4, ctx=ctx)
        assert not out.answered
        assert out.shed_reason == SHED_DEADLINE_EXPIRED
        assert out.rung is None
        assert engine.metrics.shed_counts() == {SHED_DEADLINE_EXPIRED: 1}

    def test_every_rung_faulted_falls_to_stale_or_shed(self, model):
        engine = make_engine(model, ivf_clusters=4)
        engine.warm_ladder()
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", error_rate=1.0),
                    FaultSpec(site="backend.ivf", error_rate=1.0),
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
        assert summary["truncated"]["count"] == 1
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

    def test_stale_cache_disabled_turns_misses_into_sheds(self, model, clock):
        engine = make_engine(model, stale_cache_size=0)
        engine.recommend_within(3, n=5, budget_s=5.0)  # would seed stale
        ctx = admitted_ago(0.001, clock)
        out = engine.recommend_within(3, n=5, ctx=ctx)
        # The result cache still answers this (user, n) — drop it too.
        engine2 = make_engine(model, stale_cache_size=0, cache_size=0)
        engine2.recommend_within(3, n=5, budget_s=5.0)
        ctx2 = admitted_ago(0.001, clock)
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
        # One worker and a queue bound of 2.  The injected stall does not
        # sleep: it holds the worker inside request 0's scan until every
        # submission that cannot be admitted has been shed, so the count
        # is exact — 2 admitted, 18 shed — on any scheduler.
        all_shed = threading.Event()

        class Registry(MetricsRegistry):
            def record_shed(self, reason):
                super().record_shed(reason)
                if self.shed_counts()[SHED_QUEUE_FULL] == 18:
                    all_shed.set()

        engine = make_engine(model, metrics=Registry())
        engine.warm_ladder()
        install(
            FaultPlan(
                [FaultSpec(site="backend.query", delay_s=0.03)],
                sleep=lambda _seconds: all_shed.wait(timeout=60),
            )
        )
        users = np.zeros(20, dtype=np.int64)
        outcomes = engine.recommend_many(
            users, n=5, budget_s=60.0, workers=1, queue_depth=2
        )
        assert all_shed.is_set()
        assert [o.answered for o in outcomes] == [True, True] + [False] * 18
        shed = [o for o in outcomes if not o.answered]
        assert {o.shed_reason for o in shed} == {SHED_QUEUE_FULL}
        assert engine.metrics.shed_counts() == {SHED_QUEUE_FULL: 18}

    def test_queue_wait_drains_budget(self, model, clock):
        # 40 ms of a 50 ms budget went to the queue: `full` (known to
        # take 20 ms, x1.5 safety) no longer fits what is left, the
        # unobserved ivf sibling does.
        engine = make_engine(model, ivf_clusters=4)
        engine.warm_ladder()
        engine.ladder.observe("full", 0.02)
        ctx = admitted_ago(0.05, clock, waited_s=0.04)
        ctx.mark_dequeued()
        out = engine.recommend_within(0, n=5, ctx=ctx)
        assert out.answered and out.rung == "ivf"
        assert out.stats.queue_wait_s == pytest.approx(0.04)
        assert out.stats.deadline_remaining_s == pytest.approx(0.01)
        assert out.stats.deadline_met
        # Without the wait the same request is served exact.
        fresh = RequestContext(0.05, clock=clock)
        assert engine.recommend_within(1, n=5, ctx=fresh).rung == "full"

    def test_recommend_many_records_each_requests_queue_wait(self, model):
        engine = make_engine(model)
        outcomes = engine.recommend_many(
            np.arange(12, dtype=np.int64), n=5, budget_s=60.0, workers=1
        )
        assert all(o.answered and o.stats.queue_wait_s > 0 for o in outcomes)
        assert all(
            o.stats.queue_wait_s <= o.stats.seconds_total for o in outcomes
        )

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
