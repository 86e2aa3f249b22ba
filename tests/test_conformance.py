"""One conformance suite for every engine composition.

There is one request path (:class:`repro.serving.ServingEngine`); sharding
is a composition around it.  Whatever a composition is made of, it must
answer exactly like the paper's Eqn 8 says — so each check below runs
over {single, sharded n=1, sharded n=3, buffered(single),
buffered(sharded n=2)} × {bruteforce, ta} against an **independent
oracle** computed from the raw embedding matrices (never through
``PairSpace``).  ``buffered(...)`` is that engine behind the
``DoubleBufferedEngine`` adapter the benchmark spine still constructs;
those two compositions go with the adapter.

The world is quantised (entries in {0, 0.5, 1}), so every score is exact
in float64: comparisons are ``==`` and ties are everywhere, which is what
pins the canonical order (descending score, then candidate-event rank,
then candidate-partner rank).  Nothing here asserts on wall-clock time:
rungs are failed with injected *errors* or stalled on a fake clock
(``RequestContext(clock=)`` + ``FaultPlan(sleep=)``), and the one
blocking scenario (admission shedding) is gated on events, not sleeps.
"""

from __future__ import annotations

import threading
import time
import types

import numpy as np
import pytest

from repro.serving import (
    SHED_QUEUE_FULL,
    DoubleBufferedEngine,
    LadderPolicy,
    MetricsRegistry,
    RequestContext,
    ServingEngine,
    ShardedServingEngine,
)
from repro.online.bruteforce import BruteForceIndex
from repro.online.ivf import IVFIndex
from repro.online.ta import ThresholdAlgorithmIndex
from repro.serving import FoldInPump
from repro.serving import engine as engine_module
from repro.serving import faults as faults_module
from repro.serving import lifecycle as lifecycle_module
from repro.serving.faults import FaultPlan, FaultSpec, install, uninstall

N_USERS, N_EVENTS, N_INITIAL, DIM = 17, 12, 9, 4
COMPOSITIONS = {
    "single": (None, False),
    "sharded1": (1, False),
    "sharded3": (3, False),
    "buffered(single)": (None, True),
    "buffered(sharded2)": (2, True),
}
RUNG_SITES = {
    "full": "backend.query",
    "pruned": "backend.pruned",
    "ivf": "backend.ivf",
    "truncated": "backend.truncated",
}


@pytest.fixture(autouse=True)
def clean_faults():
    uninstall()
    yield
    uninstall()


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(20180416)
    users = rng.integers(0, 3, size=(N_USERS, DIM)).astype(np.float64) * 0.5
    events = rng.integers(0, 3, size=(N_EVENTS, DIM)).astype(np.float64) * 0.5
    return users, events


@pytest.fixture(params=list(COMPOSITIONS))
def composition(request):
    return request.param


@pytest.fixture(params=["bruteforce", "ta"])
def backend(request):
    return request.param


@pytest.fixture
def compose(world, composition, backend):
    """Factory for the parametrised composition; closes what it built."""
    users, events = world
    n_shards, buffered = COMPOSITIONS[composition]
    built = []

    def replica(candidates=np.arange(N_INITIAL, dtype=np.int64), **kwargs):
        cand = np.asarray(candidates, dtype=np.int64)
        if n_shards is None:
            return ServingEngine(users, events, cand, backend=backend, **kwargs)
        return ShardedServingEngine(
            users, events, cand, n_shards=n_shards, backend=backend, **kwargs
        )

    def make(**kwargs):
        if buffered:
            kwargs.setdefault("metrics", MetricsRegistry())
            kwargs.setdefault("ladder", LadderPolicy())
            engine = DoubleBufferedEngine(replica(**kwargs), replica(**kwargs))
        else:
            engine = replica(**kwargs)
        built.append(engine)
        return engine

    yield make
    for engine in built:
        engine.close()


def oracle(world, candidates, user, n):
    """Eqn 8 top-n from the raw matrices, canonical tie order."""
    users, events = world
    u = users[user]
    scores = (
        (events[candidates] @ u)[:, None]
        + (users @ u)[None, :]
        + events[candidates] @ users.T
    )
    ranked = sorted(
        (-scores[i, p], i, p)
        for i in range(len(candidates))
        for p in range(N_USERS)
        if p != user
    )
    return [(int(candidates[i]), p, -neg) for neg, i, p in ranked[:n]]


def triples(recommendations):
    return [(r.event, r.partner, r.score) for r in recommendations]


def fail_rungs(*rungs):
    install(
        FaultPlan([FaultSpec(site=RUNG_SITES[r], error_rate=1.0) for r in rungs])
    )


class TestExactSurfaces:
    def test_recommend_equals_oracle_before_and_after_refresh(
        self, compose, world
    ):
        engine = compose(cache_size=0)
        initial = np.arange(N_INITIAL)
        for user in range(0, N_USERS, 3):
            for n in (1, 7, 40):
                assert triples(engine.recommend(user, n)) == oracle(
                    world, initial, user, n
                )
        added = engine.refresh(np.arange(N_INITIAL, N_EVENTS, dtype=np.int64))
        assert added == N_EVENTS - N_INITIAL
        grown = np.arange(N_EVENTS)
        for user in range(1, N_USERS, 3):
            assert triples(engine.recommend(user, 25)) == oracle(
                world, grown, user, 25
            )

    def test_batch_equals_per_user(self, compose):
        engine = compose()
        users = np.array([4, 0, 4, 16, 9], dtype=np.int64)  # a duplicate
        # The double-buffered front exposes the batch surface of whichever
        # replica is active.
        batch = getattr(engine, "active", engine).recommend_batch(users, 6)
        assert [triples(recs) for recs in batch] == [
            triples(engine.recommend(int(u), 6)) for u in users
        ]

    def test_eqn8_symmetry(self, compose, world):
        # Eqn 8 is symmetric in (u, u'): the score of pair (x, u') in u's
        # answer is the score of (x, u) in u'-s answer (the reciprocity
        # property of Zhao et al., PAPERS.md) — through every composition.
        engine = compose()
        everything = N_INITIAL * N_USERS
        rng = np.random.default_rng(5)
        for _ in range(8):
            u, v = (int(x) for x in rng.choice(N_USERS, size=2, replace=False))
            x = int(rng.integers(0, N_INITIAL))
            forward = {
                (r.event, r.partner): r.score
                for r in engine.recommend(u, everything)
            }
            backward = {
                (r.event, r.partner): r.score
                for r in engine.recommend(v, everything)
            }
            assert forward[(x, v)] == backward[(x, u)]


class TestDominatedEventChangesNoAnswer:
    """Metamorphic: appending an all-zero event moves no top-n.

    Its pair with partner u' scores ``u.u'`` alone — at most what every
    other event's pair with u' scores in a non-negative world, and behind
    all of them on a tie (it has the last candidate-event rank).  So
    ``N_INITIAL`` pairs outrank each of its pairs: for ``n <= N_INITIAL``
    the answer, ids and scores, is the one from before the append.
    """

    USERS = range(0, N_USERS, 2)

    @staticmethod
    def append_zero_event(engine):
        added = engine.refresh(
            np.array([N_EVENTS], dtype=np.int64), np.zeros((1, DIM))
        )
        assert added == 1

    def test_exact_surfaces(self, compose):
        engine = compose(cache_size=0)

        def answers():
            users = np.array(self.USERS, dtype=np.int64)
            batch = getattr(engine, "active", engine).recommend_batch(users, 5)
            return [
                (
                    triples(engine.recommend(int(u), 1)),
                    triples(engine.recommend(int(u), N_INITIAL)),
                    triples(
                        engine.recommend_within(
                            int(u), 7, budget_s=60.0
                        ).recommendations
                    ),
                    triples(recs),
                )
                for u, recs in zip(users, batch)
            ]

        before = answers()
        self.append_zero_event(engine)
        assert answers() == before

    def test_ivf_rung_at_full_probe(self, compose):
        engine = compose(cache_size=0, ivf_clusters=4, ivf_nprobe=4)
        engine.warm_ladder()
        fail_rungs("full", "pruned")

        def answers():
            outs = [
                engine.recommend_within(u, N_INITIAL, budget_s=60.0)
                for u in self.USERS
            ]
            assert all(o.answered and o.rung == "ivf" for o in outs)
            # Full probe: every shard's every cell, i.e. every pair.
            assert all(o.stats.n_examined == o.stats.n_candidates for o in outs)
            return [triples(o.recommendations) for o in outs]

        before = answers()
        self.append_zero_event(engine)
        assert answers() == before


class TestAnswersSurviveAnAppend:
    """A refresh leaves cached answers behind, not dead — and still exact.

    Every user's answer is warmed, then three refreshes append an ordinary
    event, an event that *duplicates* an existing one's vector (ties
    across the old/new boundary at every rank, resolved by pair index)
    and the all-zero dominated event.  After each, every user's answer is
    the oracle's over exactly the events appended so far — topped up over
    the factored scan, rescanned over a TA primary (whose score bits the
    suffix scan does not repeat) — and a second pass is plain hits.
    """

    NS = (7, 40)

    def test_every_user_after_every_refresh(self, compose, world, backend):
        users, events = world
        duplicate, zero = events[3:4], np.zeros((1, DIM))
        grown = (users, np.vstack([events, duplicate, zero]))
        engine = compose()
        candidates = list(range(N_INITIAL))

        def last():
            return engine.metrics.records[-1]

        def every_answer_is_the_oracle():
            for user in range(N_USERS):
                for n in self.NS:
                    assert triples(engine.recommend(user, n)) == oracle(
                        grown, np.array(candidates), user, n
                    )
                    yield last()

        assert not any(s.cache_hit for s in every_answer_is_the_oracle())
        for new_id, vectors in (
            (N_INITIAL, None),
            (N_EVENTS, duplicate),
            (N_EVENTS + 1, zero),
        ):
            assert engine.refresh(np.array([new_id]), vectors) == 1
            candidates.append(new_id)
            for stats in every_answer_is_the_oracle():
                assert stats.exact and stats.version == engine.version
                if backend == "bruteforce":
                    # The one appended event x every partner, nothing else.
                    assert stats.cache_hit and stats.n_examined == N_USERS
                else:
                    assert not stats.cache_hit
            for stats in every_answer_is_the_oracle():
                assert stats.cache_hit and stats.n_examined == 0


class TestDeadlineSurfaces:
    def test_generous_budget_is_the_exact_answer(self, compose):
        engine = compose()
        engine.warm_ladder()
        for user in (2, 11):
            out = engine.recommend_within(user, 6, budget_s=60.0)
            assert out.answered and out.rung == "full"
            assert out.stats.exact and not out.stats.stale
            assert out.stats.version == engine.version
            assert triples(out.recommendations) == triples(
                engine.recommend(user, 6)
            )

    def test_query_is_the_walk_without_a_deadline(self, compose):
        # One walk serves both surfaces: a plain query and a request with
        # a budget nothing can exhaust give the same ids, scores and
        # exactness — and differ only in the deadline fields recorded.
        plain, scoped = compose(cache_size=0), compose(cache_size=0)
        for user in (0, 7, 16):
            result = plain.query(user, 9)
            out = scoped.recommend_within(user, 9, budget_s=60.0)
            assert out.answered and out.rung == "full"
            assert [r.event for r in out.recommendations] == (
                result.event_ids.tolist()
            )
            assert [r.partner for r in out.recommendations] == (
                result.partner_ids.tolist()
            )
            assert [r.score for r in out.recommendations] == result.scores.tolist()
            assert out.stats.exact == result.exact is True
            recorded = plain.metrics.records[-1]
            assert (recorded.rung, recorded.exact) == ("full", True)
            assert recorded.n_examined == out.stats.n_examined
            assert recorded.deadline_met and recorded.deadline_budget_s == 0.0
            assert recorded.deadline_remaining_s == recorded.queue_wait_s == 0.0
            assert out.stats.deadline_budget_s == 60.0

    def test_a_stalled_rung_answers_late_then_is_routed_around(
        self, compose, clock
    ):
        engine = compose(cache_size=0)
        engine.warm_ladder()
        install(
            FaultPlan(
                [FaultSpec(site="backend.query", delay_s=0.5)],
                sleep=clock.advance,
            )
        )
        first = engine.recommend_within(
            3, 5, ctx=RequestContext(0.2, clock=clock)
        )
        assert first.answered and first.rung == "full"
        assert not first.stats.deadline_met
        assert first.stats.seconds_retrieval >= 0.5
        for user in (4, 5, 6):
            out = engine.recommend_within(
                user, 5, ctx=RequestContext(0.2, clock=clock)
            )
            assert out.answered and out.rung == "pruned"
            assert out.stats.deadline_met and not out.stats.exact
            assert out.stats.deadline_remaining_s == 0.2

    def test_deadline_path_never_reads_the_wall_clock(
        self, compose, clock, monkeypatch
    ):
        # Time reaches a deadline-scoped request only through its
        # context: with the wall clock and the real sleep booby-trapped
        # inside the three modules on that path, a stalled request still
        # walks the whole ladder on the fake clock.
        def forbidden(*_args):
            raise AssertionError("the deadline path read the wall clock")

        engine = compose(cache_size=0, ivf_clusters=4)
        engine.warm_ladder()
        trap = types.SimpleNamespace(perf_counter=forbidden, sleep=forbidden)
        for module in (lifecycle_module, engine_module, faults_module):
            monkeypatch.setattr(module, "time", trap)
        install(
            FaultPlan(
                [
                    FaultSpec(site="backend.query", delay_s=0.04),
                    FaultSpec(site="backend.pruned", error_rate=1.0),
                    FaultSpec(site="backend.ivf", delay_s=0.01),
                ],
                sleep=clock.advance,
            )
        )
        ctx = RequestContext(0.05, clock=clock)
        clock.advance(0.01)
        ctx.mark_dequeued()
        slow = engine.recommend_within(3, 5, ctx=ctx)
        assert slow.answered and slow.rung == "full"
        assert slow.stats.queue_wait_s == pytest.approx(0.01)
        assert slow.stats.seconds_total >= 0.05 and not slow.stats.deadline_met
        out = engine.recommend_within(
            3, 5, ctx=RequestContext(0.05, clock=clock)
        )
        assert out.answered and out.rung == "ivf" and out.stats.deadline_met
        late = RequestContext(0.05, clock=clock)
        clock.advance(1.0)
        replay = engine.recommend_within(3, 5, ctx=late)
        assert replay.rung == "stale_cache" and replay.stats.seconds_total == 1.0

    @pytest.mark.parametrize("rung", ["pruned", "ivf", "truncated"])
    def test_failed_upper_rungs_step_down_to(self, compose, rung):
        engine = compose(cache_size=0, ivf_clusters=4)
        engine.warm_ladder()
        order = list(RUNG_SITES)
        fail_rungs(*order[: order.index(rung)])
        out = engine.recommend_within(3, 5, budget_s=60.0)
        assert out.answered and out.rung == rung
        assert not out.stats.exact and not out.stats.stale
        assert out.stats.version == engine.version
        assert len(out.recommendations) == 5
        assert all(r.partner != 3 for r in out.recommendations)

    def test_every_rung_failed_replays_the_stale_answer_or_sheds(
        self, compose, clock
    ):
        engine = compose(cache_size=0, ivf_clusters=4)
        engine.warm_ladder()
        fresh = engine.recommend_within(3, 5, budget_s=60.0)
        fail_rungs(*RUNG_SITES)
        out = engine.recommend_within(3, 5, budget_s=60.0)
        assert out.answered and out.rung == "stale_cache"
        assert out.stats.stale and not out.stats.exact
        assert out.stats.version == fresh.stats.version == engine.version
        assert triples(out.recommendations) == triples(fresh.recommendations)
        # No stale answer for this (user, n): an explicit shed, named for
        # what ended the walk — the rungs with budget left, else the clock.
        shed = engine.recommend_within(4, 5, budget_s=60.0)
        assert not shed.answered and shed.shed_reason == "rungs_exhausted"
        late = RequestContext(0.001, clock=clock)
        clock.advance(1.0)
        shed = engine.recommend_within(4, 5, ctx=late)
        assert not shed.answered and shed.shed_reason == "deadline_expired"
        assert engine.metrics.shed_counts() == {
            "rungs_exhausted": 1,
            "deadline_expired": 1,
        }


class _Gate(FaultPlan):
    """Holds every pass through its sites until released (no sleeps)."""

    def __init__(self, *sites):
        super().__init__([FaultSpec(site=site) for site in sites])
        self.entered = threading.Event()
        self.release = threading.Event()

    def should_error(self, spec):
        self.entered.set()
        assert self.release.wait(timeout=60)
        return False


class TestRecommendMany:
    def test_one_outcome_per_input_in_input_order(self, compose):
        engine = compose()
        users = np.array([5, 1, 5, 12, 0, 1, 8], dtype=np.int64)
        outcomes = engine.recommend_many(users, 4, budget_s=60.0, workers=3)
        assert [o.user for o in outcomes] == users.tolist()
        assert all(o.answered and o.rung == "full" for o in outcomes)
        for o in outcomes:
            assert triples(o.recommendations) == triples(
                engine.recommend(o.user, 4)
            )

    def test_queue_full_sheds_are_named(self, compose):
        engine = compose(cache_size=0)
        engine.warm()
        gate = _Gate("backend.query")
        install(gate)
        users = np.arange(6, dtype=np.int64)
        outcomes = []
        caller = threading.Thread(
            target=lambda: outcomes.extend(
                engine.recommend_many(
                    users, 3, budget_s=60.0, workers=1, queue_depth=1
                )
            )
        )
        caller.start()
        try:
            # Request 0 holds the only queue slot inside its scan until
            # every later submission has been shed at admission.
            assert gate.entered.wait(timeout=60)
            give_up = time.monotonic() + 60
            while (
                engine.metrics.shed_counts().get(SHED_QUEUE_FULL, 0)
                < len(users) - 1
                and time.monotonic() < give_up
            ):
                time.sleep(0.001)
        finally:
            gate.release.set()
            caller.join(timeout=60)
        assert not caller.is_alive()
        assert [o.user for o in outcomes] == users.tolist()
        assert outcomes[0].answered and outcomes[0].rung == "full"
        assert [o.shed_reason for o in outcomes[1:]] == [SHED_QUEUE_FULL] * 5
        assert engine.metrics.shed_counts() == {SHED_QUEUE_FULL: 5}


class TestPermutationChangesNoAnswerSet:
    """Metamorphic: candidate order and shard boundaries move no answer.

    Permuting ``candidate_events`` renumbers the pairs, so it may pick a
    different member of a tie at the n-th place — but never a different
    score, and never a different pair above that score.  Every
    composition is held to the one oracle over the unpermuted order, so
    the shard count (1, 2, 3, none) cannot move it either.  The ``ivf``
    rung below full probe is carved out: its k-means trains on a prefix
    of the pairs, which legitimately moves with the order.
    """

    ORDER = np.random.default_rng(11).permutation(N_INITIAL)
    EVERY = N_INITIAL * N_USERS

    @classmethod
    def fixed(cls, answer, n):
        """What no tie-break can move: the scores, and every pair above
        the last one (the whole answer when it is every pair)."""
        if n >= cls.EVERY:
            return set(answer)
        cut = answer[-1][2]
        return [s for *_, s in answer], {t for t in answer if t[2] > cut}

    def want(self, world, user, n):
        return self.fixed(oracle(world, np.arange(N_INITIAL), user, n), n)

    def test_exact_surfaces(self, compose, world):
        engine = compose(cache_size=0, candidates=self.ORDER)
        users = np.arange(N_USERS, dtype=np.int64)
        for n in (1, 7, self.EVERY):
            batch = engine.recommend_batch(users, n)
            for user in range(N_USERS):
                want = self.want(world, user, n)
                assert self.fixed(triples(engine.recommend(user, n)), n) == want
                scoped = engine.recommend_within(user, n, budget_s=60.0)
                assert self.fixed(triples(scoped.recommendations), n) == want
                assert self.fixed(triples(batch[user]), n) == want

    def test_ivf_rung_at_full_probe(self, compose, world):
        engine = compose(
            cache_size=0, candidates=self.ORDER, ivf_clusters=4, ivf_nprobe=4
        )
        engine.warm_ladder()
        fail_rungs("full", "pruned")
        for user in range(N_USERS):
            out = engine.recommend_within(user, 7, budget_s=60.0)
            assert out.answered and out.rung == "ivf"
            assert self.fixed(triples(out.recommendations), 7) == self.want(
                world, user, 7
            )


def raise_once(monkeypatch, cls, call):
    """Make ``cls.extend`` raise on its ``call``-th call, once."""
    original, calls = cls.extend, []

    def extend(self, *args):
        calls.append(1)
        if len(calls) == call:
            raise RuntimeError("injected extend failure")
        return original(self, *args)

    monkeypatch.setattr(cls, "extend", extend)


class _Vectors:
    """A folder that hands out fixed vectors, whatever the events say."""

    def __init__(self, vectors):
        self.vectors = vectors

    def fold_in_many(self, events, config=None):
        return self.vectors[: len(events)]


@pytest.mark.parametrize("composition", ["single", "sharded1", "sharded3"])
@pytest.mark.parametrize("failing", ["last_leg", "ivf_sibling"])
class TestAFailedRefreshPublishesNothing:
    """A refresh whose last slice (or an ivf sibling) raises changes
    nothing, and the same refresh retried is one clean refresh.

    Each slice prepares its next snapshot; only when every one exists is
    the new one published.  So the earlier slices' work is thrown away
    with the failure, not left half-served.
    """

    NEW = np.array([[1.0, 0.5, 1.0, 1.0], [0.5, 1.0, 1.0, 0.5]])

    @pytest.fixture
    def engine(self, compose, composition, backend, failing, monkeypatch):
        engine = compose(cache_size=8, ivf_clusters=4)
        engine.warm_ladder()
        legs = int(composition[-1]) if composition != "single" else 1
        if failing == "ivf_sibling":
            raise_once(monkeypatch, IVFIndex, legs)
        else:
            primary = {"bruteforce": BruteForceIndex, "ta": ThresholdAlgorithmIndex}
            raise_once(monkeypatch, primary[backend], legs)
        return engine

    def state(self, engine):
        return (
            engine.version,
            engine.n_events,
            engine.candidate_events.tolist(),
            engine.n_candidate_pairs,
        )

    def answers(self, engine, world, candidates):
        for user in range(N_USERS):
            got = triples(engine.recommend(user, 40))
            assert got == oracle(world, np.array(candidates), user, 40)
            assert len({(e, p) for e, p, _ in got}) == len(got)

    def test_the_failed_refresh_then_the_retry(self, engine, world):
        users, events = world
        grown = (users, np.vstack([events, self.NEW]))
        ids = np.arange(N_EVENTS, N_EVENTS + 2)
        self.answers(engine, world, range(N_INITIAL))
        before = self.state(engine)
        with pytest.raises(RuntimeError, match="injected"):
            engine.refresh(ids, self.NEW)
        assert self.state(engine) == before
        self.answers(engine, world, range(N_INITIAL))
        assert engine.refresh(ids, self.NEW) == 2
        assert engine.version == before[0] + 1
        self.answers(engine, grown, [*range(N_INITIAL), *ids])

    def test_a_pump_retries_the_batch_to_visible(self, engine, world):
        users, events = world
        pump = FoldInPump(
            engine, _Vectors(self.NEW), max_batch=2, max_delay_s=0.0,
            retry_backoff_s=0.0,
        )
        for event in ("a", "b"):
            pump.offer(event)
        with pump:
            assert pump.drain(timeout_s=60.0)
        counters = pump.counters()
        assert (counters["visible"], counters["dropped"]) == (2, 0)
        assert counters["errors"] == 1
        grown = (users, np.vstack([events, self.NEW]))
        self.answers(engine, grown, [*range(N_INITIAL), N_EVENTS, N_EVENTS + 1])
