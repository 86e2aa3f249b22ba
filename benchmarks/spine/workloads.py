"""The four workloads.

Each workload prepares its seeded inputs once (untimed, benchmark-side),
then runs *rounds*: set the system up afresh (timed: one ``setup_s``
sample), warm up, measure a fixed number of ops in one closed loop on the
calling thread, and finally check answers against the oracle.  Only the
stable entry points named in the README are used here; everything that
reaches deeper lives in :mod:`benchmarks.spine.probes`.  The program's
modules are imported here, at the top, so that no round's ``setup_s``
includes an import.
"""

from __future__ import annotations

import collections
import hashlib
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any, ClassVar

import numpy as np
from repro.core import GEM, JointTrainer, TrainerConfig
from repro.data import chronological_split, make_dataset
from repro.evaluation.protocol import evaluate_event_partner
from repro.serving import (
    DoubleBufferedEngine,
    FoldInPump,
    LadderPolicy,
    MetricsRegistry,
    ServingEngine,
    ShardedServingEngine,
)

from benchmarks.spine import config
from benchmarks.spine.oracle import Oracle, sample_triples
from benchmarks.spine.reference import Reference
from benchmarks.spine.spans import NullRecorder, SpanRecorder
from benchmarks.spine.worlds import (
    CapturingFolder,
    distinct_users,
    make_fold_world,
    make_serving_world,
    probe_users,
    zipf_users,
)

Recorder = SpanRecorder | NullRecorder
now = time.perf_counter

#: A write that is not visible after this long counts as a lost arrival.
WRITE_TIMEOUT_S = 30.0

#: EWMA weight of ``serve_ladder``'s ``LadderPolicy``.  With the default
#: 0.3 a single stall of > 22 ms inside one ~0.4 ms ivf request (a
#: collector pause, a preempted vCPU) lifts the rung's estimate over the
#: 10 ms budget; the rung is then never tried again, so its estimate never
#: recovers and every later request is served by `truncated` or
#: `stale_cache` (README, Findings).  That would make the rung, and with
#: it quality and latency, depend on one clock reading per run.  At 0.02 a
#: stall has to exceed 300 ms to do the same; the per-request code path is
#: unchanged.
LADDER_ALPHA = 0.02


@dataclass(slots=True)
class Phase:
    """One measured phase: what the end-to-end metrics are computed from."""

    #: Wall seconds of the ops (reference samples excluded).
    seconds: float
    ops: int
    failed: int
    samples: list[float]
    #: Workload-specific extras: integer tallies are summed over rounds and
    #: printed; anything else is for the traced run's probes.
    counts: dict[str, Any] = field(default_factory=dict)
    #: Reference-kernel seconds sampled between the ops of this phase, and
    #: for each how many latency samples had been taken before it.
    reference: list[float] = field(default_factory=list)
    reference_at: list[int] = field(default_factory=list)


@dataclass(slots=True)
class Check:
    """Outcome of the correctness checks after the last round."""

    quality: float
    problems: list[str] = field(default_factory=list)


class Workload:
    """Shared plan: op counts from ``--seconds`` and the sizing rates."""

    name: ClassVar[str]
    #: What one op is, for the report.
    op: ClassVar[str]
    #: Whether ``setup`` forwards a ``profiler=`` argument to its engine
    #: (the traced run reads build phases out of it).
    accepts_profiler: ClassVar[bool] = False
    #: The reference kernel that resembles what binds the workload: the
    #: scans stream memory, the ladder's 0.4 ms requests and the trainer
    #: are bound by the interpreter and small NumPy calls.
    reference: ClassVar[str]

    def __init__(self, seed: int, scale: config.Scale, seconds: float, trace: bool):
        self.seed = seed
        self.scale = scale
        self.rounds = 1 if trace else config.ROUNDS[self.name]
        self.seconds = seconds
        self.ref = Reference(self.reference)

    def closed_loop(
        self,
        rec: Recorder,
        span: str,
        items: np.ndarray,
        op: Callable[[Any], int],
        after: Callable[[int], tuple[int, int]] | None = None,
        **counts: Any,
    ) -> Phase:
        """One client, one op at a time: the measured phase of a serve workload.

        ``op(item)`` performs one op and returns how many failures it saw
        (0 or 1); a raising op is a failed op.  ``after(i)`` runs untimed
        ops between the sampled ones (the writes of ``stream_sharded``)
        and returns ``(ops, failures)`` it added.
        """
        samples, failed, extra = [], 0, 0
        self.ref.begin()
        begin = now()
        for i, item in enumerate(items):
            self.ref.tick(now(), i)
            start = now()
            try:
                with rec.span(span, request=i):
                    failed += op(item)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                failed += 1
            samples.append(now() - start)
            if after is not None:
                more, bad = after(i)
                extra += more
                failed += bad
        wall = now() - begin
        reference, at, spent = self.ref.take()
        return Phase(
            wall - spent, len(items) + extra, failed, samples, counts, reference, at
        )

    def ops_per_round(self, rate: float, unit: int = 1) -> int:
        """Measured ops in one round, a whole multiple of ``unit``."""
        per_round = rate * self.seconds / self.rounds
        return max(1, round(per_round / unit)) * unit

    def setup(self, rec: Recorder, **engine_kwargs: Any) -> Any:
        raise NotImplementedError

    def warm_up(self, state: Any, round_index: int) -> None:
        raise NotImplementedError

    def measure(self, state: Any, round_index: int, rec: Recorder) -> Phase:
        raise NotImplementedError

    def check(self, state: Any) -> Check:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release threads and pools the set-up started."""


def _slice(stream: np.ndarray, round_index: int, warm: int, ops: int, measured: bool):
    """One round's warm-up or measured slice of a pre-generated stream."""
    start = round_index * (warm + ops)
    if measured:
        return stream[start + warm : start + warm + ops]
    return stream[start : start + warm]


class _ServeWorkload(Workload):
    """Inputs shared by the serving workloads: world, oracle, users."""

    op = "request"

    def __init__(self, seed: int, scale: config.Scale, seconds: float, trace: bool):
        super().__init__(seed, scale, seconds, trace)
        self.world = make_serving_world(seed, scale.shape)
        self.oracle = Oracle(self.world.users, self.world.events)
        self.candidates = np.arange(self.world.n_events, dtype=np.int64)


class ServeScan(_ServeWorkload):
    """``recommend`` on a cache-less brute-force engine, distinct users."""

    name = "serve_scan"
    accepts_profiler = True
    reference = "stream"

    def __init__(self, seed: int, scale: config.Scale, seconds: float, trace: bool):
        super().__init__(seed, scale, seconds, trace)
        self.ops = (
            scale.trace_requests if trace else self.ops_per_round(scale.scan_ops_s)
        )
        self.warm = max(1, round(config.WARMUP_SHARE * self.ops))
        self.users = distinct_users(
            seed, self.world.n_users, self.rounds * (self.warm + self.ops)
        )
        self.probes = probe_users(seed, self.world.n_users, config.N_EXACT_PROBES)

    def build(self, events: np.ndarray | None = None, **kwargs: Any) -> Any:
        return ServingEngine(
            self.world.users,
            self.world.events,
            self.candidates if events is None else events,
            backend="bruteforce",
            cache_size=0,
            **kwargs,
        )

    def setup(self, rec: Recorder, **engine_kwargs: Any) -> Any:
        engine = self.build(**engine_kwargs)
        with rec.span("serving.engine.warm"):
            engine.warm()
        return engine

    def warm_up(self, engine: Any, round_index: int) -> None:
        for user in _slice(self.users, round_index, self.warm, self.ops, False):
            engine.recommend(int(user), config.TOP_N)

    def measure(self, engine: Any, round_index: int, rec: Recorder) -> Phase:
        return self.closed_loop(
            rec,
            "serving.engine.recommend",
            _slice(self.users, round_index, self.warm, self.ops, True),
            lambda user: len(engine.recommend(int(user), config.TOP_N))
            != config.TOP_N,
        )

    def check(self, engine: Any) -> Check:
        n = config.TOP_N
        exact = [
            self.oracle.is_exact(int(u), engine.recommend(int(u), n), n)
            for u in self.probes
        ]
        check = Check(quality=sum(exact) / len(exact))
        if not all(exact):
            check.problems.append(
                f"{len(exact) - sum(exact)} of {len(exact)} probe answers "
                "differ from the Eqn-8 oracle"
            )
        asymmetric = self.asymmetric_triples()
        if asymmetric:
            check.problems.append(
                f"score(u,u',x) != score(u',u,x) on {asymmetric} of "
                f"{config.N_SYMMETRY_TRIPLES} triples"
            )
        return check

    def asymmetric_triples(self) -> int:
        """Eqn 8 is symmetric in (u, u'): check it through the engine.

        For a triple ``(u, u', x)`` an engine of the workload's own
        configuration restricted to the one event and the two users must
        give ``u`` the pair ``(x, u')`` and ``u'`` the pair ``(x, u)``
        with the same score, which must also be the oracle's.
        """
        world = self.world
        triples = sample_triples(
            self.seed, world.n_users, world.n_events, config.N_SYMMETRY_TRIPLES
        )
        bad = 0
        for u, other, x in triples.tolist():
            engine = self.build(
                np.array([x], dtype=np.int64),
                candidate_partners=np.array([u, other], dtype=np.int64),
            )
            forward = engine.recommend(u, 1)
            backward = engine.recommend(other, 1)
            truth = self.oracle.score(u, other, x)
            ok = (
                len(forward) == len(backward) == 1
                and (forward[0].event, forward[0].partner) == (x, other)
                and (backward[0].event, backward[0].partner) == (x, u)
                and abs(forward[0].score - backward[0].score) <= 1e-9
                and abs(forward[0].score - truth) <= 1e-9
            )
            bad += not ok
        return bad


class ServeLadder(_ServeWorkload):
    """``recommend_within`` under a 10 ms budget, served by the ivf rung."""

    name = "serve_ladder"
    accepts_profiler = True
    reference = "interp"

    def __init__(self, seed: int, scale: config.Scale, seconds: float, trace: bool):
        super().__init__(seed, scale, seconds, trace)
        self.ops = (
            scale.trace_requests if trace else self.ops_per_round(scale.ladder_ops_s)
        )
        # The first two requests teach the ladder that `full` and `pruned`
        # do not fit the budget; keep them out of the measured phase.
        self.warm = max(8, round(config.WARMUP_SHARE * self.ops))
        self.users = distinct_users(
            seed, self.world.n_users, self.rounds * (self.warm + self.ops)
        )
        self.probes = probe_users(seed, self.world.n_users, config.N_RECALL_PROBES)

    def build(self, **kwargs: Any) -> Any:
        return ServingEngine(
            self.world.users,
            self.world.events,
            self.candidates,
            backend="bruteforce",
            ivf_clusters=self.scale.ivf_clusters,
            ivf_nprobe=self.scale.ivf_nprobe,
            cache_size=0,
            ladder=LadderPolicy(alpha=LADDER_ALPHA),
            **kwargs,
        )

    def setup(self, rec: Recorder, **engine_kwargs: Any) -> Any:
        engine = self.build(**engine_kwargs)
        with rec.span("serving.engine.warm"):
            engine.warm()
        with rec.span("serving.engine.warm_ladder"):
            engine.warm_ladder()
        return engine

    def request(self, engine: Any, user: int) -> Any:
        return engine.recommend_within(
            int(user), config.TOP_N, budget_s=config.LADDER_BUDGET_S
        )

    def warm_up(self, engine: Any, round_index: int) -> None:
        for user in _slice(self.users, round_index, self.warm, self.ops, False):
            self.request(engine, user)

    def measure(self, engine: Any, round_index: int, rec: Recorder) -> Phase:
        # Outcomes are kept for the probes of the (short) traced run only:
        # holding 10^4 of them grows the heap enough for one collector pass
        # to outlast the request budget.
        outcomes: list[Any] = []
        rungs: collections.Counter[str] = collections.Counter()

        def op(user: int) -> int:
            outcome = self.request(engine, user)
            rungs[outcome.rung or "shed"] += 1
            if rec.enabled:
                outcomes.append(outcome)
            return not outcome.answered

        phase = self.closed_loop(
            rec,
            "serving.engine.recommend_within",
            _slice(self.users, round_index, self.warm, self.ops, True),
            op,
            outcomes=outcomes,
        )
        phase.counts.update({f"rung.{rung}": n for rung, n in rungs.items()})
        return phase

    def check(self, engine: Any) -> Check:
        recalls = []
        for user in self.probes:
            outcome = self.request(engine, user)
            recalls.append(
                self.oracle.recall(int(user), outcome.recommendations, config.TOP_N)
                if outcome.answered
                else 0.0
            )
        return Check(quality=float(np.mean(recalls)))


@dataclass(slots=True)
class _StreamState:
    front: Any
    pump: Any
    folder: CapturingFolder
    offered: int = 0
    write_seconds: list[float] = field(default_factory=list)


class StreamSharded(_ServeWorkload):
    """Zipf reads on a double-buffered 2-shard front, a write every 50th."""

    name = "stream_sharded"
    op = "read or write"
    reference = "stream"

    def __init__(self, seed: int, scale: config.Scale, seconds: float, trace: bool):
        super().__init__(seed, scale, seconds, trace)
        every = config.READS_PER_WRITE
        self.reads = (
            scale.trace_writes * every
            if trace
            else self.ops_per_round(scale.stream_reads_s, every)
        )
        self.writes = self.reads // every
        self.warm = max(1, round(config.WARMUP_SHARE * self.reads))
        self.users = zipf_users(
            seed,
            self.world.n_users,
            self.rounds * (self.warm + self.reads),
            config.ZIPF_EXPONENT,
        )
        self.probes = probe_users(seed, self.world.n_users, config.N_EXACT_PROBES)
        # The traced run measures the op list twice on one front.
        passes = 2 if trace else 1
        self.inner_folder, self.arrivals = make_fold_world(
            seed, self.world, passes * self.writes * config.WRITE_BATCH
        )

    def build_replica(self, metrics: Any, **kwargs: Any) -> Any:
        return ShardedServingEngine(
            self.world.users,
            self.world.events,
            self.candidates,
            n_shards=2,
            backend="bruteforce",
            cache_size=256,
            merged_cache_size=256,
            metrics=metrics,
            **kwargs,
        )

    def setup(self, rec: Recorder, **engine_kwargs: Any) -> _StreamState:
        metrics = MetricsRegistry()
        front = DoubleBufferedEngine(
            self.build_replica(metrics), self.build_replica(metrics)
        )
        with rec.span("serving.engine.warm"):
            front.warm()
        folder = CapturingFolder(self.inner_folder)
        pump = FoldInPump(front, folder, max_batch=config.WRITE_BATCH).start()
        return _StreamState(front, pump, folder)

    def warm_up(self, state: _StreamState, round_index: int) -> None:
        for user in _slice(self.users, round_index, self.warm, self.reads, False):
            state.front.recommend(int(user), config.TOP_N)

    def write(self, state: _StreamState) -> bool:
        """Offer one batch and wait until the pump reports it visible."""
        batch = self.arrivals[state.offered : state.offered + config.WRITE_BATCH]
        start = now()
        for event in batch:
            state.pump.offer(event)
        state.offered += len(batch)
        deadline = start + WRITE_TIMEOUT_S
        while True:
            counters = state.pump.counters()
            if counters["visible"] >= state.offered:
                state.write_seconds.append(now() - start)
                return True
            if counters["dropped"] or now() > deadline:
                return False
            time.sleep(0.0005)

    def measure(self, state: _StreamState, round_index: int, rec: Recorder) -> Phase:
        def write_due(i: int) -> tuple[int, int]:
            if (i + 1) % config.READS_PER_WRITE:
                return 0, 0
            with rec.span("serving.streaming.write_visible", request=i):
                return 1, not self.write(state)

        phase = self.closed_loop(
            rec,
            "serving.streaming.recommend",
            _slice(self.users, round_index, self.warm, self.reads, True),
            lambda user: len(state.front.recommend(int(user), config.TOP_N))
            != config.TOP_N,
            after=write_due,
        )
        phase.counts["writes"] = phase.ops - len(phase.samples)
        return phase

    def check(self, state: _StreamState) -> Check:
        check = Check(quality=0.0)
        ledger = state.pump.counters()
        if ledger["dropped"] or ledger["offered"] != ledger["visible"]:
            check.problems.append(f"pump ledger lost arrivals: {ledger}")
        events = np.concatenate(
            [self.world.events, state.folder.folded(self.world.dim)], axis=0
        )
        if events.shape[0] != state.front.n_events:
            check.problems.append(
                f"front serves {state.front.n_events} events, "
                f"{events.shape[0]} were folded"
            )
            return check
        oracle = Oracle(self.world.users, events)
        exact = [
            oracle.is_exact(
                int(u), state.front.recommend(int(u), config.TOP_N), config.TOP_N
            )
            for u in self.probes
        ]
        check.quality = sum(exact) / len(exact)
        if not all(exact):
            check.problems.append(
                f"{len(exact) - sum(exact)} of {len(exact)} probe answers differ "
                "from the oracle over the folded vectors"
            )
        return check

    def teardown(self, state: _StreamState) -> None:
        state.pump.stop()
        state.front.close()


@dataclass(slots=True)
class _TrainState:
    split: Any
    bundle: Any


#: ``n`` values whose mean Accuracy@n is the ranking AUC of the positive
#: triple among its 1000 sampled negatives.
AUC_N_VALUES = tuple(range(10, 1001, 10))


class TrainJoint(Workload):
    """Identical repeated trainings, driven as ``train(4096)`` chunks."""

    name = "train_joint"
    op = "SGD step"
    reference = "interp"

    def __init__(self, seed: int, scale: config.Scale, seconds: float, trace: bool):
        super().__init__(seed, scale, seconds, trace)
        self.steps_per_repetition = scale.chunks_per_repetition * config.STEPS_PER_CHUNK
        self.repetitions = (
            1
            if trace
            else self.ops_per_round(scale.train_steps_s, self.steps_per_repetition)
            // self.steps_per_repetition
        )
        self.warm_chunks = max(
            1,
            round(config.WARMUP_SHARE * self.repetitions * scale.chunks_per_repetition),
        )
        # Kept across rounds: every repetition of every round must end in
        # the same embeddings, and quality is read off the first of them.
        self.hashes: list[str] = []
        self.first: Any = None

    def trainer_config(self) -> Any:
        return TrainerConfig(
            dim=32,
            sampler="adaptive",
            batch_size=256,
            schedule_window=16,
            seed=self.seed,
        )

    def new_trainer(self, state: _TrainState, **kwargs: Any) -> Any:
        return JointTrainer(
            state.bundle, self.trainer_config(), seed=self.seed, **kwargs
        )

    def setup(self, rec: Recorder, **engine_kwargs: Any) -> _TrainState:
        with rec.span("data.synthetic.generate"):
            ebsn, _truth = make_dataset(self.scale.preset, seed=self.seed)
        with rec.span("ebsn.graphs.bundle"):
            split = chronological_split(ebsn)
            bundle = split.training_bundle()
        return _TrainState(split, bundle)

    def warm_up(self, state: _TrainState, round_index: int) -> None:
        trainer = self.new_trainer(state)
        for _ in range(self.warm_chunks):
            trainer.train(config.STEPS_PER_CHUNK)

    def measure(self, state: _TrainState, round_index: int, rec: Recorder) -> Phase:
        samples: list[float] = []
        self.ref.begin()
        for repetition in range(self.repetitions):
            with rec.span("core.trainer.init", request=repetition):
                trainer = self.new_trainer(state)
            for _ in range(self.scale.chunks_per_repetition):
                self.ref.tick(now(), len(samples))
                start = now()
                with rec.span("core.trainer.train", request=repetition):
                    trainer.train(config.STEPS_PER_CHUNK)
                samples.append(now() - start)
            self.hashes.append(embedding_hash(trainer.embeddings))
            if self.first is None:
                self.first = trainer.embeddings
        steps = self.repetitions * self.steps_per_repetition
        diverged = sum(h != self.hashes[0] for h in self.hashes[-self.repetitions :])
        reference, at, _spent = self.ref.take()
        return Phase(
            sum(samples),
            steps,
            diverged * self.steps_per_repetition,
            samples,
            reference=reference,
            reference_at=at,
        )

    def evaluate(self, state: _TrainState) -> float:
        """Ranking AUC of repetition 1's embeddings on the test triples."""
        result = evaluate_event_partner(
            GEM.from_embeddings(self.first),
            state.split,
            state.split.partner_triples(),
            n_values=AUC_N_VALUES,
            max_cases=self.scale.eval_cases,
            seed=0,
        )
        return float(np.mean(list(result.accuracy.values())))

    def check(self, state: _TrainState) -> Check:
        check = Check(quality=self.evaluate(state))
        if len(set(self.hashes)) != 1:
            check.problems.append(
                f"{len(set(self.hashes))} distinct embedding hashes over "
                f"{len(self.hashes)} identical repetitions"
            )
        return check


def embedding_hash(embeddings: Any) -> str:
    """SHA-256 over every embedding matrix, in entity-name order."""
    digest = hashlib.sha256()
    for name, matrix in sorted(embeddings.as_named_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.hexdigest()


BY_NAME: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeScan, ServeLadder, StreamSharded, TrainJoint)
}
