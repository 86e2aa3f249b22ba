"""Per-layer probes for the traced run.

A probe times calls into one layer's public functions from outside and
returns ``{metric name: value}``.  Every inner function is resolved at run
time through :func:`resolve`; when a later change deletes or renames it,
the probe's metrics read ``None`` with a reason instead of crashing, so a
simplification PR that removes a facade cannot break the benchmark it is
not allowed to edit.  Nothing here feeds the end-to-end metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import numpy as np

from benchmarks.spine import config
from benchmarks.spine.spans import SpanRecorder
from benchmarks.spine.stats import median
from benchmarks.spine.workloads import Phase, Workload

now = time.perf_counter

#: The machine probe: a mat-vec over a float64 matrix of the serving
#: world's pair-space size (665 000 x 33 = 175 MB), timed before and after
#: every workload.  It tells a noisy machine from a regression.
MACHINE_PROBE_SHAPE = (665_000, 33)


class Unavailable(Exception):
    """The function a probe measures no longer exists under that name."""


def resolve(root: Any, dotted: str) -> Any:
    """``root.a.b.c`` (``root`` may be a module name), or :class:`Unavailable`."""
    label = root if isinstance(root, str) else type(root).__name__
    try:
        obj = importlib.import_module(root) if isinstance(root, str) else root
        for part in dotted.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise Unavailable(f"{label}.{dotted} is gone ({exc})") from exc
    return obj


@dataclass(slots=True)
class Context:
    """What a probe may look at: the workload, its live state, the spans."""

    workload: Workload
    state: Any
    rec: SpanRecorder
    plain: Phase
    traced: Phase


Probe = Callable[[Context], dict[str, float]]


def probe(*names: str) -> Callable[[Probe], Probe]:
    """Declare the metric names a probe yields (nulled together on failure)."""

    def mark(fn: Probe) -> Probe:
        fn.names = names  # type: ignore[attr-defined]
        return fn

    return mark


def run_probes(
    probes: list[Probe], ctx: Context
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Run every probe; collect values and, for unresolved ones, reasons."""
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for fn in probes:
        try:
            values.update(fn(ctx))
        except (Unavailable, AttributeError, TypeError, KeyError) as exc:
            for name in fn.names:  # type: ignore[attr-defined]
                values[name] = None
                reasons[name] = f"{type(exc).__name__}: {exc}"
    return values, reasons


def ms(seconds: list[float]) -> float:
    return 1e3 * median(seconds)


_MACHINE_PROBE = """
import sys, time, statistics, numpy as np
matrix = np.ones((int(sys.argv[1]), 33)); vector = np.ones(33)
matrix @ vector
seconds = []
for _ in range(3):
    start = time.perf_counter(); matrix @ vector
    seconds.append(time.perf_counter() - start)
print(1e3 * statistics.median(seconds))
"""


def machine_probe_ms(smoke: bool = False) -> float:
    """Median milliseconds of one 175 MB float64 mat-vec.

    Runs in a child process so that the probe's matrix never counts
    towards the workload's own ``peak_rss_mb``.
    """
    rows = MACHINE_PROBE_SHAPE[0] // (10 if smoke else 1)
    done = subprocess.run(
        [sys.executable, "-c", _MACHINE_PROBE, str(rows)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.strip())


def build_profiler() -> dict[str, Any]:
    """``profiler=`` constructor argument for traced set-ups, if it exists."""
    try:
        return {"profiler": resolve("repro.utils.profiling", "Profiler")(enabled=True)}
    except Unavailable:
        return {}


def _build_phase_seconds(engine: Any, phase: str) -> float:
    return float(resolve(engine, "build_profile")()["phases"][phase]["seconds"])


@probe("bench.trace_overhead_ratio")
def trace_overhead(ctx: Context) -> dict[str, float]:
    plain = ctx.plain.ops / ctx.plain.seconds
    traced = ctx.traced.ops / ctx.traced.seconds
    return {"bench.trace_overhead_ratio": traced / plain}


# ---------------------------------------------------------------- serve_scan
@probe(
    "serving.engine.warm_s",
    "serving.engine.index_bytes",
    "online.transform.build_space_s",
    "online.transform.bytes_per_pair",
)
def scan_build(ctx: Context) -> dict[str, float]:
    engine = ctx.state
    warm_s = ctx.rec.durations("serving.engine.warm")[0]
    space = resolve(engine, "space")
    arrays = [getattr(space, f.name) for f in dataclasses.fields(space)]
    resident = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return {
        "serving.engine.warm_s": warm_s,
        "serving.engine.index_bytes": float(resolve(engine, "memory_bytes")()),
        "online.transform.build_space_s": warm_s
        - _build_phase_seconds(engine, "build.index"),
        "online.transform.bytes_per_pair": resident / space.n_pairs,
    }


def _paired_backend_queries(
    ctx: Context, engine: Any, recommend: Callable[[int], Any], users: np.ndarray
) -> tuple[list[float], list[float]]:
    """Per user: the public call, then the backend scan it contains."""
    query_vector = resolve("repro.online.transform", "query_vector")
    backend_query = resolve(engine, "backend.query")
    vectors = resolve(engine, "user_vectors")
    whole, inner = [], []
    for i, user in enumerate(users.tolist()):
        start = now()
        recommend(user)
        whole.append(now() - start)
        q = query_vector(np.asarray(vectors[user], dtype=np.float64))
        start = now()
        with ctx.rec.span("online.bruteforce.query", request=i):
            backend_query(q, config.TOP_N, exclude=user)
        inner.append(now() - start)
    return whole, inner


@probe(
    "online.bruteforce.query_ms",
    "serving.engine.recommend_ms",
    "serving.engine.self_ms",
)
def scan_query(ctx: Context) -> dict[str, float]:
    engine = ctx.state
    users = ctx.workload.users[: min(100, ctx.workload.ops)]
    whole, inner = _paired_backend_queries(
        ctx, engine, lambda u: engine.recommend(u, config.TOP_N), users
    )
    return {
        "online.bruteforce.query_ms": ms(inner),
        "serving.engine.recommend_ms": ms(
            ctx.rec.durations("serving.engine.recommend")
        ),
        "serving.engine.self_ms": ms([w - i for w, i in zip(whole, inner)]),
    }


@probe("online.ta.query_ms", "online.ta.fraction_examined")
def ta_queries(ctx: Context) -> dict[str, float]:
    world = ctx.workload.world
    engine = resolve("repro.serving", "ServingEngine")(
        world.users, world.events, ctx.workload.candidates, backend="ta", cache_size=0
    )
    engine.warm()
    seconds, fractions = [], []
    for user in ctx.workload.probes[:10].tolist():
        start = now()
        result = engine.query(user, config.TOP_N)
        seconds.append(now() - start)
        fractions.append(result.fraction_examined)
    return {
        "online.ta.query_ms": ms(seconds),
        "online.ta.fraction_examined": float(np.mean(fractions)),
    }


# -------------------------------------------------------------- serve_ladder
@probe(
    "serving.engine.warm_s",
    "serving.engine.warm_ladder_s",
    "serving.engine.index_bytes",
    "online.pruning.build_pruned_s",
    "online.ivf.build_s",
    "online.ivf.index_bytes",
)
def ladder_build(ctx: Context) -> dict[str, float]:
    engine = ctx.state
    warm_s = ctx.rec.durations("serving.engine.warm")[0]
    siblings_s = ctx.rec.durations("serving.engine.warm_ladder")[0]
    pruned_s = _build_phase_seconds(engine, "build.pruned_sibling")
    return {
        "serving.engine.warm_s": warm_s,
        "serving.engine.warm_ladder_s": warm_s + siblings_s,
        "serving.engine.index_bytes": float(resolve(engine, "memory_bytes")()),
        "online.pruning.build_pruned_s": pruned_s,
        "online.ivf.build_s": siblings_s - pruned_s,
        "online.ivf.index_bytes": float(resolve(engine, "_ivf_index.memory_bytes")()),
    }


_RUNGS = ("full", "pruned", "ivf", "truncated", "stale_cache")


def _aligned_outcomes(ctx: Context) -> list[Any]:
    outcomes = ctx.traced.counts["outcomes"]
    if len(outcomes) != len(ctx.traced.samples):
        raise Unavailable("an op raised, so outcomes and timings do not align")
    return outcomes


@probe(
    "online.ivf.query_ms",
    "online.ivf.fraction_examined",
    "online.ivf.clusters_probed",
)
def ivf_rung(ctx: Context) -> dict[str, float]:
    ivf = [o.stats for o in _aligned_outcomes(ctx) if o.rung == "ivf"]
    if not ivf:
        raise Unavailable("no request was served by the ivf rung")
    return {
        "online.ivf.query_ms": ms([s.seconds_retrieval for s in ivf]),
        "online.ivf.fraction_examined": float(
            np.mean([s.fraction_examined for s in ivf])
        ),
        "online.ivf.clusters_probed": float(
            np.mean([s.n_clusters_probed for s in ivf])
        ),
    }


@probe(
    "serving.lifecycle.within_self_ms",
    "serving.lifecycle.deadline_met_ratio",
    "serving.lifecycle.shed_ratio",
    *(f"serving.lifecycle.rung_share.{rung}" for rung in _RUNGS),
)
def ladder_outcomes(ctx: Context) -> dict[str, float]:
    outcomes = _aligned_outcomes(ctx)
    answered = [o for o in outcomes if o.answered]
    out = {
        "serving.lifecycle.within_self_ms": ms(
            [
                wall - o.stats.seconds_retrieval
                for wall, o in zip(ctx.traced.samples, outcomes)
                if o.answered
            ]
        ),
        "serving.lifecycle.deadline_met_ratio": float(
            np.mean([o.stats.deadline_met for o in answered])
        ),
        "serving.lifecycle.shed_ratio": 1.0 - len(answered) / len(outcomes),
    }
    for rung in _RUNGS:
        out[f"serving.lifecycle.rung_share.{rung}"] = sum(
            o.rung == rung for o in answered
        ) / len(outcomes)
    return out


@probe("serving.lifecycle.admit_us")
def admission(ctx: Context) -> dict[str, float]:
    controller = resolve("repro.serving", "AdmissionController")(8)
    pairs = 2_000 if ctx.workload.scale.smoke else 20_000
    start = now()
    for _ in range(pairs):
        controller.try_admit()
        controller.release()
    return {"serving.lifecycle.admit_us": 1e6 * (now() - start) / pairs}


@probe("serving.telemetry.record_us", "serving.telemetry.scrape_ms_at_30k")
def telemetry(ctx: Context) -> dict[str, float]:
    registry = resolve("repro.serving", "MetricsRegistry")()
    stats = ctx.traced.counts["outcomes"][-1].stats
    records = 30_000
    start = now()
    for _ in range(records):
        registry.record(stats)
    record_s = now() - start
    start = now()
    registry.percentiles()
    return {
        "serving.telemetry.record_us": 1e6 * record_s / records,
        "serving.telemetry.scrape_ms_at_30k": 1e3 * (now() - start),
    }


@probe("obs.tracing.enabled_overhead_ratio", "obs.tracing.spans_per_request")
def program_tracing(ctx: Context) -> dict[str, float]:
    """The program's own tracer, on vs off, on the live engine.

    ``tracer`` is a documented constructor argument stored on the engine;
    swapping the attribute avoids a second 10 s ladder set-up.
    """
    engine, workload = ctx.state, ctx.workload
    flight = resolve("repro.obs", "FlightRecorder")()
    tracer = resolve("repro.obs", "Tracer")(recorder=flight)
    off = resolve(engine, "tracer")
    users = workload.users[: 200 if workload.scale.smoke else 2_000]

    def timed() -> float:
        start = now()
        for user in users:
            workload.request(engine, user)
        return now() - start

    off_s = timed()
    engine.tracer = tracer
    try:
        on_s = timed()
    finally:
        engine.tracer = off
    spans = sum(entry["count"] for entry in tracer.span_summary().values())
    return {
        "obs.tracing.enabled_overhead_ratio": on_s / off_s,
        "obs.tracing.spans_per_request": spans / len(users),
    }


@probe("obs.exporter.render_ms")
def exporter(ctx: Context) -> dict[str, float]:
    families = resolve("repro.obs.exporter", "registry_families")
    page = resolve("repro.obs.exporter", "MetricsExporter")(
        lambda: families(ctx.state.metrics)
    )
    start = now()
    page.scrape()
    return {"obs.exporter.render_ms": 1e3 * (now() - start)}


# ------------------------------------------------------------ stream_sharded
@probe("serving.engine.warm_s", "serving.engine.index_bytes")
def stream_build(ctx: Context) -> dict[str, float]:
    return {
        "serving.engine.warm_s": ctx.rec.durations("serving.engine.warm")[0],
        "serving.engine.index_bytes": float(ctx.state.front.memory_bytes()),
    }


@probe(
    "core.fold_in.fold_ms_per_event",
    "serving.streaming.write_visible_p50_ms",
    "serving.streaming.pump_lag_p50_ms",
    "serving.streaming.swaps",
    "serving.streaming.ledger_dropped",
)
def stream_writes(ctx: Context) -> dict[str, float]:
    state = ctx.state
    folded = sum(v.shape[0] for v in state.folder.vectors)
    return {
        "core.fold_in.fold_ms_per_event": 1e3 * sum(state.folder.seconds) / folded,
        "serving.streaming.write_visible_p50_ms": ms(state.write_seconds),
        "serving.streaming.pump_lag_p50_ms": 1e3
        * state.pump.lag_percentiles()["p50"],
        "serving.streaming.swaps": float(state.front.swap_count),
        "serving.streaming.ledger_dropped": float(state.pump.counters()["dropped"]),
    }


@probe("serving.sharded.merged_cache_hit_ratio", "serving.engine.cache_hit_ratio")
def stream_caches(ctx: Context) -> dict[str, float]:
    front = ctx.state.front
    merged = [r.cache_hit for r in front.metrics.records]
    shard = [
        r.cache_hit
        for replica in front.replicas
        for registry in replica.shard_metrics()
        for r in registry.records
    ]
    return {
        "serving.sharded.merged_cache_hit_ratio": float(np.mean(merged)),
        "serving.engine.cache_hit_ratio": float(np.mean(shard)),
    }


@probe("online.bruteforce.query_ms")
def stream_shard_scan(ctx: Context) -> dict[str, float]:
    shard = resolve(ctx.state.front, "active.shards")[0]
    users = ctx.workload.probes[:50]
    _whole, inner = _paired_backend_queries(ctx, shard, lambda u: None, users)
    return {"online.bruteforce.query_ms": ms(inner)}


@probe(
    "serving.sharded.query_ms",
    "serving.sharded.shard_leg_ms",
    "serving.sharded.merge_ms",
    "serving.sharded.fanout_self_ms",
)
def sharded_legs(ctx: Context) -> dict[str, float]:
    """A cache-less twin of one replica, so every query fans out.

    Legs are then called directly, one after the other, and the merge is
    repeated on their results; what the fan-out adds (pool hand-off, the
    two legs sharing memory bandwidth and the interpreter lock) is the
    query minus its slower stand-alone leg minus the merge.
    """
    merge = resolve("repro.serving", "merge_sharded_topn")
    workload = ctx.workload
    engine = resolve("repro.serving", "ShardedServingEngine")(
        workload.world.users,
        workload.world.events,
        workload.candidates,
        n_shards=2,
        backend="bruteforce",
        cache_size=0,
        merged_cache_size=0,
    )
    whole, legs, merges, own = [], [], [], []
    try:
        engine.warm()
        shards = resolve(engine, "shards")
        for i, user in enumerate(workload.probes[:50].tolist()):
            start = now()
            with ctx.rec.span("serving.sharded.query", request=i):
                engine.query(user, config.TOP_N)
            whole.append(now() - start)
            lists, leg = [], []
            for s, shard in enumerate(shards):
                start = now()
                with ctx.rec.span("serving.sharded.shard_leg", request=i):
                    result = shard.query(user, config.TOP_N)
                leg.append(now() - start)
                ids = result.pair_indices
                lists.append(
                    SimpleNamespace(
                        scores=result.scores,
                        keys=ids * len(shards) + s,
                        event_ids=ids,
                        partner_ids=ids,
                    )
                )
            start = now()
            with ctx.rec.span("serving.sharded.merge", request=i):
                merge(lists, config.TOP_N)
            merges.append(now() - start)
            legs.extend(leg)
            own.append(whole[-1] - max(leg) - merges[-1])
    finally:
        engine.close()
    return {
        "serving.sharded.query_ms": ms(whole),
        "serving.sharded.shard_leg_ms": ms(legs),
        "serving.sharded.merge_ms": ms(merges),
        "serving.sharded.fanout_self_ms": ms(own),
    }


@probe("serving.engine.refresh_ms")
def shard_refresh(ctx: Context) -> dict[str, float]:
    workload = ctx.workload
    world = workload.world
    engine = resolve("repro.serving", "ServingEngine")(
        world.users,
        world.events,
        workload.candidates,
        candidate_partners=np.arange(world.n_users // 2, dtype=np.int64),
        backend="bruteforce",
        cache_size=0,
    )
    engine.warm()
    vectors = ctx.state.folder.folded(world.dim)[: config.WRITE_BATCH]
    seconds = []
    for _ in range(5):
        ids = np.arange(
            engine.n_events, engine.n_events + vectors.shape[0], dtype=np.int64
        )
        start = now()
        engine.refresh(ids, vectors)
        seconds.append(now() - start)
    return {"serving.engine.refresh_ms": ms(seconds)}


@probe("serving.streaming.refresh_swap_ms")
def refresh_swap(ctx: Context) -> dict[str, float]:
    """``front.refresh`` called directly, with the pump idle (runs last)."""
    front = ctx.state.front
    vectors = ctx.state.folder.folded(ctx.workload.world.dim)[: config.WRITE_BATCH]
    seconds = []
    for _ in range(4):
        ids = np.arange(
            front.n_events, front.n_events + vectors.shape[0], dtype=np.int64
        )
        start = now()
        front.refresh(ids, vectors)
        seconds.append(now() - start)
    return {"serving.streaming.refresh_swap_ms": ms(seconds)}


# --------------------------------------------------------------- train_joint
@probe(
    "data.synthetic.generate_s",
    "ebsn.graphs.bundle_s",
    "ebsn.graphs.n_edges",
    "core.trainer.init_ms",
    "core.trainer.chunk_ms",
)
def train_spans(ctx: Context) -> dict[str, float]:
    bundle = ctx.state.bundle
    return {
        "data.synthetic.generate_s": ctx.rec.durations("data.synthetic.generate")[0],
        "ebsn.graphs.bundle_s": ctx.rec.durations("ebsn.graphs.bundle")[0],
        "ebsn.graphs.n_edges": float(
            sum(bundle[name].n_edges for name in bundle.names)
        ),
        "core.trainer.init_ms": ms(ctx.rec.durations("core.trainer.init")),
        "core.trainer.chunk_ms": ms(ctx.rec.durations("core.trainer.train")),
    }


_TRAIN_PHASES = (
    "graph_draw",
    "edge_draw",
    "adaptive_refresh",
    "negative_sampling",
    "adjacency_reject",
    "sgd",
)


@probe(
    "core.trainer.reject_cap_hits_per_kstep",
    "core.adaptive.refreshes_per_kstep",
    *(f"core.trainer.phase_share.{phase}" for phase in _TRAIN_PHASES),
)
def train_profile(ctx: Context) -> dict[str, float]:
    """One repetition under the trainer's own (public) profiler."""
    workload = ctx.workload
    trainer = workload.new_trainer(ctx.state, **build_profiler())
    trainer.train(workload.steps_per_repetition)
    report = resolve(trainer, "profile_report")()
    ksteps = report["counters"]["steps_done"] / 1e3
    out = {
        "core.trainer.reject_cap_hits_per_kstep": report["counters"][
            "reject_cap_hits"
        ]
        / ksteps,
        "core.adaptive.refreshes_per_kstep": report["counters"]["adaptive_refreshes"]
        / ksteps,
    }
    for phase in _TRAIN_PHASES:
        out[f"core.trainer.phase_share.{phase}"] = float(
            report["phases"][phase]["share"]
        )
    return out


@probe(
    "core.parallel.steps_s_w1",
    "core.parallel.steps_s_w2",
    "core.parallel.scaling_w2",
)
def hogwild(ctx: Context) -> dict[str, float]:
    train_parallel = resolve("repro.core", "train_parallel")
    workload = ctx.workload
    rates = {}
    for workers in (1, 2):
        result = train_parallel(
            ctx.state.bundle,
            workload.trainer_config(),
            workload.steps_per_repetition,
            workers,
            seed=workload.seed,
        )
        rates[workers] = result.total_steps / result.wall_seconds
    return {
        "core.parallel.steps_s_w1": rates[1],
        "core.parallel.steps_s_w2": rates[2],
        "core.parallel.scaling_w2": rates[2] / rates[1],
    }


@probe("evaluation.protocol.eval_s")
def evaluation(ctx: Context) -> dict[str, float]:
    start = now()
    ctx.workload.evaluate(ctx.state)
    return {"evaluation.protocol.eval_s": now() - start}


PROBES: dict[str, list[Probe]] = {
    "serve_scan": [trace_overhead, scan_build, scan_query, ta_queries],
    "serve_ladder": [
        trace_overhead,
        ladder_build,
        ivf_rung,
        ladder_outcomes,
        admission,
        telemetry,
        program_tracing,
        exporter,
    ],
    "stream_sharded": [
        trace_overhead,
        stream_build,
        stream_writes,
        stream_caches,
        stream_shard_scan,
        sharded_legs,
        shard_refresh,
        refresh_swap,
    ],
    "train_joint": [trace_overhead, train_spans, train_profile, hogwild, evaluation],
}
