"""Names, units, bounds and sizes: the single table the spine is built on.

``BENCHMARK.json`` at the repository root is this table written out; the
self-tests fail when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.spine.worlds import FULL_SHAPE, SMOKE_SHAPE

DEFAULT_SEED = 13
RUN_SECONDS = 12
TOP_N = 10
LADDER_BUDGET_S = 0.010
#: Probe users whose answers are compared with the oracle.  Exact-match
#: workloads use 64; ``serve_ladder`` averages recall over 128 so that the
#: probe sample adds < 1 % to the seed-to-seed spread of its quality.
N_EXACT_PROBES = 64
N_RECALL_PROBES = 128
N_SYMMETRY_TRIPLES = 64
READS_PER_WRITE = 50
#: Popularity skew of ``stream_sharded``'s readers.  At the textbook 1.0 a
#: third of the reads hit the merged-answer cache, which puts the *median*
#: read at the 27th percentile of the reads that fan out, where their
#: distribution is steep (the two shard legs overlap fully or they do not):
#: p50 spread 12-17 % between runs.  At 0.7 an eighth of the reads hit and
#: the median read is a typical fan-out read.
ZIPF_EXPONENT = 0.7
WRITE_BATCH = 4
STEPS_PER_CHUNK = 4096
WARMUP_SHARE = 0.05

WORKLOADS: dict[str, str] = {
    "serve_scan": (
        "exact full scan does ~0.9 of every request: scan/representation "
        "changes must show here, engine/ladder/telemetry overhead changes "
        "must not"
    ),
    "serve_ladder": (
        "deadline path served by the ~0.5 ms ivf rung: request context, "
        "ladder policy, outcome, cell ranking, decode and telemetry do most "
        "of the work; a full-scan speed-up predicts no change"
    ),
    "stream_sharded": (
        "same scan kernel behind 2-shard fan-out + exact merge and caches "
        "that every write invalidates, while fold-in/refresh/swap run beside "
        "the reads"
    ),
    "train_joint": (
        "offline half (Algorithm 2): identical repeated trainings; no serving "
        "code runs, so serving changes predict no change and vice versa"
    ),
}


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median by which the metric
    #: may worsen before a change is rejected.
    bound: float | None = None
    #: Per-layer only: workloads whose traced run measures it.
    on: tuple[str, ...] = ()


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("answer_quality", "ratio", "higher", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("success_ratio", "ratio", "higher", 0.01),
)

_SCAN, _LADDER, _STREAM, _TRAIN = WORKLOADS
_SERVE = (_SCAN, _LADDER, _STREAM)
_ALL = (_SCAN, _LADDER, _STREAM, _TRAIN)


def _layer(name: str, unit: str, better: str, *on: str) -> Metric:
    return Metric(name, unit, better, None, on)


PER_LAYER: tuple[Metric, ...] = (
    _layer("data.synthetic.generate_s", "s", "lower", _TRAIN),
    _layer("ebsn.graphs.bundle_s", "s", "lower", _TRAIN),
    _layer("ebsn.graphs.n_edges", "count", "lower", _TRAIN),
    _layer("core.trainer.init_ms", "ms", "lower", _TRAIN),
    _layer("core.trainer.chunk_ms", "ms", "lower", _TRAIN),
    _layer("core.trainer.phase_share.graph_draw", "ratio", "lower", _TRAIN),
    _layer("core.trainer.phase_share.edge_draw", "ratio", "lower", _TRAIN),
    _layer("core.trainer.phase_share.adaptive_refresh", "ratio", "lower", _TRAIN),
    _layer("core.trainer.phase_share.negative_sampling", "ratio", "lower", _TRAIN),
    _layer("core.trainer.phase_share.adjacency_reject", "ratio", "lower", _TRAIN),
    _layer("core.trainer.phase_share.sgd", "ratio", "higher", _TRAIN),
    _layer("core.trainer.reject_cap_hits_per_kstep", "1/kstep", "lower", _TRAIN),
    _layer("core.adaptive.refreshes_per_kstep", "1/kstep", "lower", _TRAIN),
    _layer("core.parallel.steps_s_w1", "1/s", "higher", _TRAIN),
    _layer("core.parallel.steps_s_w2", "1/s", "higher", _TRAIN),
    _layer("core.parallel.scaling_w2", "ratio", "higher", _TRAIN),
    _layer("core.fold_in.fold_ms_per_event", "ms", "lower", _STREAM),
    _layer("online.transform.build_space_s", "s", "lower", _SCAN),
    _layer("online.transform.bytes_per_pair", "B", "lower", _SCAN),
    _layer("online.bruteforce.query_ms", "ms", "lower", _SCAN, _STREAM),
    _layer("online.ivf.build_s", "s", "lower", _LADDER),
    _layer("online.ivf.index_bytes", "B", "lower", _LADDER),
    _layer("online.ivf.query_ms", "ms", "lower", _LADDER),
    _layer("online.ivf.fraction_examined", "ratio", "lower", _LADDER),
    _layer("online.ivf.clusters_probed", "count", "lower", _LADDER),
    _layer("online.pruning.build_pruned_s", "s", "lower", _LADDER),
    _layer("online.ta.query_ms", "ms", "lower", _SCAN),
    _layer("online.ta.fraction_examined", "ratio", "lower", _SCAN),
    _layer("serving.engine.warm_s", "s", "lower", *_SERVE),
    _layer("serving.engine.warm_ladder_s", "s", "lower", _LADDER),
    _layer("serving.engine.index_bytes", "B", "lower", *_SERVE),
    _layer("serving.engine.recommend_ms", "ms", "lower", _SCAN),
    _layer("serving.engine.self_ms", "ms", "lower", _SCAN),
    _layer("serving.engine.refresh_ms", "ms", "lower", _STREAM),
    _layer("serving.engine.cache_hit_ratio", "ratio", "higher", _STREAM),
    _layer("serving.lifecycle.within_self_ms", "ms", "lower", _LADDER),
    _layer("serving.lifecycle.rung_share.full", "ratio", "higher", _LADDER),
    _layer("serving.lifecycle.rung_share.pruned", "ratio", "higher", _LADDER),
    _layer("serving.lifecycle.rung_share.ivf", "ratio", "higher", _LADDER),
    _layer("serving.lifecycle.rung_share.truncated", "ratio", "lower", _LADDER),
    _layer("serving.lifecycle.rung_share.stale_cache", "ratio", "lower", _LADDER),
    _layer("serving.lifecycle.deadline_met_ratio", "ratio", "higher", _LADDER),
    _layer("serving.lifecycle.shed_ratio", "ratio", "lower", _LADDER),
    _layer("serving.lifecycle.admit_us", "us", "lower", _LADDER),
    _layer("serving.sharded.query_ms", "ms", "lower", _STREAM),
    _layer("serving.sharded.shard_leg_ms", "ms", "lower", _STREAM),
    _layer("serving.sharded.merge_ms", "ms", "lower", _STREAM),
    _layer("serving.sharded.fanout_self_ms", "ms", "lower", _STREAM),
    _layer("serving.sharded.merged_cache_hit_ratio", "ratio", "higher", _STREAM),
    _layer("serving.streaming.write_visible_p50_ms", "ms", "lower", _STREAM),
    _layer("serving.streaming.refresh_swap_ms", "ms", "lower", _STREAM),
    _layer("serving.streaming.pump_lag_p50_ms", "ms", "lower", _STREAM),
    _layer("serving.streaming.swaps", "count", "lower", _STREAM),
    _layer("serving.streaming.ledger_dropped", "count", "lower", _STREAM),
    _layer("serving.telemetry.record_us", "us", "lower", _LADDER),
    _layer("serving.telemetry.scrape_ms_at_30k", "ms", "lower", _LADDER),
    _layer("obs.tracing.enabled_overhead_ratio", "ratio", "lower", _LADDER),
    _layer("obs.tracing.spans_per_request", "count", "lower", _LADDER),
    _layer("obs.exporter.render_ms", "ms", "lower", _LADDER),
    _layer("evaluation.protocol.eval_s", "s", "lower", _TRAIN),
    _layer("bench.trace_overhead_ratio", "ratio", "higher", *_ALL),
    _layer("machine.probe_ms", "ms", "lower", *_ALL),
)

#: Value a layer metric reads in the result line when this workload does
#: not measure it, or its probe could not resolve its target: the contract
#: wants a number for every declared metric, and no measurement is negative.
NOT_MEASURED = -1.0


@dataclass(frozen=True, slots=True)
class Scale:
    """World and op-count sizes for a full or a smoke run."""

    smoke: bool
    shape: tuple[int, int, int]
    ivf_clusters: int
    ivf_nprobe: int
    preset: str
    chunks_per_repetition: int
    #: Ops per measured second at the commit that sized the workloads;
    #: op counts are ``rate x --seconds`` so they repeat for a given seed.
    scan_ops_s: float
    ladder_ops_s: float
    stream_reads_s: float
    train_steps_s: float
    #: Traced run: fixed, smaller op counts.
    trace_requests: int
    trace_writes: int
    eval_cases: int


FULL = Scale(
    smoke=False,
    shape=FULL_SHAPE,
    ivf_clusters=815,
    # Recall@10 of the ivf rung on the seed worlds: 0.84 at nprobe 2,
    # 0.92 at 3, 0.95 at 4, 0.98 at 6 (median of 8 seeds).  4 is the
    # smallest width that stays inside [0.85, 0.99] on every seed tried.
    ivf_nprobe=4,
    preset="beijing-small",
    chunks_per_repetition=48,
    scan_ops_s=33.0,
    ladder_ops_s=1800.0,
    stream_reads_s=55.0,
    train_steps_s=100_000.0,
    trace_requests=400,
    trace_writes=12,
    eval_cases=1024,
)

SMOKE = Scale(
    smoke=True,
    shape=SMOKE_SHAPE,
    ivf_clusters=69,
    ivf_nprobe=4,
    preset="tiny",
    chunks_per_repetition=4,
    scan_ops_s=400.0,
    ladder_ops_s=1000.0,
    stream_reads_s=300.0,
    train_steps_s=30_000.0,
    trace_requests=60,
    trace_writes=2,
    eval_cases=64,
)

#: MB of memory the process touches and frees right before each set-up.
#: The hypervisor takes freed guest pages back within seconds, and getting
#: them again costs 0.5-1.5 s of *system* time per build (the program's own
#: share of `warm()` is 0.1 s of user time): unprimed, ten identical
#: `warm()` calls took 0.16-2.6 s; primed, 0.15-0.18 s.  Sized below each
#: workload's own high-water mark so that `peak_rss_mb` is unaffected;
#: `train_joint` sets up in the interpreter, not in fresh memory.
PRIME_MB = {
    "serve_scan": 320,
    "serve_ladder": 320,
    "stream_sharded": 512,
    "train_joint": 0,
}

#: Rounds per run: each round sets the system up afresh (one ``setup_s``
#: sample) and measures a share of the ops, so a run spreads its measured
#: time over more of the machine's 10-40 s drift than one block would.
#: ``serve_ladder`` sets up twice because one set-up costs ~10 s.
ROUNDS = {"serve_scan": 3, "serve_ladder": 2, "stream_sharded": 3, "train_joint": 3}

#: Per-layer values that are counts or ratios of counts: for a given seed
#: they must repeat exactly from one traced run to the next.
REPEATABLE: tuple[str, ...] = (
    "ebsn.graphs.n_edges",
    "core.trainer.reject_cap_hits_per_kstep",
    "core.adaptive.refreshes_per_kstep",
    "online.transform.bytes_per_pair",
    "online.ivf.index_bytes",
    "online.ivf.fraction_examined",
    "online.ivf.clusters_probed",
    "online.ta.fraction_examined",
    "serving.engine.index_bytes",
    "serving.engine.cache_hit_ratio",
    "serving.sharded.merged_cache_hit_ratio",
    "serving.streaming.swaps",
    "serving.streaming.ledger_dropped",
    "obs.tracing.spans_per_request",
)


def benchmark_json() -> dict[str, object]:
    """The contents of ``BENCHMARK.json`` at the repository root."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
