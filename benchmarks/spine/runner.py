"""Run one workload in this process and report it.

The untraced run yields the end-to-end metrics; the traced run measures
the same op list twice (spans off, then on), runs the per-layer probes and
yields the per-layer metrics.  The last line printed is the contract's
result object; everything above it is for people.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import platform
import resource
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.spine import config, probes
from benchmarks.spine.reference import local_factors, round_factor
from benchmarks.spine.spans import NullRecorder, SpanRecorder
from benchmarks.spine.stats import (
    MIN_SAMPLES_BEYOND,
    median,
    nearest_rank,
    samples_beyond,
    tail_percentile,
)
from benchmarks.spine.workloads import BY_NAME, Check, Phase

now = time.perf_counter


@dataclass(slots=True)
class Result:
    """Everything one run measured, before it is rendered."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    plan: dict[str, Any]
    machine: dict[str, Any]
    end_to_end: dict[str, dict[str, Any]]
    per_layer: dict[str, float | None] = field(default_factory=dict)
    unresolved: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def metrics(self) -> dict[str, dict[str, Any]]:
        """The contract's ``metrics`` object for this kind of run."""
        if not self.trace:
            return {
                m.name: {"value": self.end_to_end[m.name]["value"], "unit": m.unit}
                for m in config.END_TO_END
            }
        out = {}
        for m in config.PER_LAYER:
            value = self.per_layer.get(m.name)
            out[m.name] = {
                "value": config.NOT_MEASURED if value is None else value,
                "unit": m.unit,
            }
        return out

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics(),
            }
        )

    def detail(self) -> dict[str, Any]:
        """Everything, for the detail file beside the spans."""
        return {
            **asdict(self),
            "correct": self.correct,
            "failed_ratio": self.failed / max(self.attempted, 1),
        }


def machine_info() -> dict[str, Any]:
    """What the numbers were taken on (recorded beside every result)."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dtype": "float64",
    }


def prime_memory(megabytes: int) -> None:
    """Touch and free ``megabytes`` so the next build finds them at hand."""
    if megabytes:
        np.ones(megabytes * 2**20 // 8, dtype=np.float64).sum()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p95(samples_ms: list[float], smoke: bool) -> float:
    """p95 with the ten-samples-beyond guard (waived for smoke runs)."""
    if smoke:
        return nearest_rank(samples_ms, 95.0)
    return tail_percentile(samples_ms, 95.0)


def end_to_end(
    setups: list[float],
    phases: list[Phase],
    nominal_s: float,
    check: Check,
    rss_mb: float,
    smoke: bool,
) -> dict[str, dict[str, Any]]:
    """The seven end-to-end metrics from the rounds' raw measurements.

    Time metrics are reported at nominal machine speed: every op's time is
    divided by the machine factor beside it, set-up time and the time a
    phase spends outside its sampled ops (loop overhead, the writes of
    ``stream_sharded``) by the round's factor; see
    :mod:`benchmarks.spine.reference`.  ``raw`` keeps the value as measured.
    """
    ops = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    ms: list[float] = []
    raw_ms: list[float] = []
    nominal_seconds = 0.0
    nominal_setups = []
    for setup_s, phase in zip(setups, phases):
        samples = np.asarray(phase.samples, dtype=np.float64)
        whole = round_factor(phase.reference, nominal_s)
        at_nominal = samples / local_factors(
            samples.size, phase.reference, phase.reference_at, nominal_s
        )
        ms.extend((1e3 * at_nominal).tolist())
        raw_ms.extend((1e3 * samples).tolist())
        nominal_seconds += at_nominal.sum() + (phase.seconds - samples.sum()) / whole
        nominal_setups.append(setup_s / whole)
    values = {
        "setup_s": (median(nominal_setups), median(setups), len(setups)),
        "throughput_ops_s": (
            ops / nominal_seconds,
            ops / sum(p.seconds for p in phases),
            ops,
        ),
        "latency_p50_ms": (median(ms), median(raw_ms), len(ms)),
        "latency_p95_ms": (_p95(ms, smoke), _p95(raw_ms, smoke), len(ms)),
        "answer_quality": (check.quality, check.quality, 1),
        "peak_rss_mb": (rss_mb, rss_mb, 1),
        "success_ratio": ((ops - failed) / ops, (ops - failed) / ops, ops),
    }
    return {
        m.name: {
            "value": float(values[m.name][0]),
            "raw": float(values[m.name][1]),
            "unit": m.unit,
            "samples": values[m.name][2],
        }
        for m in config.END_TO_END
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path
) -> Result:
    """Run ``name`` once in this process."""
    scale = config.SMOKE if smoke else config.FULL
    machine = machine_info()
    machine["probe_ms_before"] = probes.machine_probe_ms(smoke)
    workload = BY_NAME[name](seed, scale, seconds, trace)
    rec: SpanRecorder | NullRecorder = SpanRecorder() if trace else NullRecorder()
    setup_kwargs = (
        probes.build_profiler() if trace and workload.accepts_profiler else {}
    )

    ref = workload.ref
    setups: list[float] = []
    phases: list[Phase] = []
    plain: Phase | None = None
    check = Check(quality=0.0)
    per_layer: dict[str, float | None] = {}
    unresolved: dict[str, str] = {}
    rss_mb = 0.0
    for round_index in range(workload.rounds):
        gc.collect()
        if not smoke:
            prime_memory(config.PRIME_MB[name])
        start = now()
        with rec.span("setup"):
            state = workload.setup(rec, **setup_kwargs)
        setup_s = now() - start
        try:
            workload.warm_up(state, round_index)
            gc.collect()
            if trace:
                plain = workload.measure(state, round_index, NullRecorder())
                gc.collect()
            phase = workload.measure(state, round_index, rec)
            phases.append(phase)
            setups.append(setup_s)
            rss_mb = peak_rss_mb()
            if round_index == workload.rounds - 1:
                check = workload.check(state)
                if trace:
                    assert plain is not None and isinstance(rec, SpanRecorder)
                    per_layer, unresolved = probes.run_probes(
                        probes.PROBES[name],
                        probes.Context(workload, state, rec, plain, phase),
                    )
        finally:
            workload.teardown(state)
        del state

    machine["probe_ms_after"] = probes.machine_probe_ms(smoke)
    if trace:
        per_layer["machine.probe_ms"] = median(
            [machine["probe_ms_before"], machine["probe_ms_after"]]
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.dump(out_dir / f"{name}-seed{seed}.spans.json")
    result = Result(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        smoke=smoke,
        plan={
            "rounds": workload.rounds,
            "op": workload.op,
            "ops_per_round": phases[0].ops,
            "latency_samples_per_round": len(phases[0].samples),
            "setup_s_by_round": setups,
            "reference": ref.kind,
            "reference_nominal_ms": 1e3 * ref.nominal_s,
            "reference_samples": sum(len(p.reference) for p in phases),
            "machine_factor_by_round": [
                round_factor(p.reference, ref.nominal_s) for p in phases
            ],
            "tallies": dict(
                sum(
                    (
                        collections.Counter(
                            {k: v for k, v in p.counts.items() if isinstance(v, int)}
                        )
                        for p in phases
                    ),
                    collections.Counter(),
                )
            ),
        },
        machine=machine,
        end_to_end=end_to_end(
            setups, phases, ref.nominal_s, check, rss_mb, smoke or trace
        ),
        per_layer=per_layer,
        unresolved=unresolved,
        problems=check.problems,
        attempted=sum(p.ops for p in phases),
        failed=sum(p.failed for p in phases),
    )
    if result.failed:
        result.problems.append(f"{result.failed} of {result.attempted} ops failed")
    return result


def render(result: Result) -> str:
    """The human-readable report printed above the result line."""
    m = result.machine
    lines = [
        f"== spine {result.workload}: seed={result.seed} seconds={result.seconds:g} "
        f"trace={int(result.trace)} smoke={result.smoke} ==",
        f"machine: nproc={m['nproc']} numpy={m['numpy']} blas={m['blas']} "
        f"blas_threads={m['blas_threads']} dtype={m['dtype']} "
        f"probe_ms={m['probe_ms_before']:.2f}->{m['probe_ms_after']:.2f}",
        f"plan: {result.plan['rounds']} round(s) x {result.plan['ops_per_round']} "
        f"{result.plan['op']}(s), {result.plan['latency_samples_per_round']} latency "
        "samples each",
        f"machine factor ({result.plan['reference']} kernel, nominal "
        f"{result.plan['reference_nominal_ms']:g} ms, "
        f"{result.plan['reference_samples']} samples): "
        + " ".join(f"{f:.3f}" for f in result.plan["machine_factor_by_round"]),
        "tallies: "
        + " ".join(f"{k}={v}" for k, v in sorted(result.plan["tallies"].items())),
        "end-to-end at nominal machine speed"
        + (" (traced run: informational)" if result.trace else ""),
        f"  {'metric':<20} {'value':>14} {'unit':<6} {'as measured':>14}  samples",
    ]
    for name, entry in result.end_to_end.items():
        lines.append(
            f"  {name:<20} {entry['value']:>14.6g} {entry['unit']:<6} "
            f"{entry['raw']:>14.6g}  n={entry['samples']}"
        )
    beyond = samples_beyond(result.end_to_end["latency_p95_ms"]["samples"], 95.0)
    lines.append(f"  ({beyond} samples beyond p95; {MIN_SAMPLES_BEYOND} required)")
    if result.trace:
        lines.append("per-layer")
        for metric in config.PER_LAYER:
            if result.workload not in metric.on:
                continue
            value = result.per_layer.get(metric.name)
            shown = (
                f"{value:>14.6g} {metric.unit}"
                if value is not None
                else f"{'null':>14} ({result.unresolved.get(metric.name, 'not run')})"
            )
            lines.append(f"  {metric.name:<44} {shown}")
    verdict = "ok" if result.correct else "FAILED: " + "; ".join(result.problems)
    lines.append(
        f"checks: {verdict} (attempted={result.attempted} failed={result.failed})"
    )
    return "\n".join(lines)


def emit(result: Result, out_dir: Path) -> None:
    """Print the report, keep the detail beside the spans, end on the line."""
    print(render(result))
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "trace" if result.trace else "run"
    path = out_dir / f"{result.workload}-seed{result.seed}.{kind}.json"
    path.write_text(json.dumps(result.detail(), indent=1))
    print(f"detail: {path}")
    print(result.result_line(), flush=True)
