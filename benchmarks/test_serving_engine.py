"""Serving-engine batching and caching on the ``beijing-small`` preset.

The unified engine's production claims, end to end.  Asserted: batch
answers are identical to the per-user loop's and to the warm cache's, and
the contracts / TSAN / tracing gates are structurally free when off.
Reported (emitted tables, never asserted — no gate reads the wall clock,
speed is judged by the benchmark spine): ``recommend_batch``'s one shared
pass against the per-user loop, the warm LRU cache, and each gate's
per-query cost on and off, each the best of several rounds.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit
from repro.serving import ServingEngine

ROUNDS = 5


def _best_of(fn, rounds=ROUNDS):
    """(min seconds, last result) over ``rounds`` calls of ``fn``."""
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_batch_and_cache_beat_per_user_loop(ctx, benchmark):
    model = ctx.model("GEM-A")
    candidate_events = np.array(sorted(ctx.split.test_events), dtype=np.int64)
    rng = np.random.default_rng(ctx.eval_seed)
    users = rng.choice(ctx.ebsn.n_users, size=40, replace=False)
    n = 10

    def make_engine(cache_size):
        return ServingEngine(
            model.user_vectors,
            model.event_vectors,
            candidate_events,
            backend="bruteforce",
            cache_size=cache_size,
        ).warm()

    # Per-user loop and pure batch path, both with the cache disabled so
    # the comparison is loop-vs-batch retrieval and nothing else.
    loop_engine = make_engine(cache_size=0)
    loop_s, loop_results = _best_of(
        lambda: [loop_engine.recommend(int(u), n=n) for u in users]
    )

    batch_engine = make_engine(cache_size=0)
    timing = {}

    def batch_best():
        timing["batch"], out = _best_of(
            lambda: batch_engine.recommend_batch(users, n=n)
        )
        return out

    batch_results = benchmark.pedantic(batch_best, rounds=1, iterations=1)
    batch_s = timing["batch"]

    # Warm LRU cache: one cold batch populates it, then repeats are hits.
    cached_engine = make_engine(cache_size=256)
    cached_engine.recommend_batch(users, n=n)
    warm_s, warm_results = _best_of(
        lambda: cached_engine.recommend_batch(users, n=n)
    )

    summary = cached_engine.metrics.summary()
    emit(
        f"Serving engine ({len(users)} users, top-{n}, "
        f"{batch_engine.n_candidate_pairs:,} pairs, best of {ROUNDS}): "
        f"per-user loop {loop_s * 1000:.1f} ms, batch "
        f"{batch_s * 1000:.1f} ms (x{loop_s / max(batch_s, 1e-9):.1f}), "
        f"warm cache {warm_s * 1000:.1f} ms "
        f"(x{loop_s / max(warm_s, 1e-9):.1f}); cache hit rate "
        f"{summary['cache_hit_rate']:.0%}"
    )

    # Identical answers; the speeds above are reported, never gated
    # (no gate reads the wall clock — speed is the benchmark spine's).
    for a, b, c in zip(loop_results, batch_results, warm_results):
        assert [(r.event, r.partner) for r in a] == [
            (r.event, r.partner) for r in b
        ]
        assert [(r.event, r.partner) for r in b] == [
            (r.event, r.partner) for r in c
        ]
    # Every user in every warm round was answered from the cache.
    assert summary["n_cache_hits"] == ROUNDS * len(users)


# Probe script run in a fresh interpreter so REPRO_CONTRACTS is read at
# import (decoration) time — the gate the production claim rests on.
# Prints one JSON line: whether contracts compiled in, which hot-path
# callables carry the contract wrapper, and a best-of-rounds per-query
# latency for ServingEngine.recommend on a small synthetic model.
_CONTRACTS_PROBE = """
import json
import time

import numpy as np

from repro.contracts import contracts_enabled
from repro.core.fold_in import EventFoldIn
from repro.core.scoring import triple_scores
from repro.online.bruteforce import BruteForceIndex
from repro.online.ta import ThresholdAlgorithmIndex
from repro.online.transform import query_vector, transform_pairs
from repro.serving import ServingEngine

markers = {
    "query_vector": hasattr(query_vector, "__repro_contract__"),
    "transform_pairs": hasattr(transform_pairs, "__repro_contract__"),
    "triple_scores": hasattr(triple_scores, "__repro_contract__"),
    "bruteforce.query": hasattr(
        BruteForceIndex.query, "__repro_contract__"
    ),
    "ta.query": hasattr(
        ThresholdAlgorithmIndex.query, "__repro_contract__"
    ),
    "fold_in": hasattr(EventFoldIn.fold_in, "__repro_contract__"),
}

rng = np.random.default_rng(0)
users = np.abs(rng.normal(size=(32, 8))).astype(np.float32)
events = np.abs(rng.normal(size=(64, 8))).astype(np.float32)
engine = ServingEngine(
    users,
    events,
    np.arange(64, dtype=np.int64),
    backend="bruteforce",
    cache_size=0,
).warm()

N_QUERIES, ROUNDS = 200, 5
for u in range(8):  # warm numpy / code paths before timing
    engine.recommend(u, n=5)
best = float("inf")
for _ in range(ROUNDS):
    t0 = time.perf_counter()
    for i in range(N_QUERIES):
        engine.recommend(i % 32, n=5)
    best = min(best, time.perf_counter() - t0)

print(json.dumps({
    "enabled": contracts_enabled(),
    "markers": markers,
    "per_query_us": best / N_QUERIES * 1e6,
}))
"""


def _run_contracts_probe(contracts_env):
    import json

    env = os.environ.copy()
    env.pop("REPRO_CONTRACTS", None)
    if contracts_env is not None:
        env["REPRO_CONTRACTS"] = contracts_env
    src = str(Path(__file__).resolve().parents[1] / "src")
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not prior else os.pathsep.join([src, prior])
    out = subprocess.run(
        [sys.executable, "-c", _CONTRACTS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_disabled_contracts_add_no_per_query_cost():
    """With REPRO_CONTRACTS off, ``check_shapes`` is the identity.

    Two structural facts make the zero-overhead claim exact rather than
    statistical: the decorator is applied at import time, and when the
    gate is off it returns the function object unchanged — no wrapper,
    no signature binding, no per-call branch.  The probe asserts exactly
    that (no ``__repro_contract__`` marker anywhere on the serving hot
    path; ``tests/test_contracts.py`` holds the identity in tier-1) and
    reports both modes' per-query cost.
    """
    disabled = _run_contracts_probe(None)
    enabled = _run_contracts_probe("1")

    # Gate wiring: off by default, on when requested.
    assert not disabled["enabled"]
    assert enabled["enabled"]

    # Structural zero-overhead proof: no wrapper exists when disabled,
    # and the same callables are all wrapped when enabled.
    assert not any(disabled["markers"].values()), disabled["markers"]
    assert all(enabled["markers"].values()), enabled["markers"]

    emit(
        f"Contracts overhead (ServingEngine.recommend, best of rounds): "
        f"disabled {disabled['per_query_us']:.1f} us/query, "
        f"enabled {enabled['per_query_us']:.1f} us/query "
        f"(x{enabled['per_query_us'] / max(disabled['per_query_us'], 1e-9):.2f})"
    )


# Same fresh-interpreter pattern for the REPRO_TSAN lock-coverage
# sanitizer: its gate is read once at repro.sanitizer import time, so
# the structural facts (identity tsan_lock, no trace hook, raw lock
# objects on the engine) are only observable in a subprocess.
_TSAN_PROBE = """
import json
import sys
import threading
import time

import numpy as np

from repro import sanitizer
from repro.serving import ServingEngine

raw = threading.Lock()
structure = {
    "enabled": sanitizer.enabled(),
    "identity_lock": sanitizer.tsan_lock(raw, "_probe") is raw,
    "trace_installed": sys.gettrace() is not None,
}

rng = np.random.default_rng(0)
users = np.abs(rng.normal(size=(32, 8))).astype(np.float32)
events = np.abs(rng.normal(size=(64, 8))).astype(np.float32)
engine = ServingEngine(
    users,
    events,
    np.arange(64, dtype=np.int64),
    backend="bruteforce",
    cache_size=0,
).warm()
structure["locks_wrapped"] = (
    type(engine._cache_lock).__name__ == "_TsanLock"
    and type(engine._build_lock).__name__ == "_TsanLock"
)

N_QUERIES, ROUNDS = 200, 5
for u in range(8):  # warm numpy / code paths before timing
    engine.recommend(u, n=5)
best = float("inf")
for _ in range(ROUNDS):
    t0 = time.perf_counter()
    for i in range(N_QUERIES):
        engine.recommend(i % 32, n=5)
    best = min(best, time.perf_counter() - t0)
structure["per_query_us"] = best / N_QUERIES * 1e6

print(json.dumps(structure))
"""


def _run_tsan_probe(tsan_env):
    import json

    env = os.environ.copy()
    env.pop("REPRO_TSAN", None)
    if tsan_env is not None:
        env["REPRO_TSAN"] = tsan_env
    src = str(Path(__file__).resolve().parents[1] / "src")
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not prior else os.pathsep.join([src, prior])
    out = subprocess.run(
        [sys.executable, "-c", _TSAN_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_disabled_tsan_adds_no_per_query_cost():
    """With REPRO_TSAN off, the sanitizer is structurally free.

    Off is the production default, and its zero-cost claim is exact, not
    statistical: ``tsan_lock`` returns its argument unchanged (serving
    engines hold raw ``threading`` locks) and no ``sys.settrace`` hook
    is installed.  The probe asserts both facts (as
    ``tests/test_sanitizer.py`` does in tier-1) and reports both modes'
    per-query cost.
    """
    disabled = _run_tsan_probe(None)
    enabled = _run_tsan_probe("1")

    # Gate wiring: off by default, on when requested.
    assert not disabled["enabled"]
    assert enabled["enabled"]

    # Structural zero-overhead proof for the default mode.
    assert disabled["identity_lock"]
    assert not disabled["trace_installed"]
    assert not disabled["locks_wrapped"]

    # And the sanitized mode really is armed end to end.
    assert not enabled["identity_lock"]
    assert enabled["trace_installed"]
    assert enabled["locks_wrapped"]

    emit(
        f"TSAN overhead (ServingEngine.recommend, best of rounds): "
        f"disabled {disabled['per_query_us']:.1f} us/query, "
        f"sanitized {enabled['per_query_us']:.1f} us/query "
        f"(x{enabled['per_query_us'] / max(disabled['per_query_us'], 1e-9):.2f})"
    )


def test_disabled_tracing_adds_no_per_request_cost():
    """With no tracer passed, the obs layer is structurally free.

    The zero-cost claim follows the same no-op-singleton design as the
    contracts and TSAN gates, and its structural half is exact: an
    engine constructed without a tracer holds the shared NULL_TRACER,
    whose ``request``/``start`` return the shared NULL_SPAN, every
    method of which returns itself without touching a clock or a lock
    (``tests/test_obs.py`` holds the identities in tier-1).  Both modes'
    per-request cost is reported.
    """
    from repro.obs import NULL_SPAN, NULL_TRACER, Tracer

    rng = np.random.default_rng(0)
    users = np.abs(rng.normal(size=(32, 8))).astype(np.float32)
    events = np.abs(rng.normal(size=(64, 8))).astype(np.float32)

    def build(tracer):
        return ServingEngine(
            users,
            events,
            np.arange(64, dtype=np.int64),
            backend="bruteforce",
            cache_size=0,
            tracer=tracer,
        ).warm()

    plain = build(None)

    # Structural zero-overhead proof: the default engine shares the
    # null singletons, and every span operation is identity on them.
    assert plain.tracer is NULL_TRACER
    assert NULL_TRACER.request("request") is NULL_SPAN
    assert NULL_TRACER.start("request") is NULL_SPAN
    assert NULL_SPAN.child("rung.full") is NULL_SPAN
    assert NULL_SPAN.tag(rung="full") is NULL_SPAN
    assert NULL_SPAN.annotate("queue.wait", 0.0) is NULL_SPAN

    traced = build(Tracer())
    from repro.serving import RequestContext

    N_QUERIES = 200

    def drive(engine):
        def run():
            for i in range(N_QUERIES):
                engine.recommend_within(
                    i % 32, n=5, ctx=RequestContext(1.0)
                )

        best, _ = _best_of(run)
        return best / N_QUERIES * 1e6

    for engine in (plain, traced):  # warm both paths before timing
        for u in range(8):
            engine.recommend_within(u, n=5, ctx=RequestContext(1.0))
    plain_us = drive(plain)
    traced_us = drive(traced)

    emit(
        f"Tracing overhead (recommend_within, best of rounds): "
        f"disabled {plain_us:.1f} us/request, "
        f"traced {traced_us:.1f} us/request "
        f"(x{traced_us / max(plain_us, 1e-9):.2f})"
    )
