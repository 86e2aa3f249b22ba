#!/usr/bin/env bash
# The pre-merge gate: ruff -> replint -> mypy -> tier-1 tests -> smokes.
#
#   ./scripts/check.sh
#
# Stages:
#   1. ruff    — general Python lint (E4/E7/E9/F + bugbear + numpy rules)
#   2. replint — the project-specific invariant linter (REP001-REP006
#                per-file, REP007-REP011 project-aware concurrency,
#                lifecycle and span-scope passes; see
#                tools/replint/__init__.py).
#                Always runs: it is stdlib-only and lives in this repo.
#   3. mypy    — the strict typing gate over src/repro (pyproject.toml)
#   4. pytest  — the tier-1 suite from ROADMAP.md, with runtime
#                shape/dtype contracts enabled
#   5. tsan stress — the sanitizer self-tests plus the threaded serving
#                and conformance suites under REPRO_TSAN=1: every
#                guarded-by declaration is checked at runtime while real
#                threads hammer every engine composition
#                (src/repro/sanitizer.py; DESIGN.md §7)
#   6. load smoke — the serving load harness with injected 50 ms backend
#                stalls on a tiny synthetic preset, asserting p99 within
#                the deadline budget and zero silent drops
#                (benchmarks/load_harness.py; see docs/OPERATIONS.md)
#   7. training smoke — the training throughput harness on the tiny
#                preset, asserting the batched train() path is at least
#                3x the single-step reference path
#                (benchmarks/train_harness.py; see DESIGN.md §9)
#   8. sharded smoke — the capacity mode of the load harness on the
#                tiny preset with 2 shards over a freshly frozen memmap
#                store, asserting every sampled sharded top-n is
#                bit-identical to a single-index reference engine
#                (writes BENCH_sharded_smoke.json; the committed
#                BENCH_sharded_load.json is the offline beijing-xl run
#                and is never overwritten here)
#   9. obs smoke — the observability layer end to end: a fault-injected
#                traced recommend_many over 2 shards, every span tree
#                audited for completeness, then the metrics exporter
#                scraped over HTTP and validated with the strict
#                Prometheus text-format parser (scripts/obs_smoke.py;
#                writes BENCH_obs_smoke.json + FLIGHT_obs_smoke.json)
#  10. streaming smoke — the streaming mode of the load harness:
#                open-loop queries against a DoubleBufferedEngine while
#                the FoldInPump replays a flash-crowd arrival trace
#                under injected fold faults, asserting complete traces,
#                the zero-silent-drop arrival ledger, and the staleness
#                SLO — not p99: a 50 ms wall-clock gate on a 2-vCPU box
#                reads the scheduler, not the code (writes
#                BENCH_streaming_smoke.json; the committed
#                BENCH_streaming_load.json is the reference run and is
#                never overwritten here; see docs/OPERATIONS.md §10)
#  11. frontier smoke — the recall/latency frontier harness on the tiny
#                preset, asserting the IVF rung's default operating
#                point: recall@10 >= 0.95 against the bruteforce oracle
#                while examining strictly fewer pairs (writes
#                BENCH_frontier_smoke.json; the committed
#                BENCH_frontier.json is the offline beijing-small +
#                beijing-xl run and is never overwritten here)
#  12. benchmark spine — its own self-tests, then a smoke run of all
#                four BENCHMARK.json workloads through the benchmark's
#                entry points (benchmarks/spine/README.md), so the
#                serving surface the driver measures is exercised on
#                every push
#  13. docs links — scripts/check_docs.py: every markdown
#                cross-reference and anchor in README/DESIGN/
#                EXPERIMENTS/docs resolves, and every `file:line`
#                pointer in docs/ARCHITECTURE.md is in range
#
# ruff and mypy are skipped with a warning when not installed (minimal
# containers); when present, any finding fails the gate.  Fails fast on
# the first problem.
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks
elif python -m ruff --version >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== replint =="
PYTHONPATH=tools${PYTHONPATH:+:$PYTHONPATH} python -m replint src tests benchmarks

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy
elif python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy (module) =="
    python -m mypy
else
    echo "== mypy not installed; skipping typing gate =="
fi

echo "== tier-1 tests =="
REPRO_CONTRACTS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

echo "== lock-coverage sanitizer stress (REPRO_TSAN=1) =="
REPRO_TSAN=1 REPRO_CONTRACTS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest tests/test_sanitizer.py tests/test_serving.py \
    tests/test_conformance.py -x -q

echo "== serving load smoke =="
PYTHONPATH=src:.${PYTHONPATH:+:$PYTHONPATH} python benchmarks/load_harness.py \
    --requests 200 --warmup 40 \
    --faults "backend.query:delay=0.05" \
    --trace --assert-complete-traces \
    --assert-p99-within-budget --assert-no-silent-drops

echo "== training throughput smoke =="
PYTHONPATH=src:.${PYTHONPATH:+:$PYTHONPATH} python benchmarks/train_harness.py \
    --preset tiny --reference-steps 1500 --train-steps 30000 \
    --hogwild-steps 15000 --workers 1 2 \
    --assert-speedup 3.0 --out BENCH_training_smoke.json

echo "== sharded merge smoke =="
PYTHONPATH=src:.${PYTHONPATH:+:$PYTHONPATH} python benchmarks/load_harness.py \
    --mode capacity --preset tiny --shards 1,2 --candidate-events 40 \
    --requests 64 --workers 2 --exact-samples 16 \
    --assert-merge-exact --out BENCH_sharded_smoke.json

echo "== observability smoke =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python scripts/obs_smoke.py

echo "== streaming ingestion smoke =="
PYTHONPATH=src:.${PYTHONPATH:+:$PYTHONPATH} python benchmarks/load_harness.py \
    --mode streaming --requests 400 --rate 250 \
    --arrivals 32 --stream-seconds 1.2 --budget-ms 50 \
    --foldin-batch 16 --foldin-delay-ms 60 \
    --faults "backend.query:delay=0.02;foldin.apply:error=0.5;seed=13" \
    --trace --assert-complete-traces --assert-no-silent-drops \
    --assert-staleness-bounded --staleness-budget-s 2.5 \
    --out BENCH_streaming_smoke.json

echo "== retrieval frontier smoke =="
PYTHONPATH=src:.${PYTHONPATH:+:$PYTHONPATH} python benchmarks/frontier_harness.py \
    --presets tiny --queries 16 --ta-queries 4 \
    --assert-default-operating-point --min-recall 0.95 \
    --output BENCH_frontier_smoke.json

echo "== benchmark spine self-tests + smoke =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest benchmarks/spine/tests -q
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m benchmarks.spine run --smoke

echo "== docs cross-references =="
python scripts/check_docs.py
