#!/usr/bin/env bash
# The pre-merge gate.  No stage passes or fails on a wall-clock reading:
# a guarantee is asserted deterministically in tier-1, speed is judged
# only by the benchmark spine's per-workload bounds (BENCHMARK.json).
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
#   4. tier-1  — the pytest suite from ROADMAP.md, with runtime
#                shape/dtype contracts enabled
#   5. tsan    — the sanitizer self-tests plus the threaded serving,
#                telemetry, conformance, IVF-build, streaming and
#                sharded suites under REPRO_TSAN=1: every guarded-by
#                declaration is checked at runtime while real threads
#                hammer every engine composition, refreshes published
#                as snapshots under concurrent reads included, each one
#                retiring the answer cache those reads share
#                (src/repro/sanitizer.py; DESIGN.md §7)
#   6. spine   — the benchmark spine's self-tests, then a smoke run of
#                all four BENCHMARK.json workloads through the
#                benchmark's entry points with every correctness check
#                on (benchmarks/spine/README.md)
#   7. docs    — scripts/check_docs.py: every markdown cross-reference
#                and anchor in README/DESIGN/EXPERIMENTS/docs resolves,
#                and every `file:line` pointer is in range
#
# ruff and mypy run when installed (CI installs them) and are reported
# as skipped otherwise; when present, any finding fails the gate.  Fails
# fast on the first problem; the last line of every run, passing or
# not, names the stages that ran and the ones skipped.
set -euo pipefail

cd "$(dirname "$0")/.."

ran=()
skipped=()

summary() {
    local status=$?
    local line="ran: ${ran[*]:-none} | skipped: ${skipped[*]:-none}"
    if ((status != 0)); then
        line+=" | FAILED: ${ran[*]: -1}"
    fi
    echo "$line"
}
trap summary EXIT

stage() {
    echo "== $1 =="
    ran+=("$1")
}

skip() {
    echo "== $1 not installed; skipping =="
    skipped+=("$1")
}

if command -v ruff >/dev/null 2>&1; then
    stage ruff
    ruff check src tests benchmarks
elif python -m ruff --version >/dev/null 2>&1; then
    stage ruff
    python -m ruff check src tests benchmarks
else
    skip ruff
fi

stage replint
PYTHONPATH=tools${PYTHONPATH:+:$PYTHONPATH} python -m replint src tests benchmarks

if command -v mypy >/dev/null 2>&1; then
    stage mypy
    mypy
elif python -c "import mypy" >/dev/null 2>&1; then
    stage mypy
    python -m mypy
else
    skip mypy
fi

stage tier-1
REPRO_CONTRACTS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

stage tsan
REPRO_TSAN=1 REPRO_CONTRACTS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest tests/test_sanitizer.py tests/test_serving.py \
    tests/test_telemetry.py tests/test_conformance.py tests/test_ivf.py \
    tests/test_streaming.py tests/test_sharded.py -x -q

stage spine
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest benchmarks/spine/tests -q
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m benchmarks.spine run --smoke

stage docs
python scripts/check_docs.py
