"""The benchmark spine: four workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory.  ``python -m benchmarks.spine run``
prints every metric; ``BENCHMARK.json`` at the repository root names the
command the driver runs.
"""
