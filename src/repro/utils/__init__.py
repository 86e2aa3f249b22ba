"""Shared utilities: RNG normalisation and profiling."""

from repro.utils.profiling import (
    NULL_PROFILER,
    PhaseStat,
    Profiler,
    merge_profiles,
)
from repro.utils.rng import ensure_rng, spawn_rngs

__all__ = [
    "NULL_PROFILER",
    "PhaseStat",
    "Profiler",
    "ensure_rng",
    "merge_profiles",
    "spawn_rngs",
]
