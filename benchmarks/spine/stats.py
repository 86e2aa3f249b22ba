"""Summary statistics the spine reports: nearest-rank tails and spreads."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is only reported when at least this many samples
#: lie beyond it (choosing-metrics: "the highest percentile that has at
#: least ten samples beyond it").
MIN_SAMPLES_BEYOND = 10


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The smallest sample such that at least ``q`` percent of the samples
    are less than or equal to it — always one of the samples, never an
    interpolation.
    """
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values: list[float], q: float) -> float:
    """``nearest_rank`` guarded by :data:`MIN_SAMPLES_BEYOND`."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only {beyond} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})"
        )
    return nearest_rank(values, q)


def median(values: list[float]) -> float:
    """Plain median (mean of the middle two for an even count)."""
    return float(statistics.median(values))


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The acceptance statistic of the benchmark contract: quartiles as
    ``statistics.quantiles(values, n=4)`` gives them.
    """
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / abs(mid)) if mid else float("inf")


def worsening(first: float, second: float, better: str) -> float:
    """Relative amount by which ``second`` is worse than ``first``.

    Positive means worse, in the metric's own direction (``better`` is
    ``"lower"`` or ``"higher"``); 0.0 when ``first`` is 0.
    """
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
