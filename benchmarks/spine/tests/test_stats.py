"""Nearest-rank percentiles, the tail guard and the spread statistic."""

import pytest

from benchmarks.spine.stats import (
    nearest_rank,
    quartile_spread,
    samples_beyond,
    tail_percentile,
    worsening,
)


def test_nearest_rank_is_always_a_sample():
    values = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert nearest_rank(values, 30) == 20.0
    assert nearest_rank(values, 40) == 20.0
    assert nearest_rank(values, 50) == 35.0
    assert nearest_rank(values, 100) == 50.0
    assert nearest_rank([7.0], 95) == 7.0
    assert nearest_rank(list(range(1, 101)), 95) == 95.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_tail_guard_needs_ten_samples_beyond():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert tail_percentile([float(i) for i in range(200)], 95) == 189.0
    with pytest.raises(ValueError, match="only 9 beyond"):
        tail_percentile([float(i) for i in range(199)], 95)


def test_quartile_spread_matches_the_contract_statistic():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) -> 11.75, 14.5, 17.25
    assert quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert quartile_spread([5.0] * 10) == 0.0


def test_worsening_follows_the_metric_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
