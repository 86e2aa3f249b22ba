"""Serving telemetry: the percentile estimator and the bounded registry.

The estimator must agree exactly with numpy's ``inverted_cdf`` method —
the property test drives arbitrary samples and quantiles through both.
The edge cases (q=0, q=100, single sample, empty input) each regressed
at least once under the old ``int(q * n)`` rank formula, which
truncated *before* the ceiling division (q=33.4 over 3 samples picked
rank 1 where the nearest-rank definition requires rank 2).

The registry counts on write and keeps a window: its lifetime counters
never decrease, its window readers answer exactly over the newest
``WINDOW`` records, and its memory does not grow with traffic.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs import registry_families
from repro.serving import MetricsRegistry, percentile, telemetry
from repro.serving.telemetry import WINDOW, QueryStats


def stats(i: int = 0, **overrides) -> QueryStats:
    """One record; ``i`` makes ``user`` and ``seconds_total`` distinct."""
    fields = dict(
        user=i, n=5, backend="ta", version=1, n_candidates=10, n_examined=10,
        n_sorted_accesses=10, fraction_examined=1.0, seconds_total=0.001 * (i + 1),
    )
    return QueryStats(**{**fields, **overrides})


class TestPercentileEdgeCases:
    def test_empty_input_returns_zero(self):
        assert percentile([], 50.0) == 0.0
        assert percentile([], 0.0) == 0.0
        assert percentile([], 100.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 0.1, 50.0, 99.9, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_q0_is_the_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_q100_is_the_maximum(self):
        assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match="q"):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError, match="q"):
            percentile([1.0], 100.1)

    def test_old_truncation_bug_counterexample(self):
        # ceil(33.4 / 100 * 3) = ceil(1.002) = 2 -> second order statistic;
        # the old int(0.334 * 3) = 1 picked the minimum instead.
        assert percentile([1.0, 2.0, 3.0], 33.4) == 2.0

    def test_unsorted_input_is_handled(self):
        assert percentile([9.0, 1.0, 5.0, 3.0], 50.0) == 3.0


class TestPercentileProperty:
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_numpy_inverted_cdf(self, values, q):
        ours = percentile(values, q)
        theirs = float(
            np.percentile(np.asarray(values), q, method="inverted_cdf")
        )
        assert ours == theirs

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_result_is_an_order_statistic(self, values, q):
        result = percentile(values, q)
        assert result in values


class TestRegistryPercentiles:
    def test_registry_quantiles_use_the_fixed_estimator(self):
        registry = MetricsRegistry()
        latencies = [0.001 * (i + 1) for i in range(10)]
        for i in range(10):
            registry.record(stats(i))
        quantiles = registry.percentiles()
        assert quantiles["p50"] == percentile(latencies, 50.0)
        assert quantiles["p99"] == percentile(latencies, 99.0)

    def test_past_the_wrap_quantiles_cover_exactly_the_newest_window(self):
        # Latencies fall as i grows and the rung alternates, so a reader
        # that still saw an evicted record, or missed a resident one,
        # would move every quantile.
        registry = MetricsRegistry()
        total = WINDOW + WINDOW // 2
        for i in range(total):
            rung = "ivf" if i % 3 else "full"
            registry.record(stats(i, seconds_total=1.0 / (i + 1), rung=rung))
        newest = range(total - WINDOW, total)
        assert [r.user for r in registry.records] == list(newest)
        qs = (0.0, 50.0, 99.0, 100.0)
        assert registry.percentiles(qs=qs) == {
            f"p{q:g}": percentile([1.0 / (i + 1) for i in newest], q) for q in qs
        }
        for rung, entry in registry.rung_summary().items():
            values = [1.0 / (i + 1) for i in newest if (rung == "ivf") == bool(i % 3)]
            assert entry.pop("count") == len(values) > WINDOW // 4
            assert entry == {
                f"p{q:g}": percentile(values, q) for q in (50.0, 95.0, 99.0)
            }


class TestRegistryIsBounded:
    def test_heap_and_window_are_flat_over_100_windows(self, monkeypatch):
        # Deterministic soak: allocations are traced, not read from RSS,
        # and only those made by the registry module and this file count
        # (under REPRO_TSAN the sanitizer keeps a ledger of its own).  A
        # short window keeps 100 wraps at 25 600 records; the bound is
        # the same ``deque(maxlen=WINDOW)`` whatever the constant says.
        monkeypatch.setattr(telemetry, "WINDOW", 256)
        registry = MetricsRegistry()
        total = 100 * telemetry.WINDOW
        ours = [tracemalloc.Filter(True, f) for f in (telemetry.__file__, __file__)]
        held = {}
        tracemalloc.start()
        try:
            for i in range(1, total + 1):
                registry.record(stats(i, cache_hit=i % 7 == 0))
                if i in (total // 10, total):
                    traces = tracemalloc.take_snapshot().filter_traces(ours).traces
                    held[i] = sum(trace.size for trace in traces)
                    assert len(registry.records) == telemetry.WINDOW
        finally:
            tracemalloc.stop()
        # Ten windows in, one window (~75 KB) is held, and 90 windows
        # later still one: the list this replaces had grown tenfold, by
        # 6 MB.  Half a window of slack absorbs int-object churn.
        assert held[total // 10] > 200 * telemetry.WINDOW
        assert abs(held[total] - held[total // 10]) < held[total // 10] // 2
        assert len(registry) == total

    def test_counter_families_never_decrease_across_the_wrap(self):
        # Every early record is a stale, late, degraded cache hit and no
        # later one is: a counter read off the window would fall once
        # those records are evicted.
        registry = MetricsRegistry()
        seen: list[dict] = []
        for i in range(2 * WINDOW + 1):
            early = i < WINDOW // 2
            flags = dict(cache_hit=early, stale=early, deadline_met=not early)
            registry.record(stats(i, rung="stale_cache" if early else "full", **flags))
            if i % (WINDOW // 4) == 0:
                registry.record_shed("queue_full")
                seen.append(
                    {
                        (family.name, *sample.labels.values()): sample.value
                        for family in registry_families(registry)
                        if family.kind == "counter"
                        for sample in family.samples
                    }
                )
        for before, after in zip(seen, seen[1:]):
            assert all(after[key] >= value for key, value in before.items())
        final = seen[-1]
        assert final["repro_request_events_total", "recorded"] == len(registry)
        assert len(registry) == 2 * WINDOW + 1 > len(registry.records) == WINDOW
        for kind in ("cache_hit", "stale", "deadline_missed", "degraded"):
            assert final["repro_request_events_total", kind] == WINDOW // 2
        assert final["repro_requests_total", "stale_cache"] == WINDOW // 2
        assert registry.summary()["n_cache_hits"] == 0  # the window moved on
        registry.reset()
        assert len(registry) == 0 == registry.totals()["n_cache_hits"]
        assert registry.totals()["n_by_rung"] == {} == registry.shed_counts()
