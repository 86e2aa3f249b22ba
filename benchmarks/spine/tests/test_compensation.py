"""Time metrics are reported at nominal machine speed, raw beside them."""

import numpy as np
import pytest

from benchmarks.spine.reference import (
    LOCAL_WINDOW,
    NOMINAL_S,
    Reference,
    local_factors,
    round_factor,
)
from benchmarks.spine.runner import end_to_end
from benchmarks.spine.workloads import Check, Phase

NOMINAL = NOMINAL_S["interp"]


def test_round_factor_is_median_kernel_time_over_nominal():
    assert round_factor([2 * NOMINAL, 2 * NOMINAL, 9 * NOMINAL], NOMINAL) == (
        pytest.approx(2.0)
    )


def test_reference_ticks_are_rate_limited_and_remember_positions():
    ref = Reference("interp")
    ref.begin()
    ref.tick(0.0, 0)  # a phase's first tick always samples
    assert len(ref.samples) == 1
    ref.tick(ref._due - 1e-6, 1)
    assert len(ref.samples) == 1
    ref.tick(ref._due, 2)
    samples, positions, spent = ref.take()
    assert positions == [0, 2] and spent == pytest.approx(sum(samples))
    ref.begin()
    assert ref.take() == ([], [], 0.0)


def test_local_factor_follows_a_burst_but_not_a_single_outlier():
    # 40 ops, a reference sample before every second op; the machine is
    # twice as slow while ops 20..39 run, and one early sample is an outlier.
    reference = [NOMINAL] * 10 + [2 * NOMINAL] * 10
    reference[3] = 50 * NOMINAL
    positions = list(range(0, 40, 2))
    factors = local_factors(40, reference, positions, NOMINAL)
    assert factors.shape == (40,)
    assert np.allclose(factors[:12], 1.0) and np.allclose(factors[28:], 2.0)
    assert LOCAL_WINDOW == 7
    # fewer samples than the window: their median serves every op
    assert np.allclose(local_factors(5, [NOMINAL, 3 * NOMINAL], [0, 2], NOMINAL), 2.0)


def test_a_machine_twice_as_slow_reports_the_same_compensated_values():
    def phase(scale: float) -> Phase:
        samples = [scale * 0.010] * 150 + [scale * 0.020] * 50
        reference = [scale * NOMINAL] * 20
        return Phase(
            sum(samples) + scale * 0.5,
            201,
            0,
            samples,
            reference=reference,
            reference_at=list(range(0, 200, 10)),
        )

    check = Check(quality=0.9)
    quiet = end_to_end([1.0], [phase(1.0)], NOMINAL, check, 100.0, False)
    slow = end_to_end([2.0], [phase(2.0)], NOMINAL, check, 100.0, False)
    for name in ("setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p95_ms"):
        assert slow[name]["value"] == pytest.approx(quiet[name]["value"])
        assert slow[name]["raw"] != pytest.approx(quiet[name]["raw"])
    assert quiet["latency_p50_ms"]["value"] == pytest.approx(10.0)
    assert quiet["latency_p95_ms"]["value"] == pytest.approx(20.0)
    assert slow["latency_p95_ms"]["raw"] == pytest.approx(40.0)
    # 201 ops in 2.5 s of sampled ops plus 0.5 s outside them
    assert quiet["throughput_ops_s"]["value"] == pytest.approx(201 / 3.0)
    for name in ("answer_quality", "peak_rss_mb", "success_ratio"):
        assert slow[name]["value"] == slow[name]["raw"] == quiet[name]["value"]
