"""Smoke runs: every declared name is emitted, and counts repeat exactly."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.spine import config
from benchmarks.spine.runner import run_workload
from benchmarks.spine.workloads import BY_NAME
from benchmarks.spine.worlds import (
    SMOKE_SHAPE,
    distinct_users,
    make_fold_world,
    make_serving_world,
    zipf_users,
)

ROOT = Path(__file__).resolve().parents[3]
SMOKE_SECONDS = 1.0


def test_same_seed_gives_byte_identical_request_streams():
    for draw in (distinct_users, lambda *a: zipf_users(*a, config.ZIPF_EXPONENT)):
        first, again, other = draw(13, 60, 500), draw(13, 60, 500), draw(14, 60, 500)
        assert first.tobytes() == again.tobytes() != other.tobytes()
    world, twin = (make_serving_world(13, SMOKE_SHAPE) for _ in range(2))
    assert world.users.tobytes() == twin.users.tobytes()
    assert world.events.tobytes() == twin.events.tobytes()
    arrivals = [make_fold_world(13, world, 8)[1] for _ in range(2)]
    assert arrivals[0] == arrivals[1]


def test_op_counts_follow_seconds_and_repeat():
    for name, cls in BY_NAME.items():
        plans = [cls(13, config.SMOKE, SMOKE_SECONDS, False) for _ in range(2)]
        assert plans[0].rounds == config.ROUNDS[name] == plans[1].rounds
        longer = cls(13, config.SMOKE, 4 * SMOKE_SECONDS, False)
        for attr in ("ops", "reads", "repetitions"):
            if hasattr(longer, attr):
                assert getattr(plans[0], attr) == getattr(plans[1], attr)
                assert getattr(longer, attr) >= getattr(plans[0], attr)


@pytest.mark.parametrize("name", list(config.WORKLOADS))
def test_untraced_smoke_emits_every_end_to_end_metric(name, tmp_path):
    result = run_workload(name, 13, SMOKE_SECONDS, False, True, tmp_path)
    assert result.correct and result.smoke and result.detail()["smoke"] is True
    metrics = result.metrics()
    assert list(metrics) == [m.name for m in config.END_TO_END]
    for metric in config.END_TO_END:
        assert metrics[metric.name]["unit"] == metric.unit
        assert metrics[metric.name]["value"] > 0
    assert result.attempted >= 1 and result.failed == 0


@pytest.mark.parametrize("name", list(config.WORKLOADS))
def test_traced_smoke_emits_every_layer_metric_and_counts_repeat(name, tmp_path):
    first, again = (
        run_workload(name, 13, SMOKE_SECONDS, True, True, tmp_path) for _ in range(2)
    )
    assert list(first.metrics()) == [m.name for m in config.PER_LAYER]
    mine = [m.name for m in config.PER_LAYER if name in m.on]
    # On the smoke world a full scan fits the 10 ms budget, so the ladder
    # never reaches the ivf rung and its probe reports null with a reason.
    unresolved = {n for n in mine if first.per_layer.get(n) is None}
    assert unresolved <= {n for n in mine if n.startswith("online.ivf.")}
    assert all(first.unresolved[n] for n in unresolved)
    for metric in first.metrics().values():
        assert isinstance(metric["value"], float) and metric["unit"]
    for metric_name in set(config.REPEATABLE) & set(mine):
        assert first.per_layer[metric_name] == again.per_layer[metric_name]
    assert (tmp_path / f"{name}-seed13.spans.json").exists()


def test_cli_prints_the_contract_line_last(tmp_path):
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks/spine/run.py"),
            "--workload",
            "serve_scan",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in config.END_TO_END}
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
