"""Fault injection at the serving backend boundaries (repro.serving.faults)."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serving.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    fault_point,
    install,
    parse_faults,
    uninstall,
)


@pytest.fixture(autouse=True)
def clean_plan():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


class TestFaultSpec:
    def test_validates_delay(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(site="backend.query", delay_s=-0.1)

    def test_validates_error_rate(self):
        with pytest.raises(ValueError, match="error_rate"):
            FaultSpec(site="backend.query", error_rate=1.5)


class TestFaultPlan:
    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                [FaultSpec(site="a"), FaultSpec(site="a", delay_s=0.1)]
            )

    def test_sites_sorted(self):
        plan = FaultPlan([FaultSpec(site="b"), FaultSpec(site="a")])
        assert plan.sites == ("a", "b")

    def test_error_draws_are_seed_deterministic(self):
        spec = FaultSpec(site="s", error_rate=0.5)
        plan1 = FaultPlan([spec], seed=7)
        plan2 = FaultPlan([spec], seed=7)
        seq1 = [plan1.should_error(spec) for _ in range(50)]
        seq2 = [plan2.should_error(spec) for _ in range(50)]
        assert seq1 == seq2
        assert any(seq1) and not all(seq1)


class TestFaultPoint:
    def test_no_plan_is_a_noop(self):
        fault_point("backend.query")  # must not raise or sleep
        assert active_plan() is None

    def test_unlisted_site_is_clean(self):
        install(FaultPlan([FaultSpec(site="backend.build", error_rate=1.0)]))
        fault_point("backend.query")  # different site: untouched

    def test_error_rate_one_always_raises(self):
        install(FaultPlan([FaultSpec(site="backend.query", error_rate=1.0)]))
        with pytest.raises(InjectedFault, match="backend.query"):
            fault_point("backend.query")

    def test_delay_stalls_the_call(self):
        stalls = []
        install(
            FaultPlan(
                [FaultSpec(site="backend.query", delay_s=0.03)],
                sleep=stalls.append,
            )
        )
        fault_point("backend.query")
        fault_point("backend.ivf")  # a clean site does not stall
        assert stalls == [0.03]

    def test_by_default_a_stall_really_sleeps(self):
        assert FaultPlan([]).sleep is time.sleep

    def test_injected_fault_is_a_runtime_error(self):
        # The engine's ladder catches RuntimeError; InjectedFault must be one.
        assert issubclass(InjectedFault, RuntimeError)

    def test_install_uninstall_roundtrip(self):
        plan = FaultPlan([FaultSpec(site="s")])
        install(plan)
        assert active_plan() is plan
        uninstall()
        assert active_plan() is None


class TestParseFaults:
    def test_full_grammar(self):
        plan = parse_faults(
            "backend.query:delay=0.05,error=0.1; backend.ivf:error=0.2; seed=7"
        )
        assert plan.sites == ("backend.ivf", "backend.query")
        q = plan.spec("backend.query")
        assert q.delay_s == pytest.approx(0.05)
        assert q.error_rate == pytest.approx(0.1)
        assert plan.spec("backend.ivf").error_rate == pytest.approx(0.2)

    def test_seed_changes_draw_sequence(self):
        spec_text = "s:error=0.5"
        a = parse_faults(spec_text + ";seed=1")
        b = parse_faults(spec_text + ";seed=2")
        sa = [a.should_error(a.spec("s")) for _ in range(64)]
        sb = [b.should_error(b.spec("s")) for _ in range(64)]
        assert sa != sb

    def test_empty_entries_tolerated(self):
        plan = parse_faults("backend.query:delay=0.01;;")
        assert plan.sites == ("backend.query",)

    @pytest.mark.parametrize(
        "text",
        [
            "backend.query",  # no action list
            "backend.query:delay",  # action without '='
            "backend.query:jitter=0.1",  # unknown action
            ":delay=0.1",  # empty site
        ],
    )
    def test_malformed_text_raises(self, text):
        with pytest.raises(ValueError):
            parse_faults(text)


class TestEnvGate:
    def test_env_variable_installs_plan_at_import(self):
        # Fresh interpreter: the gate is read at module import time,
        # mirroring REPRO_CONTRACTS.
        probe = (
            "from repro.serving.faults import active_plan\n"
            "plan = active_plan()\n"
            "assert plan is not None\n"
            "assert plan.sites == ('backend.query',)\n"
            "assert plan.spec('backend.query').delay_s == 0.02\n"
            "print('ok')\n"
        )
        env = os.environ.copy()
        env["REPRO_FAULTS"] = "backend.query:delay=0.02"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_no_env_variable_means_no_plan(self):
        probe = (
            "from repro.serving.faults import active_plan\n"
            "assert active_plan() is None\n"
            "print('ok')\n"
        )
        env = os.environ.copy()
        env.pop("REPRO_FAULTS", None)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
