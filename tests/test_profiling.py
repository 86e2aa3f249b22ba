"""Tests for the scoped-timer profiling layer (repro.utils.profiling).

Covers the Profiler API itself, its integration with the trainer and the
serving engine, and the Hogwild merge path.  The module's headline
promise — a *disabled* profiler is free — is held structurally
(``test_disabled_phase_is_shared_singleton``: every disabled ``phase()``
is the one shared ``NULL_CONTEXT``); speed is the benchmark spine's job.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.trainer import TRAINER_PHASES, JointTrainer, TrainerConfig
from repro.serving.engine import ServingEngine
from repro.serving.index import BUILD_PHASES
from repro.utils.profiling import (
    NULL_PROFILER,
    PhaseStat,
    Profiler,
    merge_profiles,
)


class TestProfilerBasics:
    def test_phase_records_calls_and_seconds(self):
        prof = Profiler(enabled=True)
        for _ in range(3):
            with prof.phase("work"):
                time.sleep(0.001)
        stat = prof.phases["work"]
        assert stat.calls == 3
        assert stat.seconds > 0.0

    def test_counters_accumulate(self):
        prof = Profiler(enabled=True)
        prof.count("hits")
        prof.count("hits", 4)
        assert prof.counters == {"hits": 5}

    def test_disabled_profiler_records_nothing(self):
        prof = Profiler(enabled=False)
        with prof.phase("work"):
            pass
        prof.count("hits", 7)
        assert prof.phases == {}
        assert prof.counters == {}

    def test_disabled_phase_is_shared_singleton(self):
        prof = Profiler(enabled=False)
        assert prof.phase("a") is prof.phase("b") is NULL_PROFILER.phase("c")

    def test_shares_sum_to_one(self):
        prof = Profiler(enabled=True)
        prof.phases["a"] = PhaseStat(calls=1, seconds=1.0)
        prof.phases["b"] = PhaseStat(calls=1, seconds=3.0)
        shares = prof.shares()
        assert shares["a"] == pytest.approx(0.25)
        assert shares["b"] == pytest.approx(0.75)

    def test_shares_all_zero_when_empty_or_zero_time(self):
        prof = Profiler(enabled=True)
        assert prof.shares() == {}
        prof.phases["a"] = PhaseStat(calls=1, seconds=0.0)
        assert prof.shares() == {"a": 0.0}

    def test_as_dict_shape(self):
        prof = Profiler(enabled=True)
        prof.phases["a"] = PhaseStat(calls=2, seconds=0.5)
        prof.count("c", 3)
        payload = prof.as_dict()
        assert payload["phases"]["a"] == {
            "calls": 2,
            "seconds": 0.5,
            "share": 1.0,
        }
        assert payload["counters"] == {"c": 3}

    def test_reset_clears_state(self):
        prof = Profiler(enabled=True)
        prof.phases["a"] = PhaseStat(calls=1, seconds=1.0)
        prof.count("c")
        prof.reset()
        assert prof.phases == {} and prof.counters == {}

    def test_exception_inside_phase_still_records(self):
        prof = Profiler(enabled=True)
        with pytest.raises(RuntimeError):
            with prof.phase("boom"):
                raise RuntimeError("x")
        assert prof.phases["boom"].calls == 1


class TestMerge:
    def _payload(self, seconds: float, hits: int) -> dict:
        prof = Profiler(enabled=True)
        prof.phases["p"] = PhaseStat(calls=1, seconds=seconds)
        prof.count("hits", hits)
        return prof.as_dict()

    def test_merge_payloads_sums(self):
        merged = merge_profiles([self._payload(1.0, 2), self._payload(3.0, 5)])
        assert merged["phases"]["p"]["calls"] == 2
        assert merged["phases"]["p"]["seconds"] == pytest.approx(4.0)
        assert merged["counters"] == {"hits": 7}

    def test_merge_accepts_profiler_instances(self):
        a = Profiler(enabled=True)
        a.phases["p"] = PhaseStat(calls=1, seconds=1.0)
        b = Profiler(enabled=True)
        b.merge(a)
        b.merge(self._payload(2.0, 1))
        assert b.phases["p"].calls == 2
        assert b.phases["p"].seconds == pytest.approx(3.0)

    def test_merge_empty_is_empty(self):
        merged = merge_profiles([])
        assert merged == {"phases": {}, "counters": {}}


class TestTrainerProfiling:
    def test_train_records_all_phases(self, tiny_bundle):
        prof = Profiler(enabled=True)
        trainer = JointTrainer(
            tiny_bundle,
            TrainerConfig(dim=8, seed=3, batch_size=64),
            profiler=prof,
        )
        trainer.train(1000)
        assert set(prof.phases) == set(TRAINER_PHASES)

    def test_step_records_all_phases(self, tiny_bundle):
        prof = Profiler(enabled=True)
        trainer = JointTrainer(
            tiny_bundle, TrainerConfig(dim=8, seed=3), profiler=prof
        )
        for _ in range(50):
            trainer.step()
        assert set(prof.phases) == set(TRAINER_PHASES)

    def test_profile_report_counters(self, tiny_bundle):
        trainer = JointTrainer(
            tiny_bundle,
            TrainerConfig(dim=8, seed=3, batch_size=64),
            profiler=Profiler(enabled=True),
        )
        trainer.train(500)
        report = trainer.profile_report()
        counters = report["counters"]
        assert counters["steps_done"] == 500
        assert counters["adaptive_refreshes"] >= 1
        assert "reject_cap_hits" in counters
        assert "adaptive_tail_sorts" in counters

    def test_default_profiler_is_shared_null(self, tiny_bundle):
        trainer = JointTrainer(tiny_bundle, TrainerConfig(dim=8, seed=3))
        assert trainer.profiler is NULL_PROFILER
        trainer.train(200)
        report = trainer.profile_report()
        assert report["phases"] == {}
        assert report["counters"]["steps_done"] == 200


class TestServingBuildProfiling:
    def _engine(
        self, profiler: Profiler | None, **kwargs: object
    ) -> ServingEngine:
        rng = np.random.default_rng(4)
        return ServingEngine(
            np.abs(rng.normal(size=(40, 8))),
            np.abs(rng.normal(size=(25, 8))),
            np.arange(25, dtype=np.int64),
            profiler=profiler,
            **kwargs,
        )

    def test_build_phases_recorded(self):
        # ivf_clusters opts into the ivf sibling so every declared build
        # phase fires (the rung is off by default).
        engine = self._engine(Profiler(enabled=True), ivf_clusters=4)
        engine.warm_ladder()
        phases = engine.build_profile()["phases"]
        assert set(phases) == set(BUILD_PHASES)

    def test_refresh_adds_transform_and_index_calls(self):
        engine = self._engine(Profiler(enabled=True))
        engine.warm()
        before = engine.build_profile()["phases"]["build.transform"]["calls"]
        rng = np.random.default_rng(5)
        engine.refresh(
            np.arange(25, 28, dtype=np.int64),
            np.abs(rng.normal(size=(3, 8))),
        )
        after = engine.build_profile()["phases"]
        assert after["build.transform"]["calls"] == before + 1
        assert after["build.index"]["calls"] == 2

    def test_default_is_null_profiler(self):
        engine = self._engine(None)
        engine.warm_ladder()
        assert engine.profiler is NULL_PROFILER
        assert engine.build_profile() == {"phases": {}, "counters": {}}
