"""Smoke tests for every table/figure runner at micro scale.

These verify structure, determinism hooks and formatting — the full-size
runs live in benchmarks/.
"""

import pytest

from repro.experiments import (
    ExperimentContext,
    run_convergence,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
    run_table4,
    run_table5,
    run_table6,
)
from repro.experiments.convergence import CONVERGENCE_MODELS


@pytest.fixture(scope="module")
def micro_ctx():
    return ExperimentContext(
        preset="tiny",
        seed=11,
        dim=8,
        n_samples=30_000,
        max_event_cases=60,
        max_partner_cases=30,
    )


class TestContext:
    def test_lazy_dataset_and_split(self, micro_ctx):
        assert micro_ctx.ebsn.n_users > 0
        assert len(micro_ctx.split.test_events) > 0
        assert len(micro_ctx.triples) > 0

    def test_scenario2_bundle_differs(self, micro_ctx):
        b1 = micro_ctx.bundle(1)
        b2 = micro_ctx.bundle(2)
        assert b2["user_user"].n_edges <= b1["user_user"].n_edges

    def test_invalid_scenario(self, micro_ctx):
        with pytest.raises(ValueError):
            micro_ctx.bundle(3)

    def test_model_cache_reuses_fit(self, micro_ctx):
        a = micro_ctx.model("PCMF")
        b = micro_ctx.model("PCMF")
        assert a is b

    def test_unknown_model_rejected(self, micro_ctx):
        with pytest.raises(KeyError):
            micro_ctx.make_model("SVD++")


class TestTable1:
    def test_rows_and_format(self):
        result = run_table1(presets=("tiny",), seed=11)
        assert result.columns == ["tiny"]
        labels = [label for label, _ in result.rows]
        assert "# of users" in labels
        text = result.format_table()
        assert "Table I" in text and "tiny" in text


class TestEffectiveness:
    def test_fig3_structure(self, micro_ctx):
        result = run_fig3(micro_ctx, models=("GEM-A", "PCMF"))
        assert set(result.accuracy) == {"GEM-A", "PCMF"}
        for accs in result.accuracy.values():
            assert set(accs) == {1, 5, 10, 15, 20}
            for v in accs.values():
                assert 0.0 <= v <= 1.0
        assert len(result.series("GEM-A")) == 5
        assert "Fig 3" in result.format_table()

    def test_fig4_includes_cfapr(self, micro_ctx):
        result = run_fig4(micro_ctx, models=("GEM-A", "CFAPR-E"))
        assert "CFAPR-E" in result.accuracy

    def test_fig5_scenario2(self, micro_ctx):
        result = run_fig5(micro_ctx, models=("GEM-A",))
        assert "potential friends" in result.figure


class TestConvergence:
    def test_tables_2_and_3(self, micro_ctx):
        t2, t3 = run_convergence(
            micro_ctx,
            models=("GEM-A",),
            checkpoint_fractions=(0.5, 1.0),
        )
        assert t2.task == "event" and t3.task == "partner"
        assert len(t2.checkpoints) == 2
        for n in t2.checkpoints:
            assert set(t2.accuracy["GEM-A"][n]) == {5, 10}
        assert "Table II" in t2.format_table()
        assert "Table III" in t3.format_table()

    def test_default_grid_ends_at_the_decay_horizon(self, micro_ctx):
        t2, _ = run_convergence(micro_ctx, models=("GEM-A",))
        horizons = {
            micro_ctx.make_model(name).config.decay_horizon
            for name in CONVERGENCE_MODELS
        }
        assert horizons == {t2.checkpoints[-1]}


class TestSweeps:
    def test_table4_dimension_sweep(self, micro_ctx):
        result = run_table4(micro_ctx, dimensions=(4, 8), models=("GEM-A",))
        assert set(result.event_acc["GEM-A"]) == {4, 8}
        assert "Table IV" in result.format_table()

    def test_table5_lambda_sweep(self, micro_ctx):
        result = run_table5(micro_ctx, lambdas=(100.0, 1000.0))
        assert set(result.event_acc) == {100.0, 1000.0}
        assert "Table V" in result.format_table()


class TestEfficiency:
    def test_fig6_scalability(self, micro_ctx):
        result = run_fig6(micro_ctx, worker_counts=(1, 2), n_steps=20_000)
        assert result.speedup[1] == pytest.approx(1.0)
        assert result.wall_seconds[2] > 0
        assert "Fig 6" in result.format_table()

    def test_table6_online_efficiency(self, micro_ctx):
        result = run_table6(micro_ctx, top_n=(5, 10), n_queries=4)
        assert result.n_candidate_pairs > 0
        for n in (5, 10):
            assert result.ta_seconds[n] > 0
            assert result.bf_seconds[n] > 0
            assert 0.0 < result.ta_fraction_examined[n] <= 1.0
            # Counted, not timed: brute force scores every pair.
            assert result.bf_pairs_examined[n] == result.n_candidate_pairs
        assert "Table VI" in result.format_table()

    def test_fig7_pruning(self, micro_ctx):
        result = run_fig7(micro_ctx, k_fractions=(0.1, 0.5), n_queries=3)
        for f in (0.1, 0.5):
            assert result.k_values[f] >= 1
            assert result.approx_ratio_at_10[f] >= 0.0
            assert result.bf_pairs_examined[f] == result.n_partners * result.k_values[f]
        assert result.bf_pairs_examined[0.5] > result.bf_pairs_examined[0.1]
        # More pruning can only keep or reduce the candidate set quality.
        assert (
            result.approx_ratio_at_10[0.5] >= result.approx_ratio_at_10[0.1] - 0.25
        )
        assert "Fig 7" in result.format_table()

    @pytest.mark.parametrize("run", [run_table6, run_fig7])
    def test_evicted_records_fail_the_run_not_the_mean(
        self, micro_ctx, monkeypatch, run
    ):
        # Both runners put >= 2 backends x 3 queries into one registry; a
        # 4-record window evicts some before the mean is taken, and a
        # partial mean must never be reported.
        monkeypatch.setattr("repro.serving.telemetry.WINDOW", 4)
        with pytest.raises(RuntimeError, match="left the metrics window"):
            run(micro_ctx, n_queries=3)


class TestMainDriver:
    def test_main_runs_selected_experiments(self, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "--preset",
                "tiny",
                "--seed",
                "11",
                "--dim",
                "8",
                "--samples",
                "20000",
                "--only",
                "table1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "=== table1 ===" in out
        assert "Table I" in out

    def test_main_rejects_unknown_ids(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])
