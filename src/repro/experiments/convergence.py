"""Tables II & III — convergence versus the number of samples N.

The paper trains GEM-A, GEM-P and PTE with increasing sample budgets and
reports Ac@5/Ac@10 on both tasks at each checkpoint: GEM-A converges
first (2M), then GEM-P (4M), then PTE (10M), demonstrating the value of
bidirectional sampling and the adaptive noise sampler.

One incremental training run per model serves both tables: training
continues between checkpoints (learning-rate decay is scheduled over the
final budget so checkpoints lie on one trajectory, exactly as a single
long run would).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation import evaluate_event_partner, evaluate_event_recommendation
from repro.experiments.context import ExperimentContext

#: Checkpoints (fractions of the final budget) mirroring the paper's
#: 1M..15M grid scaled to the context's sample budget.  The grid ends at
#: the budget, which is also each model's learning-rate decay horizon:
#: past it the rate sits at its floor and the tables stop moving.
DEFAULT_CHECKPOINT_FRACTIONS = (1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0)
CONVERGENCE_MODELS = ("GEM-A", "GEM-P", "PTE")


@dataclass(slots=True)
class ConvergenceResult:
    """Ac@5/Ac@10 per (model, checkpoint) for one task."""

    task: str
    checkpoints: list[int]
    accuracy: dict[str, dict[int, dict[int, float]]]  # model -> N -> {5,10}

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        models = list(self.accuracy)
        header = f"{'N':>12} " + "".join(
            f"{m + ' Ac@5':>14}{m + ' Ac@10':>14}" for m in models
        )
        title = (
            "Table II: convergence (cold-start event)"
            if self.task == "event"
            else "Table III: convergence (event-partner)"
        )
        lines = [title, header, "-" * len(header)]
        for n in self.checkpoints:
            cells = "".join(
                f"{self.accuracy[m][n][5]:>14.3f}{self.accuracy[m][n][10]:>14.3f}"
                for m in models
            )
            lines.append(f"{n:>12,} " + cells)
        return "\n".join(lines)


def run_convergence(
    ctx: ExperimentContext | None = None,
    *,
    models: tuple[str, ...] = CONVERGENCE_MODELS,
    checkpoint_fractions: tuple[float, ...] = DEFAULT_CHECKPOINT_FRACTIONS,
) -> tuple[ConvergenceResult, ConvergenceResult]:
    """Run the convergence sweep; returns (Table II, Table III)."""
    ctx = ctx or ExperimentContext()
    checkpoints = sorted(
        {max(1, int(round(f * ctx.n_samples))) for f in checkpoint_fractions}
    )
    event_acc: dict[str, dict[int, dict[int, float]]] = {}
    pair_acc: dict[str, dict[int, dict[int, float]]] = {}

    for name in models:
        model = ctx.make_model(name)
        bundle = ctx.bundle(scenario=1)
        event_acc[name] = {}
        pair_acc[name] = {}
        trained = 0
        for n in checkpoints:
            model.fit(bundle, n_samples=n - trained)
            trained = n
            ev = evaluate_event_recommendation(
                model,
                ctx.split,
                n_values=(5, 10),
                max_cases=ctx.max_event_cases,
                model_name=name,
                seed=ctx.eval_seed,
            )
            pa = evaluate_event_partner(
                model,
                ctx.split,
                ctx.triples,
                n_values=(5, 10),
                max_cases=ctx.max_partner_cases,
                model_name=name,
                seed=ctx.eval_seed,
            )
            event_acc[name][n] = ev.accuracy
            pair_acc[name][n] = pa.accuracy

    return (
        ConvergenceResult(task="event", checkpoints=checkpoints, accuracy=event_acc),
        ConvergenceResult(task="partner", checkpoints=checkpoints, accuracy=pair_acc),
    )


def run_table2(ctx: ExperimentContext | None = None) -> ConvergenceResult:
    """Table II only (cold-start event task)."""
    return run_convergence(ctx)[0]


def run_table3(ctx: ExperimentContext | None = None) -> ConvergenceResult:
    """Table III only (event-partner task)."""
    return run_convergence(ctx)[1]


if __name__ == "__main__":
    table2, table3 = run_convergence()
    print(table2.format_table())
    print()
    print(table3.format_table())
