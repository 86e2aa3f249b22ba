"""Fig 6 — scalability of asynchronous (Hogwild) training.

Fig 6(a): speedup ratio versus the number of workers — the paper reports
"quite close to linear".  Fig 6(b): recommendation accuracy versus the
number of workers — "remains stable", i.e. the lock-free races do not
damage the model.

This runner uses the shared-memory multiprocess Hogwild trainer
(:mod:`repro.core.parallel`); on platforms without ``fork`` it degrades
to one worker and reports that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import GEM, TrainerConfig
from repro.core.parallel import train_parallel
from repro.evaluation import evaluate_event_recommendation
from repro.experiments.context import ExperimentContext

DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)


@dataclass(slots=True)
class ScalabilityResult:
    """Wall time, speedup and accuracy per worker count."""

    worker_counts: tuple[int, ...]
    wall_seconds: dict[int, float]
    speedup: dict[int, float]
    accuracy_at_10: dict[int, float]
    n_steps: int

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        header = f"{'workers':>8}{'wall(s)':>10}{'speedup':>10}{'Ac@10':>10}"
        lines = [
            f"Fig 6: Hogwild scalability ({self.n_steps:,} steps)",
            header,
            "-" * len(header),
        ]
        for w in self.worker_counts:
            lines.append(
                f"{w:>8}{self.wall_seconds[w]:>10.2f}"
                f"{self.speedup[w]:>10.2f}{self.accuracy_at_10[w]:>10.3f}"
            )
        return "\n".join(lines)


def run_fig6(
    ctx: ExperimentContext | None = None,
    *,
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    n_steps: int | None = None,
) -> ScalabilityResult:
    """Train the same GEM-A workload at several worker counts."""
    ctx = ctx or ExperimentContext()
    n_steps = n_steps or ctx.n_samples
    bundle = ctx.bundle(scenario=1)
    config = TrainerConfig.gem_a(
        dim=ctx.dim, seed=ctx.seed, decay_horizon=n_steps
    )

    wall: dict[int, float] = {}
    speed: dict[int, float] = {}
    acc: dict[int, float] = {}
    for workers in worker_counts:
        result = train_parallel(bundle, config, n_steps, workers, seed=ctx.seed)
        wall[workers] = result.wall_seconds
        model = GEM.from_embeddings(result.embeddings)
        ev = evaluate_event_recommendation(
            model,
            ctx.split,
            n_values=(10,),
            max_cases=ctx.max_event_cases,
            model_name=f"GEM-A x{workers}",
            seed=ctx.eval_seed,
        )
        acc[workers] = ev.accuracy[10]
    base = wall[worker_counts[0]] * worker_counts[0]
    for workers in worker_counts:
        speed[workers] = base / wall[workers] if wall[workers] > 0 else float("inf")
    return ScalabilityResult(
        worker_counts=worker_counts,
        wall_seconds=wall,
        speedup=speed,
        accuracy_at_10=acc,
        n_steps=n_steps,
    )


if __name__ == "__main__":
    print(run_fig6().format_table())
