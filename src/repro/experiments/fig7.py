"""Fig 7 — effect of the per-partner top-k event pruning.

Fig 7(a): online recommendation time of GEM-TA and GEM-BF as k sweeps
1%-10% of the candidate events — both roughly linear in k, TA well below
BF.  Fig 7(b): the approximation ratio of Accuracy@10 (pruned-space
accuracy / full-space accuracy) — close to 1 once k reaches ~5% of the
events, i.e. pruning costs essentially no accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation import evaluate_event_partner
from repro.evaluation.metrics import approximation_ratio
from repro.experiments.context import ExperimentContext, complete_summary
from repro.online import top_k_events_per_partner
from repro.serving import MetricsRegistry, ServingEngine

DEFAULT_K_FRACTIONS = (0.01, 0.02, 0.05, 0.10)


@dataclass(slots=True)
class PruningResult:
    """Per-k timings, brute-force pairs examined and approximation ratios.

    ``bf_pairs_examined`` is the mean candidate pairs brute force scored
    per query (the registry's ``mean_n_examined``): the whole pruned
    space, ``n_partners * k`` pairs.
    """

    k_fractions: tuple[float, ...]
    k_values: dict[float, int]
    ta_seconds: dict[float, float]
    bf_seconds: dict[float, float]
    bf_pairs_examined: dict[float, float]
    approx_ratio_at_10: dict[float, float]
    full_accuracy_at_10: float
    n_partners: int

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        header = (
            f"{'k':>6}{'k(events)':>11}{'GEM-TA(s)':>12}{'GEM-BF(s)':>12}"
            f"{'BF pairs':>10}{'approx@10':>11}"
        )
        lines = [
            f"Fig 7: pruning sweep (full-space Ac@10 = "
            f"{self.full_accuracy_at_10:.3f})",
            header,
            "-" * len(header),
        ]
        for f in self.k_fractions:
            lines.append(
                f"{f:>6.0%}{self.k_values[f]:>11}{self.ta_seconds[f]:>12.4f}"
                f"{self.bf_seconds[f]:>12.4f}{self.bf_pairs_examined[f]:>10.0f}"
                f"{self.approx_ratio_at_10[f]:>11.3f}"
            )
        return "\n".join(lines)


def run_fig7(
    ctx: ExperimentContext | None = None,
    *,
    k_fractions: tuple[float, ...] = DEFAULT_K_FRACTIONS,
    n_queries: int = 15,
    top_n: int = 10,
) -> PruningResult:
    """Sweep the pruning level k and measure time + approximation ratio.

    Query times come from the serving engines' telemetry records
    (caching disabled so each query is a real retrieval).
    """
    ctx = ctx or ExperimentContext()
    model = ctx.model("GEM-A")
    candidate_events = np.array(sorted(ctx.split.test_events), dtype=np.int64)
    n_events = candidate_events.size

    full_acc = evaluate_event_partner(
        model,
        ctx.split,
        ctx.triples,
        n_values=(top_n,),
        max_cases=ctx.max_partner_cases,
        model_name="GEM-A(full)",
        seed=ctx.eval_seed,
    ).accuracy[top_n]

    rng = np.random.default_rng(ctx.eval_seed)
    users = rng.choice(ctx.ebsn.n_users, size=n_queries, replace=False)

    event_vectors = model.event_vectors
    user_vectors = model.user_vectors

    k_values: dict[float, int] = {}
    ta_s: dict[float, float] = {}
    bf_s: dict[float, float] = {}
    bf_pairs: dict[float, float] = {}
    ratios: dict[float, float] = {}
    for fraction in k_fractions:
        k = max(1, int(round(fraction * n_events)))
        k_values[fraction] = k

        metrics = MetricsRegistry()
        for name, out in (("ta", ta_s), ("bruteforce", bf_s)):
            engine = ServingEngine(
                user_vectors,
                event_vectors,
                candidate_events,
                top_k_events=k,
                backend=name,
                cache_size=0,
                metrics=metrics,
            )
            for u in users:
                engine.query(int(u), top_n)
            out[fraction] = complete_summary(metrics, backend=name)[
                "mean_seconds_total"
            ]
        bf_pairs[fraction] = complete_summary(metrics, backend="bruteforce")[
            "mean_n_examined"
        ]

        # Approximation ratio: the protocol restricted to surviving pairs.
        rows, cols = top_k_events_per_partner(
            event_vectors[candidate_events].astype(np.float64),
            user_vectors.astype(np.float64),
            k,
        )
        allowed: set[tuple[int, int]] = set(
            zip(rows.tolist(), candidate_events[cols].tolist(), strict=True)
        )

        def candidate_filter(partners: np.ndarray, events: np.ndarray) -> np.ndarray:
            return np.fromiter(
                (
                    (int(p), int(x)) in allowed
                    for p, x in zip(partners, events, strict=True)
                ),
                dtype=bool,
                count=partners.shape[0],
            )

        pruned_acc = evaluate_event_partner(
            model,
            ctx.split,
            ctx.triples,
            n_values=(top_n,),
            max_cases=ctx.max_partner_cases,
            model_name=f"GEM-A(k={k})",
            seed=ctx.eval_seed,
            candidate_filter=candidate_filter,
        ).accuracy[top_n]
        ratios[fraction] = approximation_ratio(pruned_acc, full_acc)

    return PruningResult(
        k_fractions=k_fractions,
        k_values=k_values,
        ta_seconds=ta_s,
        bf_seconds=bf_s,
        bf_pairs_examined=bf_pairs,
        approx_ratio_at_10=ratios,
        full_accuracy_at_10=full_acc,
        n_partners=int(user_vectors.shape[0]),
    )


if __name__ == "__main__":
    print(run_fig7().format_table())
