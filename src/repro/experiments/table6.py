"""Table VI — online recommendation efficiency: GEM-TA versus GEM-BF.

The paper transforms every (new event, partner) pair into the 2K+1 space
and compares the TA-based retrieval against a brute-force scan for top-n
recommendation, n ∈ {5, 10, 15, 20}: TA is ~5-20x faster and examines
only ~8% of the candidate pairs on average for top-10.

Absolute times differ from the paper's Java/200GB-server setup; the
reproduced quantities are the TA/BF speed ratio and the fraction of pairs
TA examines.  GEM-BF is the paper's full scan
(:func:`~repro.online.bruteforce.scan_top_n`, every pair scored), timed
per query here; GEM-TA and the ``bruteforce`` engine — which bounds its
scan by event row and scores a few percent of the pairs for the same
answer — are read from the serving engines'
:class:`~repro.serving.telemetry.QueryStats` telemetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.context import ExperimentContext, complete_summary
from repro.online import query_vector
from repro.online.bruteforce import scan_top_n
from repro.serving import MetricsRegistry, ServingEngine

DEFAULT_TOP_N = (5, 10, 15, 20)


@dataclass(slots=True)
class OnlineEfficiencyResult:
    """Per-n mean query times of the methods plus their access counts.

    ``bf_pairs_examined`` is the mean candidate pairs GEM-BF scored per
    query (every pair, at every n); ``bound_pairs_examined`` the mean the
    bounded brute force scored (the registry's ``mean_n_examined``) —
    costs that do not depend on the machine, which the paper-shape
    assertions use instead of the timings.
    """

    top_n: tuple[int, ...]
    ta_seconds: dict[int, float]
    bf_seconds: dict[int, float]
    bound_seconds: dict[int, float]
    ta_fraction_examined: dict[int, float]
    bf_pairs_examined: dict[int, float]
    bound_pairs_examined: dict[int, float]
    n_candidate_pairs: int
    n_queries: int

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        header = (
            f"{'n':>4}{'GEM-TA(s)':>12}{'GEM-BF(s)':>12}"
            f"{'speedup':>10}{'examined':>10}{'bound(s)':>12}{'bound':>8}"
        )
        lines = [
            f"Table VI: online efficiency over {self.n_candidate_pairs:,} "
            f"event-partner pairs ({self.n_queries} queries/point)",
            header,
            "-" * len(header),
        ]
        for n in self.top_n:
            speedup = (
                self.bf_seconds[n] / self.ta_seconds[n]
                if self.ta_seconds[n] > 0
                else float("inf")
            )
            bound = self.bound_pairs_examined[n] / max(self.n_candidate_pairs, 1)
            lines.append(
                f"{n:>4}{self.ta_seconds[n]:>12.4f}{self.bf_seconds[n]:>12.4f}"
                f"{speedup:>10.2f}{self.ta_fraction_examined[n]:>10.1%}"
                f"{self.bound_seconds[n]:>12.4f}{bound:>8.1%}"
            )
        return "\n".join(lines)


def run_table6(
    ctx: ExperimentContext | None = None,
    *,
    top_n: tuple[int, ...] = DEFAULT_TOP_N,
    n_queries: int = 20,
    top_k_events: int | None = None,
) -> OnlineEfficiencyResult:
    """Time TA and BF top-n retrieval over the new-event pair space.

    ``top_k_events=None`` uses the full cross product of test events and
    all users as partners — Table VI's setting; Fig 7 varies the pruning.
    TA and bounded-scan timings and examined fractions are aggregated
    from the engines' telemetry records (caching is disabled so every
    query is a real retrieval); GEM-BF's full scan of the same space is
    timed around the call.
    """
    ctx = ctx or ExperimentContext()
    model = ctx.model("GEM-A")
    candidate_events = np.array(sorted(ctx.split.test_events), dtype=np.int64)

    metrics = MetricsRegistry()
    engines = {
        name: ServingEngine(
            model.user_vectors,
            model.event_vectors,
            candidate_events,
            top_k_events=top_k_events,
            backend=name,
            cache_size=0,
            metrics=metrics,
        ).warm()
        for name in ("ta", "bruteforce")
    }

    rng = np.random.default_rng(ctx.eval_seed)
    users = rng.choice(ctx.ebsn.n_users, size=n_queries, replace=False)

    space = engines["bruteforce"].space
    bf_s: dict[int, float] = {}
    bf_pairs: dict[int, float] = {}
    for n in top_n:
        for engine in engines.values():
            for u in users:
                engine.query(int(u), n)
        seconds, examined = 0.0, 0
        for u in users:
            q = query_vector(np.asarray(model.user_vectors[u], dtype=np.float64))
            start = time.perf_counter()
            examined += scan_top_n(space, q, n, exclude_partner=int(u)).n_examined
            seconds += time.perf_counter() - start
        bf_s[n] = seconds / len(users)
        bf_pairs[n] = examined / len(users)

    ta_s: dict[int, float] = {}
    bound_s: dict[int, float] = {}
    frac: dict[int, float] = {}
    bound_pairs: dict[int, float] = {}
    for n in top_n:
        ta = complete_summary(metrics, backend="ta", n=n)
        bound = complete_summary(metrics, backend="bruteforce", n=n)
        ta_s[n] = ta["mean_seconds_total"]
        bound_s[n] = bound["mean_seconds_total"]
        frac[n] = ta["mean_fraction_examined"]
        bound_pairs[n] = bound["mean_n_examined"]

    return OnlineEfficiencyResult(
        top_n=top_n,
        ta_seconds=ta_s,
        bf_seconds=bf_s,
        bound_seconds=bound_s,
        ta_fraction_examined=frac,
        bf_pairs_examined=bf_pairs,
        bound_pairs_examined=bound_pairs,
        n_candidate_pairs=engines["ta"].n_candidate_pairs,
        n_queries=n_queries,
    )


if __name__ == "__main__":
    print(run_table6().format_table())
