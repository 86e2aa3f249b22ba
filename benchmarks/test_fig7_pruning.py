"""Fig 7 — per-partner top-k event pruning.

Paper shape: (a) both methods' query time is roughly linear in k with TA
well below brute force; (b) the approximation ratio of Accuracy@10
approaches 1 once k reaches ~5% of the events — pruning buys speed at
essentially no accuracy cost.
"""

from benchmarks.conftest import emit
from repro.experiments import run_fig7


def test_fig7_pruning_sweep(ctx, benchmark):
    fractions = (0.01, 0.02, 0.05, 0.10)
    result = benchmark.pedantic(
        lambda: run_fig7(ctx, k_fractions=fractions, n_queries=10),
        rounds=1,
        iterations=1,
    )
    emit(result.format_table())

    # (a) Brute-force cost grows with k, counted not timed: it scans the
    # whole pruned space, partners x k pairs.
    for f in fractions:
        assert result.bf_pairs_examined[f] == result.n_partners * result.k_values[f]
    assert result.bf_pairs_examined[0.10] > result.bf_pairs_examined[0.01]

    # (b) The approximation ratio is monotone-ish in k and near 1 at 10%.
    assert result.approx_ratio_at_10[0.10] >= result.approx_ratio_at_10[0.01]
    assert result.approx_ratio_at_10[0.10] > 0.7, result.approx_ratio_at_10

    # Ratios are genuine fractions of the full-space accuracy.
    for f in fractions:
        assert 0.0 <= result.approx_ratio_at_10[f] <= 1.2
