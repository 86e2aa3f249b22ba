"""Table VI — online recommendation efficiency: GEM-TA vs GEM-BF.

Paper shape: TA is several times faster than brute force at every n
(their Java numbers: 2.2-9.3s vs ~45.9s) and examines only ~8% of the
event-partner pairs for top-10.  The reproduced quantities are the
speed *ratio* and the examined fraction, which are implementation-
language independent.
"""

from benchmarks.conftest import emit
from repro.experiments import run_table6


def test_table6_ta_vs_bruteforce(ctx, benchmark):
    result = benchmark.pedantic(
        lambda: run_table6(ctx, n_queries=15),
        rounds=1,
        iterations=1,
    )
    emit(result.format_table())

    for n in result.top_n:
        # TA returns exact top-n while examining a strict subset of pairs.
        assert result.ta_fraction_examined[n] < 0.9, (
            n,
            result.ta_fraction_examined[n],
        )
    # Top-10: the headline examined-fraction claim (paper: ~8%; shape
    # reproduced as "a small fraction").
    assert result.ta_fraction_examined[10] < 0.5

    # Brute force cost is flat in n, as in the paper's Table VI: counted,
    # not timed — it scores every candidate pair at every n.
    for n in result.top_n:
        assert result.bf_pairs_examined[n] == result.n_candidate_pairs, (
            n,
            result.bf_pairs_examined[n],
        )
