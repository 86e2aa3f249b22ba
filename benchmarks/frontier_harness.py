"""Recall/latency frontier for the sublinear IVF retrieval rung.

ISSUE 10's acceptance artifact: for each requested preset this harness
builds one transformed pair space (candidate events x all users), then
measures every retrieval family the degradation ladder can route to —

* **bruteforce** (GEM-BF): the exact oracle; ground truth for recall
  and the 100%-of-pairs latency reference.
* **ta** (GEM-TA): exact, examines a query-dependent prefix of the
  sorted lists (the paper's "minimum number of pairs" property).  TA's
  per-round Python scheduling makes it expensive at millions of pairs,
  so it runs on a (configurable) subset of the query sample.
* **ivf**: the clustered inverted-file backend at a *sweep* of
  ``nprobe`` values — the committed frontier.  Each point reports
  recall@n against the bruteforce oracle, the fraction of pairs
  examined, and latency percentiles.
* **truncated**: a blind prefix scan at the same examined fractions as
  the IVF points — the rung below IVF on the ladder, and the baseline
  that shows clustering beats a budget-equivalent blind scan.

The committed ``BENCH_frontier.json`` is produced by::

    PYTHONPATH=src:. python benchmarks/frontier_harness.py \
        --presets beijing-small,beijing-xl \
        --xl-candidate-events 8 --xl-clusters 1024 \
        --output BENCH_frontier.json

and the CI smoke (scripts/check.sh) runs the ``tiny`` preset asserting
the default operating point: recall@10 >= 0.95 while examining strictly
fewer pairs than brute force (``--assert-default-operating-point``).

Synthetic embeddings on purpose, like the load harness: the frontier
measures the *retrieval substrate*, which needs realistic shapes and
scale, not a trained model.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.data.presets import get_preset
from repro.online.bruteforce import BruteForceIndex, scan_top_n
from repro.online.ivf import IVFIndex, default_nprobe
from repro.online.ta import ThresholdAlgorithmIndex
from repro.online.transform import PairSpace, transform_all_pairs
from repro.serving.telemetry import percentile


def build_pair_space(
    *,
    n_users: int,
    n_candidate_events: int,
    dim: int,
    seed: int,
) -> tuple[PairSpace, np.ndarray]:
    """One pair space over synthetic non-negative embeddings.

    Returns the space plus the user matrix (query vectors are built from
    it).  Event-major layout, all users as candidate partners — the same
    shape the serving engine builds.
    """
    rng = np.random.default_rng(seed)
    users = np.abs(rng.normal(size=(n_users, dim)))
    events = np.abs(rng.normal(size=(n_candidate_events, dim)))
    space = transform_all_pairs(
        events,
        users,
        event_ids=np.arange(n_candidate_events, dtype=np.int64),
        partner_ids=np.arange(n_users, dtype=np.int64),
    )
    return space, users


def _queries_for(users: np.ndarray, sample: np.ndarray) -> np.ndarray:
    """Extended query vectors (u, u, 1) for the sampled user rows."""
    uv = np.asarray(users[sample], dtype=np.float64)
    return np.concatenate([uv, uv, np.ones((uv.shape[0], 1))], axis=1)


def _recall(truth: np.ndarray, got: np.ndarray) -> float:
    """|top-n intersection| / |truth| (1.0 when truth is empty)."""
    if truth.size == 0:
        return 1.0
    return float(
        np.intersect1d(truth, got).size / truth.size
    )


def _lat_summary(seconds: list[float]) -> dict:
    ms = [s * 1e3 for s in seconds]
    return {
        "p50_ms": percentile(ms, 50.0),
        "p95_ms": percentile(ms, 95.0),
        "mean_ms": sum(ms) / max(len(ms), 1),
    }


def measure_preset(
    *,
    label: str,
    n_users: int,
    n_candidate_events: int,
    dim: int,
    n: int,
    n_queries: int,
    n_ta_queries: int,
    n_clusters: int | None,
    nprobes: list[int] | None,
    seed: int,
) -> dict:
    """The full frontier for one preset-sized pair space."""
    t0 = time.perf_counter()
    space, users = build_pair_space(
        n_users=n_users,
        n_candidate_events=n_candidate_events,
        dim=dim,
        seed=seed,
    )
    build_space_s = time.perf_counter() - t0
    rng = np.random.default_rng(seed + 1)
    sample = rng.choice(n_users, size=min(n_queries, n_users), replace=False)
    queries = _queries_for(users, sample)
    print(
        f"[{label}] {space.n_pairs:,} pairs "
        f"({n_candidate_events} events x {n_users:,} users, dim {dim}), "
        f"{sample.size} queries, top-{n}",
        flush=True,
    )

    # --- bruteforce: ground truth + latency reference -----------------
    bf = BruteForceIndex(space)
    truths: list[np.ndarray] = []
    bf_lat: list[float] = []
    for i, q in enumerate(queries):
        t = time.perf_counter()
        res = bf.query(q, n, exclude=int(sample[i]))
        bf_lat.append(time.perf_counter() - t)
        truths.append(res.pair_indices)
    bruteforce = {
        **_lat_summary(bf_lat),
        "mean_fraction_examined": 1.0,
        "recall_at_n": 1.0,
    }

    # --- ta: exact, on a subset (Python-loop rounds are costly) -------
    t0 = time.perf_counter()
    ta_index = ThresholdAlgorithmIndex(space)
    ta_build_s = time.perf_counter() - t0
    ta_take = min(n_ta_queries, sample.size)
    ta_lat: list[float] = []
    ta_fracs: list[float] = []
    for i in range(ta_take):
        t = time.perf_counter()
        res = ta_index.query(
            queries[i], n, exclude=int(sample[i]), chunk=4096
        )
        ta_lat.append(time.perf_counter() - t)
        ta_fracs.append(res.fraction_examined)
        assert np.array_equal(res.pair_indices, truths[i]), "TA diverged"
    ta = {
        **_lat_summary(ta_lat),
        "n_queries": ta_take,
        "build_s": ta_build_s,
        "mean_fraction_examined": sum(ta_fracs) / max(len(ta_fracs), 1),
        "recall_at_n": 1.0,
    }
    del ta_index  # the sorted lists double the resident pair bytes

    # --- ivf: the committed frontier ----------------------------------
    t0 = time.perf_counter()
    ivf = IVFIndex(space, n_clusters=n_clusters, seed=seed)
    ivf_build_s = time.perf_counter() - t0
    if nprobes is None:
        k = ivf.n_clusters
        raw = [
            max(1, k // 64), max(1, k // 16), max(1, k // 8),
            default_nprobe(k), max(1, k // 2), k,
        ]
        nprobes = sorted({min(p, k) for p in raw})
    points = []
    for p in nprobes:
        lat: list[float] = []
        recalls: list[float] = []
        fracs: list[float] = []
        for i, q in enumerate(queries):
            t = time.perf_counter()
            res = ivf.query(
                q, n, exclude=int(sample[i]), nprobe=p
            )
            lat.append(time.perf_counter() - t)
            recalls.append(_recall(truths[i], res.pair_indices))
            fracs.append(res.fraction_examined)
        points.append(
            {
                "nprobe": int(p),
                "is_default": int(p) == ivf.nprobe,
                "recall_at_n": sum(recalls) / len(recalls),
                "min_recall_at_n": min(recalls),
                "mean_fraction_examined": sum(fracs) / len(fracs),
                **_lat_summary(lat),
            }
        )
        print(
            f"[{label}] ivf nprobe={p:>5}: recall@{n}="
            f"{points[-1]['recall_at_n']:.3f} "
            f"fraction={points[-1]['mean_fraction_examined']:.3f} "
            f"p50={points[-1]['p50_ms']:.2f}ms",
            flush=True,
        )

    # --- truncated: blind prefix at the same examined fractions -------
    truncated_points = []
    for point in points:
        frac = point["mean_fraction_examined"]
        m = max(1, int(round(frac * space.n_pairs)))
        lat = []
        recalls = []
        for i, q in enumerate(queries):
            t = time.perf_counter()
            top = scan_top_n(
                space, q, n, exclude_partner=int(sample[i]), stop=m
            ).pair_indices
            lat.append(time.perf_counter() - t)
            recalls.append(_recall(truths[i], top))
        truncated_points.append(
            {
                "fraction": frac,
                "recall_at_n": sum(recalls) / len(recalls),
                **_lat_summary(lat),
            }
        )

    return {
        "label": label,
        "n_users": int(n_users),
        "n_candidate_events": int(n_candidate_events),
        "n_pairs": int(space.n_pairs),
        "dim": int(dim),
        "n": int(n),
        "n_queries": int(sample.size),
        "build_space_s": build_space_s,
        "bruteforce": bruteforce,
        "ta": ta,
        "ivf": {
            "n_clusters": int(ivf.n_clusters),
            "default_nprobe": int(ivf.nprobe),
            "build_s": ivf_build_s,
            "memory_bytes": ivf.memory_bytes(),
            "points": points,
        },
        "truncated": {"points": truncated_points},
    }


def _check_default_point(result: dict, *, min_recall: float) -> list[str]:
    """The operating-point assertions the CI smoke turns into exit codes."""
    failures: list[str] = []
    default = [p for p in result["ivf"]["points"] if p["is_default"]]
    if not default:
        return [f"{result['label']}: default nprobe missing from the sweep"]
    point = default[0]
    if point["recall_at_n"] < min_recall:
        failures.append(
            f"{result['label']}: default-nprobe recall@{result['n']} "
            f"{point['recall_at_n']:.3f} < {min_recall}"
        )
    if point["mean_fraction_examined"] >= 1.0:
        failures.append(
            f"{result['label']}: default nprobe examined "
            f"{point['mean_fraction_examined']:.3f} of pairs — not fewer "
            "than brute force"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--presets",
        default="beijing-small",
        help="comma-separated preset names sizing the user axis "
        "(tiny, beijing-small, beijing-xl, ...)",
    )
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--queries", type=int, default=32)
    parser.add_argument(
        "--ta-queries",
        type=int,
        default=4,
        help="TA subset size (TA's Python rounds dominate at XL scale)",
    )
    parser.add_argument(
        "--candidate-events",
        type=int,
        default=0,
        help="candidate-event window (0 = every preset event)",
    )
    parser.add_argument(
        "--xl-candidate-events",
        type=int,
        default=8,
        help="candidate-event window for *-xl presets (caps the pair "
        "count at n_users * this)",
    )
    parser.add_argument(
        "--clusters",
        type=int,
        default=0,
        help="IVF cluster count (0 = sqrt rule)",
    )
    parser.add_argument(
        "--xl-clusters",
        type=int,
        default=1024,
        help="IVF cluster count for *-xl presets (0 = sqrt rule)",
    )
    parser.add_argument(
        "--nprobes",
        default="",
        help="comma-separated nprobe sweep (default: derived from the "
        "cluster count, always including the default and full probe)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_frontier.json")
    parser.add_argument(
        "--assert-default-operating-point",
        action="store_true",
        help="exit non-zero unless every preset's default-nprobe point "
        "reaches --min-recall while examining < 100%% of pairs",
    )
    parser.add_argument("--min-recall", type=float, default=0.95)
    args = parser.parse_args(argv)

    nprobes = (
        [int(p) for p in args.nprobes.split(",")] if args.nprobes else None
    )
    results = []
    failures: list[str] = []
    # replint: allow-loop(one measurement pass per requested preset)
    for name in args.presets.split(","):
        name = name.strip()
        cfg = get_preset(name)
        is_xl = name.endswith("-xl")
        cand = args.xl_candidate_events if is_xl else args.candidate_events
        n_cand = cfg.n_events if cand == 0 else min(cand, cfg.n_events)
        clusters = args.xl_clusters if is_xl else args.clusters
        result = measure_preset(
            label=name,
            n_users=cfg.n_users,
            n_candidate_events=n_cand,
            dim=args.dim,
            n=args.n,
            n_queries=args.queries,
            n_ta_queries=args.ta_queries,
            n_clusters=clusters or None,
            nprobes=nprobes,
            seed=args.seed,
        )
        results.append(result)
        if args.assert_default_operating_point:
            failures.extend(
                _check_default_point(result, min_recall=args.min_recall)
            )

    report = {
        "benchmark": "retrieval_frontier",
        "n": args.n,
        "dim": args.dim,
        "seed": args.seed,
        "presets": results,
        "assertions": {
            "checked": bool(args.assert_default_operating_point),
            "min_recall": args.min_recall,
            "failures": failures,
        },
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if failures:
        for f in failures:
            print(f"ASSERTION FAILED: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
