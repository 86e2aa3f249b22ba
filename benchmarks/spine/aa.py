"""A/A: run identical code in interleaved sets and compare set medians.

``python -m benchmarks.spine aa --sets 2 --runs 5`` runs every workload
``runs`` times per set (run *i* of every set uses seed ``--seed + i``; the
sets are interleaved run by run so that machine drift hits them alike),
then prints, per workload and end-to-end metric, each set's median, the
run-to-run spread (quartile distance over median), the worst gap between
set medians and the bound.  It fails when a gap or a spread exceeds the
bound, or when a seed's ``answer_quality``/``success_ratio`` differs
between sets: the benchmark must be steadier than the regressions it is
meant to catch.
"""

from __future__ import annotations

import argparse
import json
import subprocess

from benchmarks.spine import config
from benchmarks.spine.stats import median, quartile_spread, worsening

#: Deterministic given the seed, so every set must agree bit for bit.
EXACT = ("answer_quality", "success_ratio")


def run_once(args: argparse.Namespace, workload: str, seed: int) -> dict[str, float]:
    """One child run; its end-to-end metric values (``raw.<name>``: as measured)."""
    from benchmarks.spine.cli import child_command

    done = subprocess.run(
        child_command(args, workload, seed),
        capture_output=True,
        text=True,
        check=False,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    detail = json.loads((args.out / f"{workload}-seed{seed}.run.json").read_text())
    for name, entry in detail["end_to_end"].items():
        values[f"raw.{name}"] = entry["raw"]
    return values


def _spread(runs: list[list[float]]) -> float:
    """The widest quartile spread among the sets."""
    return max((quartile_spread(v) for v in runs if len(v) >= 2), default=0.0)


def compare(
    sets: list[dict[str, list[dict[str, float]]]],
) -> tuple[list[str], list[str]]:
    """Table rows and failures for ``sets[s][workload][run][metric]``."""
    rows = [
        f"{'workload':<15} {'metric':<18} "
        + " ".join(f"{'median' + str(i):>12}" for i in range(len(sets)))
        + f" {'spread':>8} {'gap':>8} {'bound':>6} {'raw spread':>10}"
    ]
    failures = []
    for workload in config.WORKLOADS:
        for metric in config.END_TO_END:
            runs = [[r[metric.name] for r in s[workload]] for s in sets]
            medians = [median(values) for values in runs]
            spread = _spread(runs)
            raw_spread = _spread(
                [[r[f"raw.{metric.name}"] for r in s[workload]] for s in sets]
            )
            gap = max(
                worsening(a, b, metric.better) for a in medians for b in medians
            )
            flags = []
            if gap > metric.bound:
                flags.append("gap")
            if spread > metric.bound and metric.name != "setup_s":
                flags.append("spread")
            if metric.name in EXACT and any(
                len({values[i] for values in runs}) != 1 for i in range(len(runs[0]))
            ):
                flags.append("not deterministic")
            rows.append(
                f"{workload:<15} {metric.name:<18} "
                + " ".join(f"{m:>12.5g}" for m in medians)
                + f" {spread:>8.3f} {gap:>8.3f} {metric.bound:>6.2f}"
                + f" {raw_spread:>10.3f}"
                + (f"  <-- {', '.join(flags)}" if flags else "")
            )
            failures += [f"{workload}/{metric.name}: {flag}" for flag in flags]
    return rows, failures


def run_aa(args: argparse.Namespace) -> int:
    args.trace = 0
    sets: list[dict[str, list[dict[str, float]]]] = [
        {workload: [] for workload in config.WORKLOADS} for _ in range(args.sets)
    ]
    for run in range(args.runs):
        for index, results in enumerate(sets):
            for workload in config.WORKLOADS:
                values = run_once(args, workload, args.seed + run)
                results[workload].append(values)
                print(
                    f"set {index} run {run} {workload}: "
                    + " ".join(
                        f"{k}={v:.5g}" for k, v in values.items() if "raw." not in k
                    ),
                    flush=True,
                )
    rows, failures = compare(sets)
    print("\n".join(rows))
    (args.out / "aa.json").write_text(json.dumps(sets, indent=1))
    if failures:
        print("A/A FAILED: " + "; ".join(failures))
        return 1
    print("A/A ok: every gap and spread is within its bound")
    return 0
