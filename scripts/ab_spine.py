#!/usr/bin/env python
"""Paired parent/change runs of spine workloads, tabulated.

    python scripts/ab_spine.py PARENT CHANGE --workload serve_ladder --seeds 601-610
    python scripts/ab_spine.py PARENT CHANGE --workload all --seeds 601-603

``PARENT`` and ``CHANGE`` are two checkouts.  ``--workload`` names a
workload; repeat it for several, or give ``all`` for every workload
``BENCHMARK.json`` declares — a change is judged on every end-to-end metric
of every workload, so one call gives the whole A/B.  For each workload and
every seed the command ``BENCHMARK.json`` declares runs once in each tree,
in a fresh process, in the driver's form
(``--workload W --seed N --seconds S --trace 0``): the parent first on odd
pairs, the change first on even ones.  Every run's final result line is appended, with the tree's commit and
the machine (CPU count, BLAS thread settings), to the repository's
append-only run history ``BENCH_history.jsonl`` (``--out`` picks another
file); then, per workload and end-to-end metric, the table gives each side's
median ``[quartiles]``, the ratio of the medians with its base, the pairs
the change won and the verdict of the choosing-metrics guide (§6, §8)
against the bound ``BENCHMARK.json`` fixes.  Under it, each seed's
``answer_quality`` on both sides: a median can hide one seed that dropped.

A driver for the one measurement system, not a second one: it times nothing,
every number is the spine's own.  Stdlib only; not a ``scripts/check.sh``
stage — ``tests/test_ab_spine.py`` holds the tabulation and the verdict rule
to canned result lines.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Share of all pairs run the change must win before a gain is claimed.
WIN_SHARE = 0.9
SIDES = ("parent", "change")
#: The tracked, append-only run history every run is logged to by default.
HISTORY = Path(__file__).resolve().parents[1] / "BENCH_history.jsonl"
#: Environment variables that set the BLAS thread count of a run.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_result(stdout: str) -> dict:
    """A run's final result line, with the ``tallies:`` line kept beside it."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["values"] = {k: v["value"] for k, v in result.pop("metrics").items()}
    result["tallies"] = next(
        (ln.partition(": ")[2] for ln in lines if ln.startswith("tallies: ")), ""
    )
    return result


def tree_commit(tree: Path) -> str | None:
    """``git rev-parse HEAD`` of ``tree``, ``-dirty`` when tracked files
    differ from it; ``None`` outside a git checkout."""

    def git(*args: str) -> str | None:
        done = subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True,
            check=False,
        )
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return None
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def machine() -> dict:
    """What a run's numbers depend on besides the tree."""
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
    }


def run_once(tree: Path, declared: dict, workload: str, seed: int) -> dict:
    """One fresh process of the declared command in ``tree``."""
    command = declared["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=False
    )
    try:
        return {"returncode": done.returncode, **parse_result(done.stdout)}
    except (ValueError, IndexError, KeyError) as exc:
        raise RuntimeError(
            f"{workload} seed {seed} in {tree} (exit {done.returncode}) printed "
            f"no result line:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        ) from exc


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One table row; ``parent[i]`` and ``change[i]`` are pair *i*'s values.

    * ``gain`` — the change wins at least nine tenths of all pairs (a tie is
      a win for neither) and the medians differ by more than the distance
      between the parent's quartiles;
    * ``unresolved`` — otherwise, when either side's quartile distance is a
      larger share of its median than the bound, unless every run of the
      change reads better than every run of the parent;
    * ``regression`` — otherwise, when the change's median is worse than the
      parent's by more than the bound; else ``within bound``.
    """
    lower, bound = metric["better"] == "lower", metric["bound"]

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    mp, mc = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change, strict=True))
    row = {
        "metric": metric["name"], "parent": mp, "change": mc, "bound": bound,
        "ratio": mc / mp if mp else float("nan"), "pairs": len(pairs),
        "wins": sum(better(c, p) for p, c in pairs),
        "losses": sum(better(p, c) for p, c in pairs),
    }
    if len(pairs) < 2:
        return {**row, "verdict": "too few pairs"}
    # Quartiles as benchmarks/spine/stats.py takes them.
    (p1, _, p3), (c1, _, c3) = (statistics.quantiles(v, n=4) for v in (parent, change))
    spread = max((p3 - p1) / abs(mp) if mp else 0.0, (c3 - c1) / abs(mc) if mc else 0.0)
    worse = ((mc - mp) if lower else (mp - mc)) / abs(mp) if mp else 0.0
    if (
        row["wins"] >= WIN_SHARE * len(pairs)
        and better(mc, mp)
        and abs(mc - mp) > p3 - p1
    ):
        verdict = "gain"
    elif spread > bound and not all(better(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "regression" if worse > bound else "within bound"
    return {
        **row, "parent_quartiles": (p1, p3), "change_quartiles": (c1, c3),
        "verdict": verdict,
    }


def render(rows: list[dict]) -> str:
    """The table: medians ``[q1, q3]``, ratio with its base, wins, verdict."""

    def side(row: dict, name: str) -> str:
        q = row.get(f"{name}_quartiles")
        return f"{row[name]:.5g}" + (f" [{q[0]:.5g}, {q[1]:.5g}]" if q else "")

    lines = [
        f"{'metric':<18} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'ratio (base)':<20} "
        f"{'wins/pairs':<11} {'bound':<6} verdict"
    ]
    for row in rows:
        ratio = f"x{row['ratio']:.3f} (of {row['parent']:.5g})"
        won = f"{row['wins']}/{row['pairs']}"
        lines.append(
            f"{row['metric']:<18} {side(row, 'parent'):<34} "
            f"{side(row, 'change'):<34} {ratio:<20} {won:<11} "
            f"{row['bound']:<6g} {row['verdict']}"
        )
    return "\n".join(lines)


def quality_by_seed(seeds: list[int], runs: dict[str, list[dict]]) -> str:
    """Each seed's ``answer_quality`` on both sides and the change's
    difference — the per-seed check a median hides (empty when the runs
    report no quality)."""
    if not all("answer_quality" in r["values"] for side in SIDES for r in runs[side]):
        return ""
    lines = [f"answer_quality by seed\n{'seed':>8} {'parent':>10} {'change':>10} "
             f"{'change - parent':>16}"]
    for seed, parent, change in zip(seeds, runs["parent"], runs["change"], strict=True):
        p, c = parent["values"]["answer_quality"], change["values"]["answer_quality"]
        lines.append(f"{seed:>8} {p:>10.6g} {c:>10.6g} {c - p:>+16.6g}")
    return "\n".join(lines)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def workloads(asked: list[str], declared: dict) -> list[str]:
    """The workloads asked for, in order and each once; ``all`` stands for
    every workload ``BENCHMARK.json`` declares, in its order."""
    names: list[str] = []
    for name in asked:
        every = [w["name"] for w in declared["workloads"]] if name == "all" else [name]
        names.extend(one for one in every if one not in names)
    return names


def report(workload: str, seeds: list[int], runs: dict[str, list[dict]],
           declared: dict, out: Path) -> None:
    """One workload's table, its per-seed quality and its failure counts."""
    print(f"\n{workload}, seeds {seeds[0]}-{seeds[-1]}, runs appended to {out}")
    print(render([
        judge(m, *([r["values"][m["name"]] for r in runs[side]] for side in SIDES))
        for m in declared["end_to_end"]
    ]))
    per_seed = quality_by_seed(seeds, runs)
    if per_seed:
        print(per_seed)
    for side in SIDES:
        failed, attempted, correct = (
            sum(r[key] for r in runs[side])
            for key in ("failed", "attempted", "correct")
        )
        print(f"{side}: {failed} of {attempted} operations failed, "
              f"{correct}/{len(runs[side])} runs correct")


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("parent", type=Path)
    cli.add_argument("change", type=Path)
    cli.add_argument("--workload", required=True, action="append",
                     help="a workload; repeat it for several, or 'all'")
    cli.add_argument("--seeds", required=True, type=seed_range, help="N or N-M")
    cli.add_argument("--out", type=Path, default=HISTORY)
    args = cli.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    names = workloads(args.workload, declared)
    commits = {side: tree_commit(tree) for side, tree in trees.items()}
    host = machine()
    tables = []
    with args.out.open("a") as log:
        for workload in names:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair, seed in enumerate(args.seeds, start=1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    run = run_once(trees[side], declared, workload, seed)
                    runs[side].append(run)
                    record = {"workload": workload, "seed": seed, "pair": pair,
                              "side": side, "first": order[0],
                              "commit": commits[side], **host, **run}
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    print(f"{workload} pair {pair} seed {seed} {side}: exit "
                          f"{run['returncode']} {run['tallies']}", flush=True)
            tables.append((workload, runs))
    # Every table after every run, so one call's whole A/B reads in one place.
    for workload, runs in tables:
        report(workload, args.seeds, runs, declared, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
