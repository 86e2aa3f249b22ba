"""Command line: ``run`` (default) and ``aa``.

The driver's form is ``<command> --workload NAME --seed N --seconds S
--trace 0|1``: one workload, in this process.  Without ``--workload`` every
workload runs in a fresh process of its own, one after the other.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.spine import config

DEFAULT_OUT = ".spine_out"


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="benchmarks.spine", description=__doc__)
    top.add_argument("command", nargs="?", choices=("run", "aa"), default="run")
    top.add_argument("--workload", choices=tuple(config.WORKLOADS))
    top.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    top.add_argument(
        "--seconds",
        type=float,
        default=config.RUN_SECONDS,
        help="measured seconds per run that the op counts are sized for",
    )
    top.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="traced run: per-layer metrics instead of end-to-end ones",
    )
    top.add_argument(
        "--smoke", action="store_true", help="tiny world, ~2 s phases (self-tests)"
    )
    top.add_argument(
        "--out",
        type=Path,
        default=Path(DEFAULT_OUT),
        help="directory for spans, details and temporary files",
    )
    top.add_argument("--sets", type=int, default=2, help="aa: interleaved run sets")
    top.add_argument("--runs", type=int, default=5, help="aa: runs per set")
    return top


def child_command(args: argparse.Namespace, workload: str, seed: int) -> list[str]:
    """The command line that runs one workload in a process of its own."""
    command = [
        sys.executable,
        str(Path(__file__).with_name("run.py")),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--out",
        str(args.out),
    ]
    return command + (["--smoke"] if args.smoke else [])


def main(argv: list[str] | None = None) -> int:
    args = parser().parse_args(argv)
    if importlib.util.find_spec("repro") is None:
        print("the program under test (src/repro) is not importable", file=sys.stderr)
        return 2
    # Temporary files (the Hogwild probe's shared store) stay in the checkout.
    scratch = args.out.resolve() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)

    if args.command == "aa":
        from benchmarks.spine.aa import run_aa

        return run_aa(args)
    if args.workload is None:
        codes = [
            subprocess.run(child_command(args, name, args.seed), check=False).returncode
            for name in config.WORKLOADS
        ]
        return max(codes)

    from benchmarks.spine.runner import emit, run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.out
    )
    emit(result, args.out)
    return 0 if result.correct else 1
