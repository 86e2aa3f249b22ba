"""Entry file: pin the machine, find the program, hand over to the CLI.

Runs both as ``python3 benchmarks/spine/run.py ...`` (the command in
``BENCHMARK.json``) and as ``python -m benchmarks.spine ...``.  BLAS and
OpenMP are pinned to one thread *before* NumPy is imported: two OpenBLAS
threads on this two-core box moved a full scan between 39 and 52 ops/s
inside one process.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Thread pins (inherited by every child process) and import paths."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pins")
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def main(argv: list[str] | None = None) -> int:
    bootstrap()
    from benchmarks.spine.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
