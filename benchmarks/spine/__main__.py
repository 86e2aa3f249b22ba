"""``python -m benchmarks.spine ...`` (see :mod:`benchmarks.spine.run`)."""

from benchmarks.spine.run import main

if __name__ == "__main__":
    raise SystemExit(main())
