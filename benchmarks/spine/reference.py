"""In-run reference kernels: the machine's speed, sampled beside the ops.

This box's speed wanders by +-15 % over tens of seconds and by more over
tens of minutes, and the wander is common to everything that runs on it:
ten 8 s runs of the full scan spread 10.7 % (quartile distance over
median) in p50 while the same runs' p50 *divided by the median time of a
fixed 16 MB mat-vec interleaved with the requests* spread 1.9 %.  So every
measured phase interleaves one of two fixed kernels with its ops (about
every 50 ms), and the time metrics are reported at *nominal machine
speed*: measured x (nominal kernel time / kernel time beside the op).

The kernel must resemble what the workload is bound by, or it cancels
nothing: the scans stream memory (``stream``: a 60 000 x 33 float64
mat-vec), the trainer and the ladder's 0.4 ms requests are bound by the
interpreter and small NumPy calls (``interp``: a 20 000-element Python
sum plus twenty 64 x 64 products).  Dividing the trainer's chunk time by
the *stream* kernel doubled its spread; by ``interp`` it fell from 8.3 %
to 3.4 %.

The kernels live here, in the benchmark, which a change that claims a
gain may not edit; the program cannot make them faster.  Raw times are
always printed beside the compensated ones.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from benchmarks.spine.stats import median

now = time.perf_counter

#: Seconds of op time between two reference samples.
PERIOD_S = 0.05

#: Kernel time between ops on this box in its quiet state when the
#: benchmark was defined (the stream kernel's matrix has been evicted by
#: the scans in between, so it reads from memory like they do).  Only a
#: scale: it makes compensated values read in the same units, and about the
#: same size, as raw ones.
NOMINAL_S = {"stream": 1.7e-3, "interp": 0.30e-3}

def _stream_kernel() -> Callable[[], object]:
    matrix = np.ones((60_000, 33), dtype=np.float64)
    vector = np.ones(33, dtype=np.float64)
    return lambda: matrix @ vector


def _interp_kernel() -> Callable[[], object]:
    numbers = list(range(20_000))
    small = np.ones((64, 64), dtype=np.float64)

    def kernel() -> None:
        sum(numbers)
        for _ in range(20):
            small @ small

    return kernel


class Reference:
    """One kernel, sampled on demand; samples are grouped by the caller."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self.kernel = {"stream": _stream_kernel, "interp": _interp_kernel}[kind]()
        self.samples: list[float] = []
        #: For each sample, how many ops of the phase had run before it.
        self.positions: list[int] = []
        self.spent = 0.0
        self._due = 0.0
        for _ in range(3):  # first calls pay page faults and cache fills
            self.kernel()

    def sample(self, position: int = 0) -> None:
        """Time the kernel once, after ``position`` ops of the phase."""
        start = now()
        self.kernel()
        stop = now()
        self.samples.append(stop - start)
        self.positions.append(position)
        self.spent += stop - start
        self._due = stop + PERIOD_S

    def tick(self, at: float, position: int) -> None:
        """Sample if ``PERIOD_S`` has passed since the last sample."""
        if at >= self._due:
            self.sample(position)

    def begin(self) -> None:
        """Start a phase: forget old samples; the first ``tick`` samples."""
        self.samples, self.positions, self.spent = [], [], 0.0
        self._due = 0.0

    def take(self) -> tuple[list[float], list[int], float]:
        """Samples, their positions and seconds spent since ``begin``."""
        return self.samples, self.positions, self.spent


#: Reference samples whose median is the machine factor of one op: the
#: nearest ones in op order, about a third of a second.  A burst of
#: contention raises the op and the samples beside it together, which is
#: what steadies the tail: with one factor per round the p95 of the scan
#: spread 17.8 % over ten runs, with this window 10.3 %.
LOCAL_WINDOW = 7


def round_factor(reference: list[float], nominal_s: float) -> float:
    """How slow the machine was over a phase (1.0 = nominal speed)."""
    return median(reference) / nominal_s


def local_factors(
    n_ops: int, reference: list[float], positions: list[int], nominal_s: float
) -> np.ndarray:
    """The machine factor beside each of ``n_ops`` ops.

    ``positions[j]`` ops had run before reference sample ``j``; an op's
    factor is the median of the ``LOCAL_WINDOW`` samples nearest to it in
    that order (fewer only when the phase has fewer).
    """
    ref = np.asarray(reference, dtype=np.float64)
    window = min(LOCAL_WINDOW, ref.size)
    first = np.searchsorted(
        np.asarray(positions), np.arange(n_ops), side="right"
    ) - (window // 2 + 1)
    first = np.clip(first, 0, ref.size - window)
    stacked = np.stack([ref[first + k] for k in range(window)])
    return np.median(stacked, axis=0) / nominal_s
