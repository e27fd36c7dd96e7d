"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU host the same task runs up to about 2 times slower for
minutes at a time when neighbours are busy (measured: a fixed pure-Python
loop alternates between 13-14 ms and 19-20 ms in phases of seconds to
minutes, this calibration between 1.2 and 2.7 ms; the guest sees no steal
time).  Wall times of runs made
in different phases then differ by more than any regression bound.

The worker therefore times a small fixed piece of work between tasks, at
most every CAL_INTERVAL_S.  The work is frozen here and shares no code with
kernelcalc: products of dict-keyed polynomials (the shape of jet
arithmetic) and 2x2 rotations of rows and columns of a small complex
matrix (the shape of a Jacobi sweep).  A task's latency is divided by the
speed factor (calibration time around the task ÷ NOMINAL_S), which turns it
into seconds at the reference speed.  A change to kernelcalc moves the
latencies and not the calibration.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: nominal calibration time.  The reference machine (2 vCPU x86_64,
#: Python 3.11, numpy 2.4) measures 1.15-1.25 ms in its fast phase, so its
#: speed factor is usually 1.2-1.6.
NOMINAL_S = 1.0e-3
#: minimum time between two calibrations during the timed phase
CAL_INTERVAL_S = 0.05
_REPS = 5

_MATRIX = np.random.default_rng(0).standard_normal((24, 24)) + 0j
_ROTATION = np.array([[0.8, -0.6], [0.6, 0.8]], dtype=complex)


def _work() -> int:
    poly = {((i, j), (j, i)): complex(i + 1, j) for i in range(5) for j in range(5)}
    out: dict = {}
    for (a1, b1), v1 in poly.items():
        for (a2, b2), v2 in poly.items():
            key = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            out[key] = out.get(key, 0j) + v1 * v2
    a = _MATRIX.copy()
    for p in range(0, 22, 2):
        a[[p, p + 1], :] = _ROTATION.conj().T @ a[[p, p + 1], :]
        a[:, [p, p + 1]] = a[:, [p, p + 1]] @ _ROTATION
    return len(out)


def measure() -> float:
    """Median seconds of the calibration work over a few repetitions."""
    times = []
    for _ in range(_REPS):
        t = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedTrack:
    """Calibrations taken during a timed phase, by time."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def maybe_sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= CAL_INTERVAL_S:
            value = measure()
            self.times.append(now)
            self.values.append(value)

    def factor(self, start: float, end: float) -> float:
        """Speed factor over [start, end]: the mean of the last calibration
        before `start`, the first after `end`, and any in between."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return statistics.fmean(self.values[lo : hi + 1]) / NOMINAL_S
