"""Wall-clock timing corrected for the speed of a shared host.

On a small shared machine the speed at which this process runs changes by
a quarter or more within seconds, with the load of other tenants; a plain
wall-clock time then mostly measures the neighbours.  ``SpeedClock`` cuts
the measured work into segments of about ``SEGMENT_S`` at operation
boundaries, and between segments times a fixed calibration kernel (pure
Python and small NumPy operations, like the program).  Each segment's wall
time is scaled by ``KERNEL_NOMINAL_S`` over the kernel time around it, so
reported times are wall seconds at a fixed reference speed: the speed at
which the kernel takes ``KERNEL_NOMINAL_S``.  Calibration time is excluded
from every measurement.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

KERNEL_NOMINAL_S = 0.010
SEGMENT_S = 0.5


def kernel() -> int:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 2000):
        acc += Fraction(i, i + 1)
        table[i % 97] = acc.numerator % 1000003
    a = np.arange(64.0)
    for _ in range(1000):
        a = np.sqrt(a * a + 1.0)
    return len(table) + int(a[0])


def calibrate() -> float:
    """Seconds the kernel takes now: the mean of three runs."""
    t0 = time.perf_counter()
    for _ in range(3):
        kernel()
    return (time.perf_counter() - t0) / 3


class SpeedClock:
    """Measures one pass of work, in segments separated by calibrations.

    ``start`` and ``stop`` bracket the pass.  The caller marks operation
    boundaries with ``boundary`` (a calibration may run there) and ends each
    operation with ``lap``.  ``now`` excludes calibration time, so spans
    timed with it are not inflated by the calibrations inside them.
    """

    def __init__(self) -> None:
        self._paused = 0.0
        self._segments: list[float] = []
        self._kernel_s: list[float] = []
        self._laps: list[tuple[int, float]] = []
        self._seg_start = 0.0
        self._lap_start = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        self._kernel_s.append(calibrate())
        self._paused += time.perf_counter() - t0

    def start(self) -> None:
        self._calibrate()
        self._seg_start = self._lap_start = self.now()

    def boundary(self) -> None:
        t = self.now()
        if t - self._seg_start >= SEGMENT_S:
            self._segments.append(t - self._seg_start)
            self._calibrate()
            self._seg_start = self.now()

    def restart_lap(self) -> None:
        self._lap_start = self.now()

    def lap(self) -> None:
        t = self.now()
        self._laps.append((len(self._segments), t - self._lap_start))
        self._lap_start = t

    def stop(self) -> None:
        self._segments.append(self.now() - self._seg_start)
        self._calibrate()

    def _factors(self) -> list[float]:
        k = self._kernel_s
        return [2 * KERNEL_NOMINAL_S / (k[i] + k[i + 1])
                for i in range(len(self._segments))]

    @property
    def wall_s(self) -> float:
        return sum(self._segments)

    @property
    def seconds(self) -> float:
        """The pass's duration at the reference speed."""
        return sum(s * f for s, f in zip(self._segments, self._factors()))

    @property
    def speed(self) -> float:
        """Reference seconds per wall second over the whole pass."""
        return self.seconds / self.wall_s

    def lap_seconds(self) -> list[float]:
        """Each operation's duration at the reference speed, in order."""
        f = self._factors()
        return [dt * f[seg] for seg, dt in self._laps]
