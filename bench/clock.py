"""Wall time calibrated against a fixed CPU probe run between the work.

The machines this benchmark runs on are shared: for minutes at a time a
co-tenant slows interpreter-bound code by up to 1.8x while BLAS-bound code
barely slows, which swamps any change worth measuring.  So a short probe of
fixed Python and small-numpy work runs between optimizer steps (fit's
``on_step`` hook) and between users (the evaluated corpus's user iterator).
Its time is booked apart from the measured time, and each measured stretch
is scaled by ``(P_REF / probe time nearby) ** share``, where ``share`` is the
part of the workload's time that is interpreter-bound (1 for pure Python,
0 for pure BLAS).  A slowdown then cancels to first order, and figures read
as seconds on the reference machine (2-vCPU Xeon, OpenBLAS on one thread)
when it is quiet.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

P_REF = 1.7e-3   # probe's 5th-percentile time (s) on the reference machine

_W = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
_X = np.linspace(-0.5, 0.5, 4 * 32).reshape(4, 32)


def probe() -> float:
    """Run the fixed work; return how long it took."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(24000):
        acc += (i * 7) % 13
    for _ in range(120):
        np.tanh(_X @ _W.T)
    return time.perf_counter() - t0


def scale(probe_seconds: float, share: float) -> float:
    """Factor that turns wall time into calibrated time."""
    return (P_REF / probe_seconds) ** share


def _rolling_median(values, half=4):
    return [statistics.median(values[max(0, j - half):j + half + 1])
            for j in range(len(values))]


class Timer:
    """Probe between pieces of work; keep the probe's time out of theirs."""

    def __init__(self):
        self.arrive = []
        self.leave = []
        self.probes = []

    def tick(self, *_):
        """Usable as fit's ``on_step(epoch, batch, params)``."""
        self.arrive.append(time.perf_counter())
        self.probes.append(probe())
        self.leave.append(time.perf_counter())

    def booked(self) -> float:
        """Seconds spent in ticks, to subtract from the enclosing wall time."""
        return sum(b - a for a, b in zip(self.arrive, self.leave))

    def scale(self, share: float) -> float:
        return scale(statistics.median(self.probes), share)

    def intervals_ms(self, share: float) -> list:
        """Calibrated time from the end of each tick to the start of the next."""
        local = _rolling_median(self.probes)
        return [(self.arrive[j] - self.leave[j - 1]) * 1e3 * scale(local[j], share)
                for j in range(1, len(self.arrive))]


def calibrated(fn, share: float = 1.0) -> float:
    """Run ``fn()``; return its calibrated seconds, with a probe either side."""
    before = probe()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds * scale((before + probe()) / 2, share)
