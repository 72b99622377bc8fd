"""Machine-speed sampling, so that timings survive a shared CPU.

On a shared machine the same code can run half as fast again for seconds or
minutes at a time, while another tenant loads the core.  That swamps the
changes the benchmark exists to measure.  `SpeedSampler` times a small,
fixed reference kernel every `INTERVAL` seconds from a SIGALRM handler.
The handler runs in the benchmark's own thread between bytecodes, so the
load stays one process and one thread.  An operation's time at
reference speed is its wall time, less the time spent in the handler,
multiplied by the mean of REF_SECONDS / kernel time over the samples taken
while it ran: each sample stands for the speed of one interval.  An
operation too short for MIN_WINDOW samples uses the latest MIN_WINDOW; the
speed holds for seconds at a time, and one sample alone is noisy.  The kernel
never touches the library, so no library change can move it.
"""
from __future__ import annotations

import json
import math
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05      # seconds of wall time between samples
MIN_WINDOW = 10      # samples behind a speed estimate (0.5 s of wall time)
# kernel time at reference speed; a fixed scale of the order of the
# kernel's time in the handler on the 2-core Intel Xeon sandbox the
# benchmark was built on
REF_SECONDS = 1.5e-3


_MATRIX = np.arange(16, dtype=complex).reshape(4, 4) / 16.0
_EYE = np.eye(4, dtype=complex)


def kernel_seconds() -> float:
    """Time one run of the reference kernel (about 1 ms): scalar Python
    arithmetic, 4x4 complex matrix work, and float formatting into csv and
    json text, the mix the library and its CLI spend their time on.  Of the
    kernels tried, this mix followed the slow-downs of all three workloads
    most closely."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += math.hypot(i, 0.5) * 1.0001
    m = _EYE
    for i in range(20):
        m = (_MATRIX @ m) * 0.5 + _EYE
        acc += math.hypot(float(np.trace(m).real), i)
    parts = []
    for i in range(60):
        row = [i * 0.1, i * 1.7, math.sqrt(i + 1.0), i / 3.0]
        parts.append(",".join(f"{v:.12g}" for v in row))
        parts.append(json.dumps(dict(zip("abcd", row)), sort_keys=True))
    "\n".join(parts)
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager sampling the machine's speed while it is active."""

    def __init__(self):
        self.speeds: list[float] = []  # REF_SECONDS / kernel seconds, per sample
        self.probe_s = 0.0             # wall time spent sampling

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.speeds.append(REF_SECONDS / kernel_seconds())
        self.probe_s += time.perf_counter() - t0

    def __enter__(self):
        self._sample()  # so that even the first, shortest call has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """(fn(), wall seconds less sampling, seconds at reference speed)."""
        n0, probe0 = len(self.speeds), self.probe_s
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self.probe_s - probe0)
        window = self.speeds[min(n0, len(self.speeds) - MIN_WINDOW):]
        return result, wall, wall * statistics.fmean(window)
