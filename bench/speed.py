"""Host speed calibration for the nilab benchmark.

On a shared host the speed of a virtual CPU changes by up to about 1.8x
within a second, presumably as other tenants load the physical cores.  The benchmark
therefore times a fixed pure-Python ``Fraction`` loop, which does not touch
nilab, while it measures, and reports each measured time scaled to a host
on which one loop takes ``REFERENCE_LOOP_S`` seconds.  A change to nilab
moves the scaled time as it moves the raw time; a change of host speed
during or between runs mostly cancels.

During operations a ``Sampler`` thread times one loop every
``SAMPLE_INTERVAL_S``; it holds the interpreter lock for about 3 percent
of the time, which every measured operation pays alike.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

REFERENCE_LOOP_S = 0.0005
SAMPLE_INTERVAL_S = 0.01


def _loop_seconds() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    return time.perf_counter() - start


def calibrate() -> list:
    """Seconds of 30 consecutive loops."""
    return [_loop_seconds() for _ in range(30)]


def scaled(seconds: float, loop_seconds) -> float:
    """``seconds`` measured while the loop took ``loop_seconds``, expressed
    at the reference speed (the mean of the loop's speed, not of its time)."""
    return seconds * REFERENCE_LOOP_S * statistics.fmean(1 / s for s in loop_seconds)


class Sampler:
    """Background thread that records (end time, loop seconds) samples."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler")

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            seconds = _loop_seconds()
            self.samples.append((time.perf_counter(), seconds))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, seconds: float) -> float:
        """Scale a time measured from ``start`` by the loops that ended
        within it, plus the nearest one on either side."""
        end = start + seconds
        while not self.samples or self.samples[-1][0] <= end:
            time.sleep(SAMPLE_INTERVAL_S / 4)
        samples = self.samples[:]  # the thread appends concurrently
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
        window = samples[max(lo - 1, 0):hi + 1]
        return scaled(seconds, [s for _, s in window])
