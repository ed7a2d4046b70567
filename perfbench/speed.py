"""Machine-speed sampling, to report times at a reference speed.

On a shared machine the speed of one CPU drifts by up to 2x over tens of
seconds (other tenants' load), which is far wider than any regression the
benchmark should catch.  So every pass times a fixed calibration slice (a
pure-Python integer loop plus one big-integer squaring: of the kernels
tried, squaring a large integer tracked the slowdown of both the exact and
the mpmath layers best) right before and right after its timed section and every
``INTERVAL_S`` of wall time in between, from a ``SIGALRM`` handler.  Each
stretch of work between two slices is divided by the local slowdown, the
mean of the two bracketing slice times over ``REF_SLICE_S``; the slices'
own time is taken out.  The result is the time the work would take at the
speed where one slice lasts ``REF_SLICE_S``.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.3
_BIG = 3 ** 250_000      # a 396k-bit integer, squared by each slice
REF_SLICE_S = 0.0166     # one slice on an unloaded CPU of the reference machine


def calibration_slice() -> float:
    """Run the fixed calibration work once; returns its wall time."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    _BIG * _BIG              # the squaring is the work; the product is dropped
    return time.perf_counter() - t0


def slowdown() -> float:
    """The machine's current slowdown against the reference speed (two slices)."""
    return (calibration_slice() + calibration_slice()) / 2 / REF_SLICE_S


class SpeedProbe:
    """Calibration slices taken during a timed section of one process."""

    def __init__(self):
        self.samples = []        # (start, end, cpu seconds) per slice

    def _sample(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        calibration_slice()
        self.samples.append((t0, time.perf_counter(), time.process_time() - c0))

    def start(self):
        self._sample()
        self.t0 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.t1 = time.perf_counter()
        self._sample()

    def slice_time(self, a: float, b: float) -> float:
        """Wall time of the slices inside [a, b]."""
        return sum(min(e, b) - max(s, a) for s, e, _ in self.samples if e > a and s < b)

    def slice_cpu(self) -> float:
        """CPU time of the slices inside the timed section."""
        return sum(c for s, e, c in self.samples if s >= self.t0 and e <= self.t1)

    def reference_time(self) -> float:
        """Work time of the timed section at the reference speed."""
        total = 0.0
        for (s0, e0, _), (s1, e1, _) in zip(self.samples, self.samples[1:]):
            work = max(0.0, s1 - e0)
            local = ((e0 - s0) + (e1 - s1)) / 2 / REF_SLICE_S
            total += work / local
        return total
