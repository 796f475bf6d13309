"""CPU speed probe: how fast the measured process's vCPU runs while it works.

On a shared host the same code runs at different speeds from one second to
the next: other tenants' load slows a vCPU by up to half, in phases of tens
of milliseconds to minutes, and CPU time grows with wall time, so the
process is slowed, not descheduled.  A median over the passes of one run
cannot remove a slow phase that lasts the whole run.

`SpeedProbe` samples the speed while a pass runs.  A timer signal
interrupts the process every INTERVAL_S; the handler runs a fixed
interpreter loop once to warm it up and once more timed in thread CPU time,
so that a sample depends on the vCPU's speed and not on what the library
left in the caches.  `paused_s` is the wall time the handler took, which
the caller takes out of the pass.

`scale(samples)` is REF_KERNEL_S over the median sample: multiplied by a
pass's time, it gives the time the pass would have taken on a vCPU running
the loop in REF_KERNEL_S, so that figures from slow and fast phases of the
host compare.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02           # one sample per this much wall time
# Thread CPU time of one warm kernel() on an idle vCPU of an Intel Xeon
# host (Python 3.11); time metrics are scaled to this speed.
REF_KERNEL_S = 80e-6


def kernel():
    """Fixed work: an interpreter loop of about 0.1 ms."""
    s = 0
    for i in range(1500):
        s += i * i
    return s


class SpeedProbe:
    """Samples the vCPU speed from SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self._old = None

    def _tick(self, signum=None, frame=None):
        w0 = time.perf_counter()
        kernel()
        c0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - c0)
        self.paused_s += time.perf_counter() - w0

    def start(self):
        self.samples, self.paused_s = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; returns (samples, paused_s), at least one sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            paused = self.paused_s
            self._tick()
            self.paused_s = paused
        return self.samples, self.paused_s


def scale(samples):
    """Factor that takes a time measured during `samples` to the reference speed."""
    return REF_KERNEL_S / statistics.median(samples)
