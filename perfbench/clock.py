"""Wall time rescaled to a reference machine speed.

The shared two-core host this benchmark was defined on changes speed by
up to a third within a minute, and process CPU time follows wall time,
so neither clock alone gives steady numbers.  A Probe therefore samples
the host's speed every SAMPLE_EVERY_S seconds: a SIGALRM handler runs a
small fixed kernel (interpreter loop, small numpy calls and a matrix
product, independent of actkit) and times it.  The wall time between two
samples is rescaled by REF_KERNEL_S / (mean kernel time at both ends).
Code that gets slower still reads slower; a host that gets slower mostly
does not.

The kernel's own run time is kept out of every measurement: now() is
perf_counter() minus the time spent in the kernel so far.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Reference kernel time: rescaled times are the wall times the code would
# take on a host where the kernel takes this long.  On the 2-vCPU x86-64
# host the benchmark was defined on (one BLAS thread) the kernel took
# 4.2-7.5 ms, so rescaled times read within about 25 % of wall times there.
REF_KERNEL_S = 0.0055
SAMPLE_EVERY_S = 0.25

_MAT = np.random.default_rng(0).normal(size=(100, 100))
_SMALL = np.ones(16)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    for _ in range(20):
        _MAT @ _MAT
    for _ in range(1500):
        np.add(_SMALL, _SMALL)
    return time.perf_counter() - t0


class Probe:
    """Samples host speed while started and accumulates rescaled time.

    start() takes a first sample and arms the timer; stop() takes a last
    sample, disarms the timer and returns (wall, rescaled) seconds since
    start(), both without the kernel's own time.
    """

    def __init__(self):
        self.kernels = []
        self._in_kernel = 0.0
        self._last = None           # (now(), kernel seconds) of last sample
        self._scaled = 0.0
        self._start = None
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self._in_kernel

    def _sample(self, *_):
        if self._busy:              # a late alarm inside a sample
            return
        self._busy = True
        at = self.now()
        t0 = time.perf_counter()
        k = kernel_seconds()
        self._in_kernel += time.perf_counter() - t0
        self._busy = False
        if self._last is not None:
            self._scaled += (at - self._last[0]) * REF_KERNEL_S \
                / ((self._last[1] + k) / 2)
        self.kernels.append(k)
        self._last = (at, k)

    def start(self, every=SAMPLE_EVERY_S):
        self._scaled = 0.0
        self._last = None
        self._sample()
        self._start = self._last[0]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return self._last[0] - self._start, self._scaled
