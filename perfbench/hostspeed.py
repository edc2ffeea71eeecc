"""How fast the host ran while the program did, sampled on the program's own thread.

On a shared host the speed of a core drifts while other load comes and goes:
on a 2-vCPU VM one ``network_grid`` run of 200 sessions took from 2.1 to
4.3 s within a minute, with no steal time reported, and CPU time moved with
wall time.  Ten runs of a workload span several minutes, so raw timings
spread by more than any useful bound.

:class:`Sampler` interleaves a fixed reference :func:`kernel` with the
program: a ``SIGALRM`` interval timer runs it every :data:`INTERVAL_S` on
the main thread, between the program's own bytecodes, so the samples see
the same core at the same moments as the program.  ``factor()`` is the mean
kernel time over :data:`REFERENCE_S`: how many times slower than the
reference speed the host ran.  ``run.py`` divides every timing by it, so a
timing reads as at the reference speed.  The kernel is a chain of 4x4
complex matrix products, like the program's density-matrix steps; over
2 to 4 s operations, the ratio of operation time to kernel time varied by
3-4 % (coefficient of variation) where the operation time varied by 12 %.
The kernel is the benchmark's own code, so a change to the program moves
the timings and not the factor.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "Sampler", "kernel"]

INTERVAL_S = 0.05
# The kernel's time at the reference speed: about its time on a 2-vCPU
# x86 VM at 2.1 GHz while other load was light.
REFERENCE_S = 200e-6

_MATRIX = np.eye(4, dtype=complex) * 0.5 + 0.1j


def kernel() -> np.ndarray:
    """The fixed reference work: 60 dependent 4x4 complex products (they decay, never overflow)."""
    state = _MATRIX
    for _ in range(60):
        state = (state @ _MATRIX) * 1.5
    return state


class Sampler:
    """Context manager that times :func:`kernel` every :data:`INTERVAL_S` while it is open.

    Only one may be open at a time, and only on the main thread (where
    Python runs signal handlers).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum: int, frame: object) -> None:
        # The first kernel run warms the caches after the thread slept (the
        # open loop idles between arrivals); the second one is timed.
        # Thread CPU time, not wall time: with the delivery engine's workers
        # running, a wall-clock sample would also count the waits for the
        # interpreter lock.  On this kind of host CPU time grows with wall
        # time as the host slows (no steal time is reported).
        kernel()
        start = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample(signal.SIGALRM, None)

    def factor(self) -> float:
        """Mean kernel time while open, over :data:`REFERENCE_S`."""
        return statistics.mean(self.samples) / REFERENCE_S
