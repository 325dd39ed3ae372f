"""Timing that is steady on a machine whose speed drifts.

On a shared machine, speed can swing by a quarter or more within seconds.
CPU time tracks wall time, so the swing is in the machine, not in
scheduling.  ``Sampler`` therefore runs a fixed calibration kernel, owned by
the benchmark and independent of `hfp`, every ``PERIOD_S`` seconds from a
SIGALRM handler while a round runs.  Its ``now`` excludes the time spent in
the kernel, and ``scale`` turns the round's wall seconds into reference
seconds: seconds on a machine where the kernel takes ``KERNEL_REF_S``.  A
change to `hfp` moves reference seconds as it moves wall seconds; a change in
machine speed moves the kernel too, and cancels.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
KERNEL_REF_S = 4.0e-4  # about the kernel's time when the machine runs fast

_START = np.array([3.0, 4.0])
_ORIGIN = np.zeros(2)


def kernel() -> float:
    """Small-vector numpy calls driven by Python, the same mix as `hfp`'s loops."""
    x, acc = _START, 0.0
    for _ in range(40):
        acc += float(np.linalg.norm(x - _ORIGIN))
        x = np.clip(x * 0.99 + 0.5, -10.0, 10.0)
    return acc


class Clock:
    """Plain wall clock; every time it reads is already in reference seconds."""

    def now(self) -> float:
        return time.perf_counter()

    def mark(self) -> int:
        return 0

    def scale(self, mark: int) -> float:
        return 1.0


class Sampler(Clock):
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def now(self) -> float:
        """Wall seconds, less the time the kernel took."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Reference seconds per wall second since ``mark``."""
        if len(self.samples) == mark:  # shorter than one period
            self._sample()
        return KERNEL_REF_S / statistics.fmean(self.samples[mark:])

    def __enter__(self):
        t0 = time.perf_counter()
        kernel()  # warm-up, not a sample
        self.spent += time.perf_counter() - t0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
