"""Timing at reference host speed.

The host this benchmark was built on changes speed by up to 2x, often
every second or two and sometimes for over 30 s, and the slowdown hits
CPU time as much as wall time.  ``HostClock`` measures the host's speed
while a call runs: a fixed gauge kernel that does not touch alber_lab
runs before and after the call and, from a SIGALRM handler, every
``INTERVAL`` seconds during it.  The call's seconds, less the gauge's,
are scaled by ``GAUGE_REF_S`` over the gauge's mean time.

The gauge mixes what the workloads spend time on: interpreter work, small
FFTs with elementwise numpy, small dense linear algebra, and streaming
through memory.  In a test on that host, the log time of every
workload's jobs followed the log of an equal blend of these four with a
slope of 1.0 to 1.1 (0.75 for penrose scans), where any single kind was
off by up to 0.45 on some job.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.025
BRACKET = 5  # gauge runs before and after each call
# mean gauge time in a fast phase of a 2-vCPU VM (Python 3.11, numpy 2.4);
# a unit only, it cancels from every comparison
GAUGE_REF_S = 0.0006

_FFT_INPUT = np.exp(2j * np.pi * np.arange(4 * 129).reshape(4, 129) / 7.0)
_MATRIX = np.cos(np.arange(33 * 33).reshape(33, 33) * 0.37)
_STREAM = np.ones(1 << 17)


def gauge() -> float:
    """Seconds for one run of the fixed gauge mix."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    a = _FFT_INPUT
    for _ in range(4):
        b = np.fft.ifft(a, axis=-1)
        a = np.fft.fft(b * np.exp(-1e-9j * np.abs(b) ** 2), axis=-1)
    for _ in range(2):
        np.linalg.svd(_MATRIX, compute_uv=False)
    _STREAM.copy().sum()
    return time.perf_counter() - t0


def mean_gauge_s(samples: list[float]) -> float:
    """Mean gauge time, each sample clipped at twice the median: a gauge
    run that was preempted says nothing about the host's speed."""
    cap = 2.0 * statistics.median(samples)
    return statistics.fmean(min(s, cap) for s in samples)


class HostClock:
    """Times calls at reference host speed.  Owns SIGALRM while a call is
    measured; not reentrant."""

    def __init__(self) -> None:
        self.speeds: list[float] = []  # host speed during each measured call
        self._during: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._during.append(gauge())

    def measure(self, fn, during: bool = True):
        """(result, seconds, speed): the call's result, its wall seconds less
        the gauge runs inside it, and the host's speed relative to the
        reference; seconds times speed is the time at reference speed.
        ``during=False`` gauges only before and after the call, for calls
        whose own timing must not contain gauge runs (a traced round)."""
        before = [gauge() for _ in range(BRACKET)]
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = time.perf_counter()
        if during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        after = [gauge() for _ in range(BRACKET)]
        speed = GAUGE_REF_S / mean_gauge_s(before + self._during + after)
        self.speeds.append(speed)
        return result, elapsed - sum(self._during), speed
