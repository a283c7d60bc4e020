"""Host speed, measured during the work whose time it scales.

A shared host's speed drifts. On a 2-vCPU VM the same pipeline rep took
2.4 s to 3.9 s within minutes, with its CPU time equal to its wall time and
no steal time, which is more than any bound a benchmark can fix. ``probe()``
is a few milliseconds of fixed work of the kinds the pipeline does
(float-to-text formatting, FFTs and an interpreter loop) and runs no
spinbath code, so only the host moves its time. ``Sampler`` runs it from a
SIGALRM handler every ``PERIOD_S`` seconds while the pipeline runs, so the
probes sample the host throughout the run rather than before or after it,
and it keeps the time they take out of the pipeline's. A time is scaled to
the reference host by ``scale(probe times)``.

Probes timed before or after a rep of ten seconds tracked its time poorly
(correlation 0.4 to 0.6 on the VM above); probes taken during it tracked it
with correlation 0.94 to 0.96.
"""
from __future__ import annotations

import signal
import time

import numpy as np

#: probe time on the reference host: about the median over reps of the mean
#: probe time during a run, on one thread of a 2-vCPU Xeon VM
REF_S = 2.0e-3
#: seconds of wall time between probes while the pipeline runs
PERIOD_S = 0.2

_rng = np.random.default_rng(1)
_X = _rng.standard_normal(300)
# small enough (64 KiB) that neither it nor the FFT's outputs are mmapped:
# freeing an mmapped block raises malloc's mmap threshold, which would change
# how the pipeline's own arrays are allocated
_Z = _rng.standard_normal((4, 1024)) + 0j


def probe() -> float:
    """Seconds taken by one run of the fixed work."""
    t = time.perf_counter()
    "".join(f"{v:.16e},{v:.16e},{v:.16e}\n" for v in _X)
    for _ in range(2):
        np.fft.ifft(np.fft.fft(_Z, axis=1), axis=1)
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return time.perf_counter() - t


def scale(times) -> float:
    """Factor that turns a time measured alongside these probe times into a
    time on the reference host."""
    return REF_S / (sum(times) / len(times))


class Sampler:
    """Probe every ``PERIOD_S`` seconds inside the ``with`` block, and once
    after it if the block was shorter than that. ``times`` holds the probe
    times, ``spent`` the seconds the handler took inside the block and
    ``elapsed`` the block's wall time without them."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.times.append(probe())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # restart system calls the signal interrupts instead of failing them
        signal.siginterrupt(signal.SIGALRM, False)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            self.times.append(probe())
