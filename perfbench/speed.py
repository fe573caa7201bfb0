"""Host-speed meter: a fixed reference kernel timed next to and inside every job.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within seconds and minutes while CPU time stays equal to wall
time (other tenants, clock changes). A measured job time therefore mixes
the program's cost with the host's speed at that moment.

The meter times a small fixed kernel, the mix ``mcert`` spends its time
in (an interpreter loop, small complex SVDs, vector math), once before
each job and then every ``TICK_S`` seconds of process CPU time while the
job runs, from a ``SIGPROF`` handler. The kernel's own time is taken out
of the job's time. A job's speed factor is ``REFERENCE_S`` over the mean kernel
time seen during the job: a job time multiplied by it is the time
the job takes on a host where the kernel runs in ``REFERENCE_S``. The
kernel runs no ``mcert`` code, so a change to the program moves the job
times and leaves the factors alone.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# CPU seconds between samples in a job. The host switches speed within a
# second, so a job needs samples spread over it; the kernel costs about 6% of a tick.
TICK_S = 0.05
REFERENCE_S = 0.0028  # typical kernel time on a quiet 2-vCPU VM, OpenBLAS on one thread

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_VECTOR = np.linspace(0.0, 1.0, 5000)


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(2):
        np.linalg.svd(_MATRIX)
    for _ in range(10):
        np.cos(_VECTOR) * np.exp(-_VECTOR)
    return time.perf_counter() - t0


class Meter:
    """Samples the kernel over one job: ``start()`` before it, ``stop()`` after."""

    def __init__(self):
        self.samples: list = []
        self.inside_s = 0.0  # kernel time spent inside the job, to take out of its time
        self._previous = None

    def _tick(self, signum, frame):
        seconds = kernel_seconds()
        self.samples.append(seconds)
        self.inside_s += seconds

    def start(self) -> None:
        self.samples = [kernel_seconds()]
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def factor(self) -> float:
        # the mean, not the median: the host's speed switches between states,
        # and the job takes longer by the share of its time spent in each
        return REFERENCE_S / statistics.fmean(self.samples)
