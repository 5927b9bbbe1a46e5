"""The machine's speed at the moment, and the time its CPUs were held back.

On a shared host the CPU's speed drifts by up to 1.9x over tens of
seconds, and a state lasts longer than a run, so no statistic taken
within a run removes the drift from raw times.  The benchmark therefore
times a calibration kernel of about 2 ms a few times just before and
just after every timed step (``calibrate``), and every ``SAMPLE_S``
seconds during it (``Sampler``), and divides the step's time by the mean
speed factor: a factor of 2 means the kernel ran twice as slowly as at
the reference speed.  Times corrected this way are
seconds at the reference speed.  Sampling during a step matters for
steps of seconds, over which the speed changes.

The kernel does not touch fibspec, so a change to the program cannot
move it.  It has two parts, weighted alike (geometric mean):

- a Sturm-like pivot recursion of small numpy operations in a Python
  loop, the shape of work in ``hamiltonian``, ``spectrum`` and the
  interval code;
- pure-Python arithmetic and float formatting, the shape of work in the
  ``cli`` layer's rendering.

On the reference machine (see README.md) these two parts correlated
best with the invocations of all three workloads; a large-array part
(sorting, cumulative sums) did not.

The host also takes the virtual CPUs away for bursts of up to seconds
(steal time).  That time passes on the wall clock but not on the
process's CPU clock, so the kernel is timed on the CPU clock, and the
benchmark subtracts from each step's wall time the steal that fell on it
(``stolen``).
"""

from __future__ import annotations

import math
import os
import signal
import time

# Times of the two parts of the kernel at the reference speed, in
# seconds.  Only the scale of the corrected times depends on them.
REF_PIVOT_S = 0.00107
REF_PYTHON_S = 0.00107
# Kernels run before and after a step, and the sampling interval in it.
BRACKET = 5
SAMPLE_S = 0.1

_DATA = None


def _data():
    global _DATA
    if _DATA is None:
        import numpy as np
        a = np.linspace(3.0, 4.0, 1500)
        t = np.linspace(-1.0, 1.0, 1500)
        floats = [math.sin(i) * 1e3 for i in range(400)]
        _DATA = (np, a, t, floats)
    return _DATA


def factor() -> float:
    """Time of the calibration kernel now, as a multiple of its time at
    the reference speed."""
    np, a, t, floats = _data()
    clock = time.process_time
    t0 = clock()
    d = a[0] - t
    for i in range(1, 100):
        d = (a[i] - t) - 1.0 / d
        d = np.where(d == 0.0, -1e-300, d)
    t1 = clock()
    s = 0
    for i in range(6000):
        s += i * i
    ",".join(f"{v:.6g}" for v in floats)
    t2 = clock()
    return math.sqrt((t1 - t0) / REF_PIVOT_S * (t2 - t1) / REF_PYTHON_S)


def calibrate() -> list[float]:
    """Speed factors of ``BRACKET`` kernels run back to back."""
    return [factor() for _ in range(BRACKET)]


def mean(factors: list[float]) -> float:
    """Speed factor of a step from the calibrations around and in it."""
    return math.exp(sum(math.log(f) for f in factors) / len(factors))


class Sampler:
    """Times the kernel every ``SAMPLE_S`` seconds of wall time
    while active, from a SIGALRM handler in the main thread, and keeps
    the factors and the wall and CPU time the samples took, which the
    caller subtracts from the step's times.  A sample waits for a running
    numpy call to return, as Python signal handlers do."""

    def __init__(self):
        self.factors: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.factors.append(factor())
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0

    def __enter__(self):
        _data()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


_TICKS = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Steal time of all CPUs since boot, in seconds (the eighth value of
    the ``cpu`` line of /proc/stat), or 0.0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _TICKS if fields[0] == "cpu" and len(fields) > 8 else 0.0


def stolen(wall: float, cpu: float, steal: float) -> float:
    """The part of a step's wall time that the host held its CPU back.

    ``steal`` is the machine's steal over the step, summed over all its
    CPUs; an idle CPU accrues some too, so it overstates what fell on the
    step.  A step that was held back was off its CPU for that long, so it
    is capped at the step's wall time minus its CPU time.  A step that
    runs on more CPUs than one at once gets no correction.
    """
    return min(steal, max(0.0, wall - cpu))
