"""Host-speed probes: times at a fixed reference speed on a shared host.

On a shared machine the speed of one core drifts by tens of percent within
seconds and over minutes, as other tenants come and go.  Two runs of the
same program a few minutes apart then differ by more than a regression
bound.  So while the benchmark times a piece of work, a timer signal
interrupts it every ``interval`` seconds and runs ``probe()``, a fixed
reference computation of about 0.2 ms.  The probes sample the host's speed
under the same conditions as the work around them, and

    reference seconds = (measured seconds - probe seconds)
                        * NOMINAL_S / mean probe time during the work.

The probe is the benchmark's own code and does not change with the
program, so a faster program still reads faster; only the host's drift is
divided out.  On a 2-vCPU VM this cut the run-to-run variation of one
operation's time from 14% to 4% (coefficient of variation), and of 16-op
windows from 7-8% to under 2%.

A probe mixes the two kinds of work the program's time goes to: outward
rounded elementwise numpy kernels on short arrays, as in the interval
kernels, and scalar interval arithmetic on Python objects.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# A probe's mean time inside the workloads' operations on a lightly loaded
# host (2-vCPU x86_64 VM, Python 3.11.7, numpy 2.4.6).  It sets the scale of
# the reference seconds and nothing else.
NOMINAL_S = 2.0e-4

_ARRAYS = [np.linspace(-1.0, 1.0, n) * 0.37 for n in (5, 15)]


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Interval(min(p), max(p))


_SCALARS = [_Interval(-0.5 + 0.01 * i, 0.5 + 0.01 * i) for i in range(16)]


def probe() -> float:
    """Run the reference computation once; return its seconds."""
    t0 = time.perf_counter()
    for _ in range(6):
        for a in _ARRAYS:
            b = a[::-1]
            s = a + b
            bb = s - a
            err = (a - (s - bb)) + (b - bb)
            np.where(err < 0, np.nextafter(s, -np.inf), s)
    for i in range(60):
        _SCALARS[i & 15] * _SCALARS[(i * 7) & 15] + _SCALARS[i & 15]
    return time.perf_counter() - t0


class Probes:
    """Probe the host's speed every ``interval`` seconds inside a with-block."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, seconds: float, first: int) -> float:
        """Reference seconds of work measured as ``seconds``, during which
        the probes from index ``first`` on ran.  Work too short to hold a
        probe is scaled by the last probe before it."""
        inside = self.samples[first:]
        speed = statistics.fmean(inside or self.samples[-1:])
        return (seconds - sum(inside)) * NOMINAL_S / speed
