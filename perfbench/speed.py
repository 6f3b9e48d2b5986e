"""The interpreter's speed while a unit runs, sampled from inside the process.

The benchmark box is shared: a co-tenant slows this process by a factor of
about 1.8 while it runs, in phases from a tenth of a second to minutes
long, so the box switches between a fast and a slow speed many times
during a unit of a few seconds, and a unit's raw time drifts by about
±20 % between minutes.  While a unit runs, a SIGALRM timer therefore times
a fixed reference computation every PERIOD seconds: Fraction sums and dict
inserts, the kind of work erskit does.  The ticks are evenly spaced in
time, so the mean over the ticks of REFERENCE_S / tick time is the unit's
mean speed relative to the fast box; the unit's time at that speed is its
raw time, less the ticks' own time, times that mean.  A slow tick can move
this mean by at most 1/n of its value, so one outlier does not throw it.

Each tick runs the reference twice with the garbage collector off and
times only the second run: the first warms the caches that erskit left
cold, and no collection that erskit's allocations have made due lands in
the timed run.  What erskit did before the tick therefore does not change
the tick's time; the box's speed does.  REFERENCE_S is a fixed constant,
so no reading taken during the run enters the scale, and a change to
erskit moves the unit's time and not the reference.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD = 0.005
# the reference's time on the reference box while no co-tenant slows it;
# reported times are in seconds at that speed
REFERENCE_S = 38e-6


def _reference() -> None:
    total = Fraction(0)
    seen = {}
    for i in range(1, 12):
        total += Fraction(1, i)
        seen[(i, total)] = total


class SpeedProbe:
    """Context manager around one timed unit; see the module docstring.
    After the block, `spent` is the ticks' own time and `speed` the unit's
    mean speed relative to REFERENCE_S."""

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _reference()
            t1 = time.perf_counter()
            _reference()
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._speeds.append(REFERENCE_S / (t2 - t1))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._speeds = []
        self.spent = 0.0
        # one reading before the timer starts, so even a unit shorter than
        # PERIOD has one; it is not part of the unit's time
        self._tick()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.speed = sum(self._speeds) / len(self._speeds)
        return False


def reference_time(raw: float, spent: float, speed: float) -> float:
    """A unit's raw time, less the ticks' own time, at the reference speed."""
    return (raw - spent) * speed
