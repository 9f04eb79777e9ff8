"""Times in seconds at reference speed.

Shared VMs change speed by 10-20 % within seconds and between minutes as
other tenants come and go, which is more than a regression bound can
absorb.  While a ``ProbeClock`` is open, a timer signal interrupts the
program every PROBE_INTERVAL_S and times a fixed probe: pure-Python work
that runs no quivertilt code (Fraction arithmetic and tuple building, the
mix of the package's inner loops).  ``ProbeClock.time`` removes the probes'
own time from a call's elapsed time and scales what is left by PROBE_S over
the mean probe time during the call.  The result is the call's duration at
the speed at which the probe takes PROBE_S, its typical time on a 2-core
x86-64 VM.  A change to the package moves the call's time, never the scale.
"""

import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.02
PROBE_S = 0.0012
# A call too short to see a probe is scaled by the mean of this many of the
# latest probes.
RECENT = 4


def probe_work():
    acc = Fraction(0)
    rows = []
    for i in range(1, 80):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        rows.append(tuple((i * j) % 101 for j in range(20)))
    return acc, rows


class ProbeClock:
    """Use as a context manager, from the main thread; it owns SIGALRM
    while open."""

    def __init__(self):
        self.samples = []          # seconds of each probe, in order
        self.spent = 0.0           # seconds of all probes
        self._busy = False
        self._previous = None

    def _probe(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn):
        """(fn's result or the exception it raised, seconds at reference
        speed)."""
        first, spent = len(self.samples), self.spent
        out, elapsed = timed(fn)
        during = self.samples[first:] or self.samples[-RECENT:]
        return out, (elapsed - (self.spent - spent)) * PROBE_S / statistics.fmean(during)


def timed(fn):
    """(fn's result or the exception it raised, elapsed wall seconds)."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # the caller decides what a raise means
        out = exc
    return out, time.perf_counter() - start
