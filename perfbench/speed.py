"""Host-speed calibration: wall times scaled to a reference speed.

On a shared host the interpreter's throughput swings with the neighbours'
load: a fixed 15 ms unit of work takes 15 ms in one moment and 25-30 ms
the next, and the mix of fast and slow moments drifts over minutes.
Processor time swings as much as wall time, so the process is slowed, not
descheduled.  A median over a 20-second run does not average the drift out,
and two runs a minute apart can differ by more than any useful bound.

The benchmark therefore times a fixed reference unit of pure-Python work
between the problems it sends, so that units make up a fixed share of the
timed time, and scales every time of the run by ``REFERENCE_S`` over the
mean unit: a scaled time is what the work would have taken on a host that
runs the unit in ``REFERENCE_S``.  The unit does what the program spends its
time on: exact ``Fraction`` arithmetic on sparse polynomials kept as dicts
keyed by exponent tuples.  The program's own work moves a scaled time one
for one; only the host's speed cancels.  A single unit is too short to tell
the speed of the second around it, so the factor is the mean over the run,
the same way as the times it scales are totals over the run.

Measured on 2 vCPUs of a shared Xeon host (CPython 3.11.7), ten 25-second
runs per workload (seeds 201-210), host speed 0.53-0.94 of the reference:
the interquartile range of the mean pass across the runs was 0.17-0.32 of
its median in wall time and 0.016-0.051 scaled.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Seconds of one reference unit on a quiet 2.1 GHz Xeon vCPU, CPython 3.11.7.
REFERENCE_S = 0.015

# Units run until their time is this share of the work they calibrate.
SHARE = 0.125
# Units timed before any work, so that short work is not judged by one unit.
FIRST_UNITS = 4

_P = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}


def _unit():
    """Square a 30-term sparse polynomial with Fraction coefficients, six times."""
    for _ in range(6):
        acc: dict = {}
        for (a, b), c in _P.items():
            for (d, e), f in _P.items():
                k = (a + d, b + e)
                acc[k] = acc.get(k, 0) + c * f
        sorted(acc)
    return acc


def unit_seconds() -> float:
    """Wall seconds of one reference unit, with the cyclic collector off.

    With the collector off, the objects the program keeps alive cannot make
    the unit slower: its own objects are freed by reference counting.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _unit()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """The host's speed over a stretch of timed work, from units run between its parts."""

    def __init__(self):
        unit_seconds()  # warm-up
        self.units = [unit_seconds() for _ in range(FIRST_UNITS)]
        self.unit_total = sum(self.units)
        self.work = 0.0

    def add(self, seconds: float):
        """Count ``seconds`` of work, then run units until they are SHARE of all work."""
        self.work += seconds
        while self.unit_total < SHARE * self.work:
            self.units.append(unit_seconds())
            self.unit_total += self.units[-1]

    def factor(self) -> float:
        """Scale from this host's wall seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.units)
