"""Correction of the end-to-end times for the machine's own changes of speed.

On a shared host the same single-threaded pass can take up to twice as long
from one second to the next, with CPU time tracking wall time: the processor
runs slower, it is not taken away.  Medians over a run do not remove this, as
slow phases last from a fraction of a second to minutes.

A ``Speedometer`` therefore measures the machine's speed while the workload
runs.  A wall-clock timer signal interrupts the run every ``INTERVAL_S``
seconds, and the handler times two fixed pure-Python loops that use nothing
from the library, so a change to the library leaves them alone:
``integer_loop``, integer and bit arithmetic with dict stores, the kind of
work the library's searches and scans do; and ``object_loop``, which builds,
sorts and hashes tuples.  The slowdowns of the machine do not hit all kinds
of work alike: the passes follow the integer loop, while set-up, mostly
imports that run module bodies and build classes and objects, follows the
two loops together.  An interval [a, b] of the run is reported as

    (b - a - time spent in the handler) * mean(ref_s / r)

over the reference times r taken from ``MARGIN_S`` before a to ``MARGIN_S``
after b: the time the interval would take on a machine on which the
reference takes ``ref_s``, running at constant speed.  The mean of
ref_s / r is the mean speed over the interval, relative to that machine.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
MARGIN_S = 2 * INTERVAL_S
# about the median times of the loops on the 2.1 GHz Xeon vCPU the bounds
# were tuned on, so that corrected times read close to its wall times
INTEGER_S = 0.1e-3
MIXED_S = 0.2e-3


def integer_loop() -> int:
    acc = 0
    table = {}
    for i in range(250):
        x = (i * 0x9E3779B1) & 0xFFFFFFFF
        acc ^= x >> 3 | (x << 1 & 0xFFFF)
        table[x & 255] = acc.bit_count()
    return acc


def object_loop() -> int:
    pairs = [(i * 7919 % 257, i) for i in range(250)]
    pairs.sort()
    return len(set(pairs))


class Speedometer:
    """Reference timings taken from a timer signal, and the times they correct.

    ``clock`` and ``loops`` are injectable so that tests can check the
    arithmetic with synthetic timings.
    """

    def __init__(self, clock=time.perf_counter, loops=(integer_loop, object_loop)):
        self.clock = clock
        self.loops = loops
        self.starts: list[float] = []
        # per tick: the integer loop's time, both loops' time, the handler's
        self.integer: list[float] = []
        self.mixed: list[float] = []
        self.handler: list[float] = []
        self._previous = None

    def tick(self, *_) -> None:
        integer, objects = self.loops
        t0 = self.clock()
        integer()
        t1 = self.clock()
        objects()
        t2 = self.clock()
        self.starts.append(t0)
        self.integer.append(t1 - t0)
        self.mixed.append(t2 - t0)
        self.handler.append(self.clock() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, a: float, b: float, setup: bool = False) -> float:
        """Mean speed relative to the reference machine around [a, b], by the
        integer loop, or for a set-up by both loops."""
        durations, ref_s = (self.mixed, MIXED_S) if setup else (self.integer, INTEGER_S)
        lo = bisect.bisect_left(self.starts, a - MARGIN_S)
        hi = bisect.bisect_right(self.starts, b + MARGIN_S)
        window = durations[lo:hi]
        return sum(ref_s / r for r in window) / len(window) if window else 1.0

    def corrected(self, a: float, b: float, setup: bool = False) -> float:
        """The duration of [a, b] without the handler's time, at reference speed."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return (b - a - sum(self.handler[lo:hi])) * self.speed(a, b, setup)
