"""CPU time in reference seconds, steady when the host's speed drifts.

On a shared host the CPU throughput given to one process drifts by a third
and more, in phases of seconds to minutes, so the raw CPU time of the same
pass differs by as much between runs.  ``Meter`` samples that drift while the
workload runs: every 10 ms of CPU time (``ITIMER_PROF``) its signal handler
runs a *tick*, a fixed stdlib-only kernel (a sparse Fraction matrix-vector
product, the shape of fqg's exact inner loops), and records the tick's CPU
time.  ``Meter.measure`` times a call by CPU time without the ticks, divides
it by the mean of the ticks that ran during the call (at least the last
``MIN_TICKS``, so a short call uses the ticks just before it) and multiplies
by ``REF_TICK_S``: the call's CPU time in *reference seconds*, the time it
would take while one tick takes ``REF_TICK_S``.  The kernel touches no fqg
code, so a change to fqg moves the calls and leaves the ticks alone.

Ticks cost about 3% of the CPU time; they run with the garbage collector
paused so that fqg's heap does not leak into them.  CPU time is the main
thread's (the workloads run single-threaded): once ``ITIMER_PROF`` has been
armed, Linux updates the process CPU clock only at scheduler ticks, while
the thread clock stays exact.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# mean CPU time of one tick in the handler on the reference host (2-core Xeon)
REF_TICK_S = 0.00035
EVERY_S = 0.01
MIN_TICKS = 8

_N = 24
_COLS = [{(j * 7 + k) % _N: Fraction((j + k) % 5 - 2, 1 + (j * k) % 3) for k in range(4)}
         for j in range(_N)]
_VEC = [Fraction(j % 3 - 1, 1 + j % 4) for j in range(_N)]


def ref_kernel():
    out = {}
    for j, col in enumerate(_COLS):
        x = _VEC[j]
        if x:
            for r, c in col.items():
                out[r] = out.get(r, 0) + c * x
    return out


def tick_seconds() -> float:
    """CPU time of one tick, run now."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    ref_kernel()
    spent = time.thread_time() - start
    if enabled:
        gc.enable()
    return spent


def calibrate(ticks=50) -> float:
    """Mean CPU time of ``ticks`` ticks run back to back."""
    return sum(tick_seconds() for _ in range(ticks)) / ticks


def measure_cpu(fn):
    """``(fn(), its CPU seconds)``, unscaled, for runs without a Meter."""
    start = time.thread_time()
    result = fn()
    return result, time.thread_time() - start


class Meter:
    def __init__(self):
        self.ticks = []  # CPU time of each tick
        self.tick_cpu = 0.0

    def _tick(self, signum=None, frame=None):
        spent = tick_seconds()
        self.tick_cpu += spent
        self.ticks.append(spent)

    def start(self):
        for _ in range(MIN_TICKS):  # so that the first call has a window
            self._tick()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def snapshot(self):
        """(ticks so far, thread CPU time without them), read again if a
        tick lands between the reads."""
        while True:
            n, tick_cpu = len(self.ticks), self.tick_cpu
            now = time.thread_time()
            if len(self.ticks) == n:
                return n, now - tick_cpu

    def work_clock(self) -> float:
        """Main-thread CPU time without the ticks."""
        return self.snapshot()[1]

    def measure(self, fn):
        """``(fn(), its CPU time in reference seconds)``."""
        n0, cpu0 = self.snapshot()
        result = fn()
        n1, cpu1 = self.snapshot()
        window = self.ticks[min(n0, n1 - MIN_TICKS):n1]
        return result, (cpu1 - cpu0) * REF_TICK_S * len(window) / sum(window)
