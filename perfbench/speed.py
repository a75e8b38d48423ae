"""The CPU speed a run saw, sampled while it runs.

The reference machine is a 2-vCPU VM on a shared host.  Its CPU speed
drifts by up to about 1.8x, in phases that last from seconds to tens of
minutes, and every time the program takes drifts with it: cold runs of the
same code, minutes apart, differ by up to 80%.  So a run samples the speed
it gets.  Every INTERVAL_S of wall time, a SIGALRM handler times one probe,
in the same process and on the same CPU as the program.  A sample's speed
is the probe's time on the reference CPU, REFERENCE_S, over its time now.
Samples come at even steps of wall time, so `factor()`, the mean of their
speeds, is the mean speed over the run: a time multiplied by it reads as
seconds on the reference CPU.

The probe is two kinds of pure-Python work: a loop of small-int arithmetic,
and 2x2 matrices over F_13 built as tuples and hashed into a set, the kind
of work most of isogate's time goes to.  A slow phase of the host does not
slow all code alike, and a probe of either kind alone followed the program
less closely than both.  The probe reads no memory beyond the CPU's
caches: the time of such reads depends on where each process's memory
lands, by up to 2x between processes on a steady host.

The probe's own time is kept in `spent`, so it can be taken out of every
interval timed around it.  The handler runs between bytecodes, so a long
call into C delays a sample but does not lose it.
"""

from __future__ import annotations

import gc
import random
import signal
import time

INTERVAL_S = 0.025
# the mean time of one probe on the reference machine (Intel Xeon, Python 3.11.7)
REFERENCE_S = 3.0e-4
SETUP_SAMPLES = 40
PROBE_SPAN = "perfbench.speed_probe"

_LOOP = 1500
_MODULUS = 13


class SpeedProbe:
    def __init__(self):
        rng = random.Random(5)
        self._mats = [tuple(rng.randrange(_MODULUS) for _ in range(4)) for _ in range(40)]
        self.reset()
        self._tracer = None
        self._span = None

    def reset(self) -> None:
        self.samples = []
        self.spent = 0.0

    def trace_into(self, tracer) -> None:
        """Record each sample as a span, so no traced function's self time holds it."""
        self._tracer = tracer
        self._span = len(tracer.names)
        tracer.names.append(PROBE_SPAN)

    def _work(self) -> int:
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        seen = set()
        p = _MODULUS
        for a, b, c, d in self._mats:
            for e, f, g, h in self._mats[:10]:
                seen.add(((a * e + b * g) % p, (a * f + b * h) % p,
                          (c * e + d * g) % p, (c * f + d * h) % p))
        return total + len(seen)

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the probe's time
        try:
            start = time.perf_counter()
            self._work()
            took = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(took)
        self.spent += took

    def _tick(self, signum, frame) -> None:
        if self._tracer is None:
            self.sample()
            return
        span = self._tracer._enter(self._span)
        try:
            self.sample()
        finally:
            self._tracer._exit(span)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        return REFERENCE_S * sum(1.0 / took for took in self.samples) / len(self.samples)

