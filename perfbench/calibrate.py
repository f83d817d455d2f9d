"""Host-speed calibration.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over tens of seconds, which would swamp the differences a benchmark must
resolve.  A `Probe` times a fixed piece of work that does not touch
quantoda: the "python" part is Fraction, tuple and dict arithmetic (like the
exact suites, argparse and report emission), the "numeric" part real
matrix products and exp/sin on arrays (like the quadrature).  Each
workload probes with the parts that resemble its own work.

The benchmark probes before the first command and after every command, and
divides each command's latency by the host slowdown measured around it:
the median duration of the probes taken from WINDOW_S before the command to
WINDOW_S after it, over the probe's reference duration.  A pure-Python
probe also runs on a timer while commands execute, because a probe at each
end of a command of several seconds cannot see the speed changes inside it;
the time it takes inside a command is taken off that command's latency.
Timing metrics are thus in seconds of the reference host; raw seconds are
printed beside them.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

WINDOW_S = 0.5
TIMER_S = 0.25

_rng = np.random.default_rng(12345)
_X = _rng.random((160, 160)) * 0.01
_V = _rng.random(200000)


def _python_work():
    acc = 0
    terms = {}
    for i in range(1, 1300):
        y = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, i)
        key = (i % 29, (i * 7) % 13)
        terms[key] = terms.get(key, 0) + y.numerator % 97
        acc += y.denominator % 7
    return acc + len(terms)


def _numeric_work():
    # Real arithmetic only: after a complex matrix product some hosts run
    # the next SSE code (complex exp, loggamma) up to 20x slower until a
    # vector op clears the AVX upper state, which would make the probe
    # depend on the command that ran before it.
    w = _V + _V
    b = _X
    for _ in range(12):
        b = b @ _X
    return float(np.exp(-w).sum() + np.sin(_V).sum() + b[0, 0])


def _clear_vector_state():
    """A vector op that leaves the AVX upper state clean, so every command
    starts from the same CPU state, as it would in a fresh CLI process."""
    _V[:64] + _V[:64]


# Median seconds of each part on the reference host (2-CPU x86-64, one BLAS
# thread).
PARTS = {"python": (_python_work, 0.009), "numeric": (_numeric_work, 0.010)}
WORKLOAD_PARTS = {"points": ("python", "numeric"),
                  "sweeps": ("python", "numeric"),
                  "exact": ("python",)}


class Probe:
    """Host-speed probe: call it between commands, and `start` it to probe
    on a timer while commands run.  `samples` holds (end time, seconds) of
    every probe taken."""

    def __init__(self, parts):
        self.work = [PARTS[p][0] for p in parts]
        self.reference_s = sum(PARTS[p][1] for p in parts)
        # Numeric probe work inside a command would change the vector state
        # the command runs in, so only a pure-Python probe runs on the timer.
        self.timed = "numeric" not in parts
        self.samples, self.ticks = [], []
        self._busy = False

    def __call__(self):
        self._busy = True
        t0 = perf_counter()
        for w in self.work:
            w()
        t1 = perf_counter()
        _clear_vector_state()
        self._busy = False
        self.samples.append((t1, t1 - t0))
        return self.samples[-1]

    def _tick(self, signum, frame):
        if not self._busy:
            self.ticks.append(self())

    def start(self):
        if self.timed:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)

    def stop(self):
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reset(self):
        self.samples, self.ticks = [], []

    def time_inside(self, t0, t1):
        """Seconds the timer probe took between t0 and t1."""
        return sum(d for t, d in self.ticks if t0 <= t <= t1)

    def slowdown(self, t0, t1):
        """Host slowdown over the interval [t0, t1]."""
        near = [d for t, d in self.samples
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        return statistics.median(near) / self.reference_s
