"""The host's current speed, measured with a fixed piece of pure Python.

The benchmark runs on a few cores of a shared host whose speed switches
between a fast and a slow state, often every few seconds and by up to a
factor of two; the CPU time of an operation changes with it, so the slowdown
is not time spent waiting.  The worker therefore times this kernel right
before each operation, once after the last one and, through a Probe, every
INTERVAL_S seconds during an operation (the time those samples take is taken
off the operation's time).  An operation's time is reported in reference
seconds (to_reference): the time it would take on a host where the kernel
takes REFERENCE_S, given the mean of the kernel's times before, during and
after it.  A sample over twice the run's median is left out of that mean
(run.py): the process was paused during it, and a pause that fills a 20 ms
sample costs a long operation next to nothing.

The program slows a little more than the kernel when the host slows: over
38 proof runs of the three workloads (836 operations, each compared with
its own mean), the log of an operation's wall time rose 1.13 (verdict), 1.18
(digitize) and 1.11 (atlas) times as fast as the log of the kernel's mean
time around it.  to_reference therefore scales by the kernel's time to the
power SENSITIVITY.

The kernel does, in four equal parts, what slopechar mostly does: Fraction
arithmetic (Gauss-Jordan elimination of a fixed rational matrix), big-integer
products, dictionaries with tuple keys and sorting, and small objects with
rational fields.  Over four minutes of alternating verdict, digitize and
rpatterns operations of the fixtures, the mix of the four tracked the
operations' times better than any one part: scaling cut the spread of one
operation's time from 25-30% (quartile distance over median) to 8-10%,
against 8-18% for single parts.  The kernel does not import slopechar, so a
change to the program does not change it.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

# about the kernel's time on the 2-core host the benchmark was sized on; a
# reported time in seconds is a time at this speed
REFERENCE_S = 0.02
SENSITIVITY = 1.15
INTERVAL_S = 0.5  # a Probe samples the speed this often


def to_reference(wall_s: float, kernel_s: float) -> float:
    """A wall time measured while the kernel took kernel_s, in reference seconds."""
    return wall_s * (REFERENCE_S / kernel_s) ** SENSITIVITY


def _eliminate(n: int = 7, seed: int = 0) -> Fraction:
    m = [[Fraction((i * 7 + j * 13 + seed) % 11 - 5, 1 + (i + 2 * j) % 5)
          for j in range(n + 3)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[0][-1]


def _fractions():
    return [_eliminate(seed=seed) for seed in range(2)]


_BIG = [random.Random(i).getrandbits(2000) for i in range(40)]


def _big_ints():
    s = 0
    for a in _BIG:
        for b in _BIG[:10]:
            s ^= (a * b) % (b | 1)
    return s


def _dicts():
    s = 0
    for k in range(3):
        d = {}
        for i in range(2000):
            d[(i % 97, i % 89, i + k)] = [i, i + 1]
        s += sum(v[0] for _, v in sorted(d.items(), key=lambda kv: kv[0][1]))
    return s


class _Quad:
    """a + b*sqrt(2) with rational a, b."""
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, o):
        return _Quad(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)


def _objects():
    x, y = _Quad(Fraction(1, 3), Fraction(2, 7)), _Quad(Fraction(3, 5), Fraction(-1, 2))
    for _ in range(100):
        x = x.mul(y)
        x = _Quad(x.a.limit_denominator(1000), x.b.limit_denominator(1000))
    return x


PARTS = (_fractions, _big_ints, _dicts, _objects)


def kernel_s() -> float:
    """The kernel's wall time, about 20 ms on the host it was sized on.

    The garbage collector is off meanwhile: the kernel makes no cycles, and
    a collection of the garbage an operation left would be timed here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for part in PARTS:
            part()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Runs the kernel every INTERVAL_S seconds while active (a context
    manager), from a SIGALRM timer on the main thread.  `samples` holds the
    kernel's times and `spent` the wall time they took, since the last entry."""

    def __init__(self):
        self.samples, self.spent, self.active = [], 0.0, False

    def _sample(self, signum, frame):
        if self.active:  # a signal may arrive just after the timer stopped
            t0 = time.perf_counter()
            self.samples.append(kernel_s())
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
