"""A work clock that runs at a fixed machine speed.

The benchmark runs on shared hosts whose cores slow down by up to half, for
seconds to minutes at a time, when other tenants get busy; the wall time of
a pass then says more about the neighbours than about eigencert.  While a
Meter runs, a timer interrupts the process every PERIOD_S seconds to time a
short fixed probe, and the meter keeps two clocks that stand still while
the probe runs:

    raw     the wall time spent outside the probe;
    scaled  the same time, each stretch multiplied by REFERENCE_S over the
            median of the last five probe times.

The probe is fraction-free elimination of a fixed integer matrix in pure
Python, the kind of work exact mode spends its time on, and the benchmark's
own code: a change to eigencert moves the scaled clock in the same
proportion as the raw one, while a change in the host's speed moves the
probe as well and cancels.  The probe allocates no containers, so no garbage collection of
eigencert's objects falls inside it.  One process, no threads: the probe
runs in a signal handler on the main thread, between bytecodes.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections import deque

# Median probe time on the 2.0 GHz Xeon vCPU under CPython 3.11 behind the
# reference figures in README.md, so that scaled times read as seconds of
# that machine at its usual speed.
REFERENCE_S = 0.0006
PERIOD_S = 0.02

_rng = random.Random(20260118)
_N = 11
_MATRIX = [[_rng.randint(-99, 99) for _ in range(_N)] for _ in range(_N)]
_WORK = [[0] * _N for _ in range(_N)]


def _eliminate() -> int:
    """Bareiss elimination of a fixed 11 x 11 integer matrix, in place."""
    a = _WORK
    for row, source in zip(a, _MATRIX):
        row[:] = source
    prev = 1
    for k in range(_N - 1):
        pivot, ak = a[k][k] or 1, a[k]
        for i in range(k + 1, _N):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, _N):
                ai[j] = (ai[j] * pivot - aik * ak[j]) // prev
        prev = pivot
    return a[-1][-1]


def probe() -> float:
    """Seconds of one probe: four eliminations."""
    started = time.perf_counter()
    for _ in range(4):
        _eliminate()
    return time.perf_counter() - started


class Meter:
    """Raw and scaled work clocks; a context manager that owns SIGALRM."""

    def __init__(self):
        self._raw = self._scaled = 0.0
        self._mark = time.perf_counter()
        self._recent = deque([probe() for _ in range(5)], maxlen=5)
        self._factor = REFERENCE_S / statistics.median(self._recent)
        self._ticks = 0  # changes on every probe, so now() can tell it was cut
        self.probes = []
        self._saved = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a late tick, while the last one probes
            return
        self._busy = True
        started = time.perf_counter()
        self._raw += started - self._mark
        self._scaled += (started - self._mark) * self._factor
        seconds = probe()
        self.probes.append(seconds)
        self._recent.append(seconds)
        self._factor = REFERENCE_S / statistics.median(self._recent)
        self._ticks += 1
        self._mark = time.perf_counter()
        self._busy = False

    def now(self) -> tuple:
        """(raw, scaled) seconds of work so far."""
        while True:
            ticks = self._ticks
            t = time.perf_counter()
            raw, scaled, mark, factor = self._raw, self._scaled, self._mark, self._factor
            if ticks == self._ticks:  # no probe ran in between
                return raw + (t - mark), scaled + (t - mark) * factor

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


class WallClock:
    """The Meter's interface on the plain wall clock, for traced passes."""

    probes = ()

    def now(self) -> tuple:
        t = time.perf_counter()
        return t, t

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass
