"""A fixed reference probe timed while the benchmark's operations run.

The benchmark runs on a few cores of a shared host.  Each core switches,
at intervals from a fraction of a second to minutes, between two speeds
about 1.8 times apart, as a neighbour's load on the same physical core
comes and goes; so one operation's wall time, and a whole run's median,
depend on how much of it the core spent at the slow speed.

While operations run, a timer signal interrupts the benchmark every
``PERIOD_S`` and times a small fixed probe of interpreter and numpy work
that never touches orthoprob.  The probe runs on the same core as the
operation it interrupts (or, for a CLI child, as the child: the run is
pinned to one core), so its time tracks the core's speed at that moment.
An operation's time excludes the probes that interrupted it and is scaled
by ``REFERENCE_MS`` times the probes' mean speed around it: a reported time
is the time at the speed at which the probe takes ``REFERENCE_MS``.
Changes of the core's speed move the operation and the probe alike and
cancel; a change to the program moves the operation alone and shows one
for one.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

# Reported times are scaled to the speed at which one probe takes this long
# (about the probe's time on an unloaded core of the reference machine).
REFERENCE_MS = 0.5
# A probe runs this often while a Pace is active.
PERIOD_S = 0.02
# An operation is scaled by the probes within this margin of it, or by the
# NEAREST probes to its midpoint if fewer fall there.
MARGIN_S = 0.05
NEAREST = 4


def _probe_inputs():
    rng = np.random.default_rng(20100317)
    h = rng.standard_normal((8, 8))
    return h + h.T, rng.standard_normal((4, 4)), rng.integers(0, 64, 4000)


_SYMMETRIC, _SMALL, _LABELS = _probe_inputs()


def probe() -> float:
    """A fixed amount of interpreter and numpy work; returns a checksum."""
    total = 0.0
    table = {}
    for i in range(600):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) * 0.5
    m = _SMALL
    for _ in range(30):
        m = np.tanh(m @ _SMALL)
        total += float(np.trace(m))
    w, v = np.linalg.eigh(_SYMMETRIC)
    values, counts = np.unique(_LABELS, return_counts=True)
    return total + float(w[0] + abs(v[0, 0])) + float(counts.max()) + len(table)


def pin_to_one_core() -> int:
    """Pin this process and the children it starts to one allowed core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Pace:
    """Probes taken on a timer while active, and the scale they imply.

    Use as a context manager; ``run`` times a call without the probes that
    interrupted it, and ``scale`` turns a span of time into the factor that
    brings its duration to the reference speed.
    """

    def __init__(self, period_s: float = PERIOD_S, work=probe):
        self.period_s = period_s
        self.work = work
        self.spans: list[tuple] = []  # probe (start, end), perf_counter seconds
        self.at: list[float] = []     # probe midpoints
        self.ms: list[float] = []     # probe CPU times
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        self.work()
        cpu_end, wall_end = time.thread_time(), time.perf_counter()
        self.spans.append((wall, wall_end))
        self.at.append(0.5 * (wall + wall_end))
        self.ms.append(1e3 * (cpu_end - cpu))

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def run(self, fn):
        """(result, error, start, seconds): ``fn()`` timed without the
        probes that interrupted it; an exception is returned, not raised."""
        first = len(self.spans)
        start = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, exc
        end = time.perf_counter()
        # A probe runs between two bytecodes, so it lies wholly inside or
        # wholly outside [start, end]; one may run just before ``start``.
        inside = sum(e - b for b, e in self.spans[first:] if start <= b and e <= end)
        return out, error, start, (end - start) - inside

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS times the mean probe speed around [start, end]."""
        if not self.ms:
            raise ValueError("no probes taken")
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, 0.5 * (start + end))
            lo = max(0, min(mid - NEAREST // 2, len(self.ms) - NEAREST))
            hi = lo + NEAREST
        return REFERENCE_MS * statistics.fmean(1.0 / ms for ms in self.ms[lo:hi])
