"""Host-speed calibration: time a frozen probe beside the workload.

On a shared host the speed of one core drifts by up to 2x over minutes,
so raw host seconds of the same code spread far more from run to run than
any change worth measuring.  A timed region therefore also runs a small,
frozen probe on the same core: a few times right before and right after
the region, and every ``INTERVAL_S`` inside it, from a SIGALRM handler
that runs between two bytecodes of the workload.  The probes' own time is
taken out of the region's, and what is left is scaled by how much slower
than ``REFERENCE_PROBE_S`` the probes ran: a region timed while the core
ran at half speed reports half its host seconds.

The probe's loops are shaped like the simulator's hot paths: a heap of
events, a dict keyed by ids, float arithmetic, and small numpy operations.
It imports nothing from the simulator, so a change to the program cannot
change the yardstick.
"""

import gc
import heapq
import signal
import time

import numpy as np

#: FROZEN: seconds one ``probe()`` takes at reference speed.  Every time
#: metric is in these reference seconds; changing this, or the probe's
#: loops, rescales every recorded figure.
REFERENCE_PROBE_S = 0.0035

#: Host seconds between two probes inside a sampled region.
INTERVAL_S = 0.1

#: Probes taken right before and right after every timed region.
BRACKET = 2

_ARRAY = np.arange(2048, dtype=float)


def probe():
    """Run the frozen calibration loops once; return their host seconds.

    The collector is held off: a collection of the workload's heap would
    otherwise land in whichever probe happened to allocate past its
    threshold.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap = [(float(i * 7919 % 1000), i) for i in range(512)]
    heapq.heapify(heap)
    table = {}
    acc = 0.0
    for n in range(1500):
        t, i = heapq.heappop(heap)
        key = (i * 31 + n) & 4095
        table[key] = table.get(key, 0.0) + t
        acc += t * 1.0001 - (acc % 3.0)
        heapq.heappush(heap, (t + (n % 17) * 0.5, i))
    for n in range(150):
        acc += float(np.minimum(_ARRAY * 1.0001 + n, 7.0).sum())
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def slowdown(probes):
    """How many times slower than reference speed the probes ran."""
    if not probes:
        raise ValueError("no probes were timed")
    return sum(probes) / len(probes) / REFERENCE_PROBE_S


def reference_seconds(host_s, probes):
    """Host seconds scaled to reference speed by the probes beside them."""
    return host_s / slowdown(probes)


class Timed:
    """Time one region: ``host_s`` without the probes run inside it,
    ``ref_s`` the same scaled to reference speed.

    ``sample=False`` takes only the bracketing probes: use it around code
    whose own timing must not be interrupted, such as a traced run.
    """

    def __init__(self, sample=True):
        self.sample = sample
        self.probes = []
        self._inside = []  # (start, seconds) of probes run by the alarm
        self.host_s = self.ref_s = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._inside.append((start, probe()))

    def __enter__(self):
        self.probes = [probe() for _ in range(BRACKET)]
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        stop = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        # An alarm that fired just before the timer was disarmed may have
        # run its probe after ``stop``: it is a speed sample, but its time
        # was never part of the region's.
        inside = sum(seconds for start, seconds in self._inside if start < stop)
        self.probes += [seconds for _, seconds in self._inside]
        self.probes += [probe() for _ in range(BRACKET)]
        self.host_s = stop - self._start - inside
        self.ref_s = reference_seconds(self.host_s, self.probes)
        return False
