"""Host speed probe: a fixed pure-Python kernel timed at regular intervals.

The shared host this benchmark was written on changes speed by up to
2x over minutes, and CPU time moves with wall time, so raw seconds from
two runs of the same code can differ by more than any useful bound.
The probe measures that drift.  ``SIGALRM`` fires every
``INTERVAL_S`` and the handler times ``kernel()``, a frozen
counter/priority-queue bootstrap-percolation replay that lives here and
not in the package, so no change to the package moves it.  A job's time
is then reported in reference seconds:

    normalized = (elapsed - probe time inside the job) * REFERENCE_S / probe_s

where ``probe_s`` is the trimmed mean probe duration around the job and
``REFERENCE_S`` is about the kernel's duration when the benchmark was
defined (2.0 GHz Xeon vCPU, CPython 3.11.7).  The mean, not the median:
the host's speed flips between two levels, and a median over a job that
spent half its time at each jumps between them.
"""

from __future__ import annotations

import heapq
import itertools
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Iterable, Iterator

INTERVAL_S = 0.2
REFERENCE_S = 0.006
MIN_PROBES = 5
TRIM = 0.1  # share of probes dropped at each end before averaging
_paused = False

_N, _R = 10, 3
_EDGES = list(itertools.combinations(range(_N), _R))
_QUADS = list(itertools.combinations(range(_N), _R + 1))
_FACETS = [list(itertools.combinations(q, _R)) for q in _QUADS]
_EDGE_QUADS: dict[tuple[int, ...], list[int]] = {e: [] for e in _EDGES}
for _qi, _fs in enumerate(_FACETS):
    for _f in _fs:
        _EDGE_QUADS[_f].append(_qi)
_SEEDS = [_EDGES[:i] + _EDGES[i + 40:] for i in range(0, 80, 8)]


def kernel() -> int:
    """Replay r = 3, m = 4 bootstrap percolation from a few fixed initial graphs."""
    total = 0
    for seed in _SEEDS:
        heap = [(0, e) for e in seed]
        heapq.heapify(heap)
        step: dict[tuple[int, ...], int] = {}
        counts = [0] * len(_QUADS)
        while heap:
            s, e = heapq.heappop(heap)
            if e in step:
                continue
            step[e] = s
            for qi in _EDGE_QUADS[e]:
                counts[qi] += 1
                if counts[qi] == _R:
                    for f in _FACETS[qi]:
                        if f not in step:
                            heapq.heappush(heap, (s + 1, f))
        total += max(step.values())
    return total


@contextmanager
def paused() -> Iterator[None]:
    """Skip timer probes while a subprocess runs; it probes itself (probed_cli.py)."""
    global _paused
    _paused = True
    try:
        yield
    finally:
        _paused = False


def trimmed_mean(durations: list[float]) -> float:
    d = sorted(durations)
    k = int(len(d) * TRIM)
    return statistics.fmean(d[k:len(d) - k])


class Probe:
    """Times ``kernel()`` every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _fire(self, signum, frame) -> None:
        if _paused:
            return
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def sample(self) -> None:
        """Take one probe now, outside the timer."""
        self._fire(None, None)

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def merge(self, probes: Iterable[tuple[float, float]]) -> None:
        """Add probes another process took on the same clock."""
        for start, end in probes:
            i = bisect_left(self.starts, start)
            self.starts.insert(i, start)
            self.ends.insert(i, end)

    def inside(self, start: float, end: float) -> float:
        """Seconds of probing that ran between ``start`` and ``end``."""
        lo, hi = bisect_left(self.starts, start), bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def speed(self, start: float, end: float) -> float:
        """Trimmed mean probe duration inside [start, end], widened to at least MIN_PROBES probes."""
        lo, hi = bisect_left(self.starts, start), bisect_right(self.ends, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return trimmed_mean([self.ends[i] - self.starts[i] for i in range(lo, hi)])

    def normalized(self, start: float, end: float) -> float:
        """Reference seconds for work that ran from ``start`` to ``end``,
        less the probes that interrupted it."""
        seconds = end - start - self.inside(start, end)
        return seconds * REFERENCE_S / self.speed(start, end)
