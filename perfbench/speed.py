"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was tuned on is a 2-vCPU Intel Xeon virtual machine
running Python 3.11.  On it, Python runs at speeds up to 1.7x apart.  The
speed switches within fractions of a second and drifts over minutes, and a
pure-Python loop shows it as plainly as raagcc does.  Raw times of the same
code differ by 25-40% between runs, which is more than any useful regression
bound.

``Speed`` samples the interpreter's speed throughout a run.  A timer signal
runs a fixed pure-Python unit of work every ``INTERVAL_S`` seconds and
records how long it took.  The unit has two parts, because the two kinds of
code slowed by different amounts:

- dict and set updates and a sort on small tuples, like the word kernel;
- random reads over a few megabytes, like enumeration walking large levels.

A measured interval is reported as its own time (the samples taken inside
it are subtracted), scaled by ``REFERENCE_S`` over the mean unit time of the
samples around it.  That is, it is reported at the reference speed of the
unit.  A change of machine speed moves both the op and the unit, and mostly
cancels.  A change to raagcc moves the op, and it shows.

The unit interrupts the workload, so it starts with cold caches: it takes
about 2.6 ms inside a run, against 0.9 ms in a warm loop.  The 2.6 ms was
the same on the smallest workload (words-short) and the largest
(certify-zoo).  But a change that alters how much memory raagcc touches
between samples can still move the unit a little, so the raw times are
printed alongside the scaled ones for every run.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

REFERENCE_S = 0.0025  # time of one unit at the reference speed
INTERVAL_S = 0.05  # time between samples
MARGIN_S = 0.25  # samples this close to an interval also describe it


class Speed:
    """Samples the interpreter's speed while started; scales intervals after."""

    def __init__(self):
        rng = random.Random(0)
        self._values = [i * 1_000_003 for i in range(100_000)]
        self._reads = [rng.randrange(len(self._values)) for _ in range(2_500)]
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _compute_part(self) -> int:
        counts: dict[tuple[int, int], int] = {}
        acc = 0
        for i in range(1200):
            key = (i & 63, i % 7)
            counts[key] = counts.get(key, 0) + 1
            acc += len(key)
        seen: set[tuple[int, int]] = set()
        out = []
        for i in range(800):
            item = (i * 7919 % 10007, i & 255)
            if item not in seen:
                seen.add(item)
                out.append(item)
        out.sort()
        return acc + len(counts) + len(out)

    def _memory_part(self) -> int:
        values = self._values
        acc = 0
        last: dict[int, int] = {}
        for i in self._reads:
            v = values[i]
            acc ^= v
            last[v & 511] = i
        return acc + len(last)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._compute_part()
        self._memory_part()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(None, None)

    def own(self, start: float, end: float) -> float:
        """The interval's length without the samples taken inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The interval's own time at the reference speed."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        lo, hi = max(0, min(lo, hi - 1)), max(hi, lo + 1)  # at least one sample
        window = self.durations[lo:hi]
        return self.own(start, end) * REFERENCE_S * len(window) / sum(window)
