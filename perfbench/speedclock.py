"""A clock that rescales elapsed time to a fixed CPU speed.

The benchmark runs on shared virtual machines whose CPU speed drifts by up to
1.8x within minutes, so raw pass times of one program spread by more than any
useful bound.  While a ``SpeedClock`` is active, a timer signal interrupts the
program every ``INTERVAL_S`` and runs a short fixed calibration search (pure
Python, like the program's solvers) between two bytecodes.  Each stretch of
program time between two calibrations is then scaled by the reference
calibration time over the local one: a stretch that ran while the machine was
1.5x slow counts 1/1.5 of its length.  Calibration time itself is excluded.

``scaled(t0, t1)`` gives the seconds that the program spent in ``[t0, t1]``
(``perf_counter`` stamps taken inside the clock) at the reference speed; with
the machine at that speed it equals the raw time less the calibrations.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.2
EDGE_SAMPLES = 3  # calibrations at start and end, so short spans have neighbours
SMOOTH = 2  # a calibration's local time is the median of it and SMOOTH each side
# Median calibration time on the reference machine (2-vCPU shared Linux VM,
# Python 3.11.7).  Only the ratio of two commits' figures on one machine matters.
CAL_REF_S = 0.0025


def calibrate() -> int:
    """Count rulers of 5 marks on 0..15 whose pairwise differences are distinct.

    A fixed backtracking search with lists, a set and a dict, a few ms long.
    """
    marks = [0]
    diffs: set[int] = set()
    seen: dict[int, int] = {}
    count = 0

    def extend(last: int) -> None:
        nonlocal count
        if len(marks) == 5:
            count += 1
            seen[marks[-1]] = seen.get(marks[-1], 0) + 1
            return
        for x in range(last + 1, 16):
            new = [x - m for m in marks]
            if any(d in diffs for d in new) or len(set(new)) < len(new):
                continue
            diffs.update(new)
            marks.append(x)
            extend(x)
            marks.pop()
            diffs.difference_update(new)

    extend(0)
    return count


class SpeedClock:
    """Context manager; query ``scaled`` and ``work`` after it has exited."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self._old = None
        self._factors: list[float] = []
        self._starts: list[float] = []

    def _calibrate(self, *_) -> None:
        a = perf_counter()
        calibrate()
        self.marks.append((a, perf_counter()))

    def __enter__(self) -> "SpeedClock":
        for _ in range(EDGE_SAMPLES):
            self._calibrate()
        self._old = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(EDGE_SAMPLES):
            self._calibrate()
        d = [b - a for a, b in self.marks]
        local = [statistics.median(d[max(0, k - SMOOTH):k + SMOOTH + 1]) for k in range(len(d))]
        # program stretch k runs from the end of calibration k to the start of k + 1
        self._starts = [b for _, b in self.marks[:-1]]
        self._factors = [2.0 * CAL_REF_S / (local[k] + local[k + 1]) for k in range(len(d) - 1)]

    def _stretches(self, t0: float, t1: float):
        k = max(0, bisect.bisect_right(self._starts, t0) - 1)
        while k < len(self._starts):
            a, b = self._starts[k], self.marks[k + 1][0]
            if a >= t1:
                break
            overlap = min(b, t1) - max(a, t0)
            if overlap > 0:
                yield overlap, self._factors[k]
            k += 1

    def scaled(self, t0: float, t1: float) -> float:
        """Program seconds in [t0, t1] at the reference speed."""
        return sum(length * factor for length, factor in self._stretches(t0, t1))

    def work(self, t0: float, t1: float) -> float:
        """Program seconds in [t0, t1] as measured, calibrations excluded."""
        return sum(length for length, _ in self._stretches(t0, t1))

    def calibration_s(self) -> float:
        """Median time of one calibration while the clock ran."""
        return statistics.median(b - a for a, b in self.marks)
