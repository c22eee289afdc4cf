"""A frozen measure of how fast the host runs pure-Python arithmetic right now.

The CPU speed of a shared host drifts: on the 2-core reference machine the
same count took from 55 ms to 120 ms depending on the minute, and the
slow and fast phases last from seconds to minutes. The worker times this
probe between tasks and scales each task's time by ``REF_S`` over the
probe's median time over the few tasks around it. That gives the task's
time in reference seconds, seconds on a host where the probe takes
``REF_S``, and keeps runs made minutes apart comparable. Raw times are
reported alongside.

The probe mixes the two kinds of work the library does, exact rational
elimination and an integer walk with running sums. It shares no code with
the library, so no change to the program can move it. Changing it changes
every reference-second figure: do so only together with a new baseline.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_S = 0.008  # about the probe's time on the reference machine when it is not slowed
REPEATS = 3


def work() -> int:
    n = 7
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    total = 0
    for x in range(-45, 46):
        partial = [3 * x, -2 * x, x]
        for y in range(-45, 46):
            if all(p + a * y <= 300 for p, a in zip(partial, (1, 2, -3))):
                total += 1
    return total


def sample() -> list[float]:
    """Times of a few probe runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return times


def local(samples: list[list[float]], i: int, reach: int = 3) -> float:
    """Probe time around task ``i``: the median over the ``reach`` samples
    taken on each side of it (sample ``i`` precedes task ``i``)."""
    window = samples[max(0, i - reach + 1): i + 1 + reach]
    return statistics.median(t for times in window for t in times)
