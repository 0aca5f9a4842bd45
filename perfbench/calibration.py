"""How fast the machine runs right now, from a fixed pure-Python loop.

On a shared machine the speed of the same code drifts by tens of percent
within seconds and minutes, for every process alike.  The benchmark reports
each wall time scaled to a fixed speed: multiplied by NOMINAL_S over the
time this loop takes on the same CPU, measured just before and just after
the timed work.  Scaled this way, on a shared 2-vCPU Xeon VM with Python
3.11, repeated runs of the same code agreed to a few percent where raw wall
times spread by 20-40%.  The loop does
interpreter work of the kinds the program does and never touches
``vclabels``; a mix of kinds tracks the program better than any one kind.
"""

from __future__ import annotations

import time

# Scaled seconds are seconds on a machine that runs the loop in this time.
NOMINAL_S = 0.015
_INTS = list(range(0, 700 * 37, 37))


def loop_seconds() -> float:
    """Time of a fixed mix of dict updates, set comprehensions and sorts."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(50_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + (i ^ (i >> 3))
    for a in range(30):
        mask = a * 2654435761 & 0xFFFF
        len({value & mask for value in _INTS})
        sorted(_INTS[a : a + 200], key=lambda value: -value)
    return time.perf_counter() - start


class Speed:
    """Scale factors for wall times, from the loop run between them."""

    def __init__(self):
        self._last = loop_seconds()

    def factor(self) -> float:
        """Factor for work timed since the previous call (or since creation)."""
        before, self._last = self._last, loop_seconds()
        return 2 * NOMINAL_S / (before + self._last)
