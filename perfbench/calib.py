"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can run 1.5x slower for minutes at a
time.  ``calibrate()`` times a fixed, short piece of interpreter work --
object creation, method calls, heap and dict operations, the mix a
packet simulation runs -- so a timing taken right next to it can be
scaled to a host at reference speed:

    scaled = wall_s * CAL_REF_S / calibrate()

The loop lives here, not in the program, so a change to the program
moves the wall time and leaves the calibration alone.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Seconds one ``calibrate()`` round takes on a quiet 2-vCPU Xeon VM with
#: CPython 3.11; scaled figures read as seconds on such a host.
CAL_REF_S = 0.0005

_ITEMS = 500
_ROUNDS = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def shifted(self, x: int) -> int:
        return self.value + x


def _round() -> float:
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(_ITEMS):
        item = _Item(i, i * 7919 % 3001)
        heappush(heap, (item.value, i, item))
        table[i & 255] = item.shifted(i)
    while heap:
        heappop(heap)
    return time.perf_counter() - start


def calibrate() -> float:
    """Wall seconds of one calibration round: the best of a few short
    rounds, so a preemption inside one of them does not count."""
    return min(_round() for _ in range(_ROUNDS))
