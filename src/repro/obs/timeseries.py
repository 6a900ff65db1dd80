"""Windowed counters for per-flow time series.

Experiments need traces like "retransmission ratio over time" (Fig. 1b)
and per-window goodput.  :class:`WindowedCounter` accumulates event
counts and reports per-window totals; :class:`RateMeter` converts byte
counts into a bits-per-second series.  Raw per-change traces such as
the DCQCN sending rate (Fig. 1c) are recorder events (``CC`` category).

This module is the canonical home of these types (they once lived at
``repro.sim.trace``, removed after its deprecation window).
"""

from __future__ import annotations

from typing import List, Tuple

#: Nanoseconds per second (mirrors ``repro.sim.engine.SEC``; kept local so
#: the observability layer does not import the engine package).
SEC = 1_000_000_000


class WindowedCounter:
    """Counts events into fixed windows; reports per-window totals.

    Used for the Fig. 1b retransmission-ratio trace: one counter for
    retransmitted packets, one for all packets, ratio per window.
    """

    def __init__(self, window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self._windows: dict[int, float] = {}

    def add(self, time_ns: int, amount: float = 1.0) -> None:
        self._windows[time_ns // self.window_ns] = (
            self._windows.get(time_ns // self.window_ns, 0.0) + amount)

    def total(self) -> float:
        return sum(self._windows.values())

    def series(self) -> List[Tuple[int, float]]:
        """Sorted ``(window_start_ns, count)`` pairs."""
        return [(idx * self.window_ns, count)
                for idx, count in sorted(self._windows.items())]

    @staticmethod
    def ratio_series(numerator: "WindowedCounter",
                     denominator: "WindowedCounter",
                     ) -> List[Tuple[int, float]]:
        """Per-window ``numerator/denominator`` where the denominator is
        nonzero.  Both counters must share a window size."""
        if numerator.window_ns != denominator.window_ns:
            raise ValueError("window sizes differ")
        den = dict(denominator.series())
        out = []
        for start, count in numerator.series():
            total = den.get(start, 0.0)
            if total > 0:
                out.append((start, count / total))
        return out


class RateMeter:
    """Accumulates bytes into windows and reports Gbps per window."""

    def __init__(self, window_ns: int) -> None:
        self._counter = WindowedCounter(window_ns)
        self.window_ns = window_ns

    def add_bytes(self, time_ns: int, nbytes: int) -> None:
        self._counter.add(time_ns, float(nbytes))

    def total_bytes(self) -> float:
        return self._counter.total()

    def series_gbps(self) -> List[Tuple[int, float]]:
        scale = 8.0 * SEC / self.window_ns / 1e9
        return [(t, b * scale) for t, b in self._counter.series()]

    def mean_gbps(self, start_ns: int = 0, end_ns: int | None = None) -> float:
        """Average rate over [start, end] based on total bytes."""
        series = self._counter.series()
        if not series:
            return 0.0
        if end_ns is None:
            end_ns = series[-1][0] + self.window_ns
        duration = max(end_ns - start_ns, self.window_ns)
        total = sum(b for t, b in series if start_ns <= t < end_ns)
        return total * 8.0 / duration * SEC / 1e9

