"""Measurement instruments for simulation runs.

The paper's evaluation criterion is system throughput (queries completed
per second) as a function of multiprogramming level; we additionally track
response times, which the text uses to explain the results.  Server
utilization is integrated by :class:`~repro.des.resources.Server`
itself.

All instruments support a *warm-up reset* so that steady-state statistics
exclude the initial transient, the standard practice for closed
queueing-network simulations.
"""

from __future__ import annotations

__all__ = ["TallyMonitor", "TimeWeightedMonitor"]


class TallyMonitor:
    """Accumulates discrete observations (e.g. per-query response times)."""

    __slots__ = ("name", "_count", "_sum")

    def __init__(self, name: str = ""):
        self.name = name
        self._count = 0
        self._sum = 0.0

    def record(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        self._sum += value

    def reset(self) -> None:
        """Discard everything recorded so far (end of warm-up)."""
        self._count = 0
        self._sum = 0.0

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0


class TimeWeightedMonitor:
    """Time-average of a piecewise-constant quantity (queue length etc.)."""

    __slots__ = ("name", "_level", "_last_change", "_area", "_start",
                 "_max")

    def __init__(self, name: str = "", initial: float = 0.0, now: float = 0.0):
        self.name = name
        self._level = initial
        self._last_change = now
        self._area = 0.0
        self._start = now
        self._max = initial

    def observe(self, now: float, level: float) -> None:
        """Record that the quantity changed to *level* at time *now*.

        *now* must not precede the previous observation: a backwards
        step would silently subtract area and corrupt every later
        :meth:`time_average`.
        """
        last = self._last_change
        if now < last:
            raise ValueError(
                f"observation at t={now} precedes the last change at "
                f"t={last} ({self.name or 'monitor'})")
        self._area += self._level * (now - last)
        self._level = level
        self._last_change = now
        if level > self._max:
            self._max = level

    def reset(self, now: float) -> None:
        """Restart averaging at *now*, keeping the current level."""
        self._area = 0.0
        self._start = now
        self._last_change = now
        self._max = self._level

    @property
    def current(self) -> float:
        return self._level

    @property
    def maximum(self) -> float:
        return self._max

    def time_average(self, now: float) -> float:
        """Time-weighted mean level over [reset, now]."""
        span = now - self._start
        if span <= 0:
            return self._level
        area = self._area + self._level * (now - self._last_change)
        return area / span
