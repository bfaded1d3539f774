"""The metrics registry: named instruments for simulation telemetry.

Four instrument kinds cover what the Gamma model needs to explain its
own behavior:

* :class:`Counter` -- a monotonically increasing total (disk reads,
  messages sent);
* :class:`Gauge` -- a point-in-time level (queue length, in-flight
  queries);
* :class:`~repro.obs.sketch.LatencySketch` -- a distribution of
  observations with bounded relative error (disk queue waits);
* :class:`Timeline` -- a bounded series of ``(time, value)`` samples,
  the substrate of per-resource utilization timelines.

Instruments live in a :class:`MetricsRegistry` under hierarchical
dot-separated names (``node.3.disk.reads``); fetching an existing name
returns the same instrument.  :data:`NULL_REGISTRY` is a shared no-op
registry (``enabled`` is False and every instrument discards its
updates), so instrumented components can hold instrument references
unconditionally and pay only a no-op method call when telemetry is off.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .sketch import LatencySketch

__all__ = [
    "Counter",
    "Gauge",
    "Timeline",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time level."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Timeline:
    """A bounded series of timestamped samples.

    Keeps at most *capacity* points; older samples are dropped (and
    counted in :attr:`dropped`) so a long run cannot exhaust memory.
    """

    kind = "timeline"
    __slots__ = ("name", "capacity", "points", "dropped")

    def __init__(self, name: str, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("timeline capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.points: List[Tuple[float, float]] = []
        self.dropped = 0

    def sample(self, time: float, value: float) -> None:
        if len(self.points) >= self.capacity:
            del self.points[0]
            self.dropped += 1
        self.points.append((time, value))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def mean(self) -> float:
        if not self.points:
            return 0.0
        return sum(v for _, v in self.points) / len(self.points)

    def reset(self) -> None:
        self.points.clear()
        self.dropped = 0

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind,
                "samples": len(self.points), "dropped": self.dropped,
                "mean": self.mean(),
                "points": [[t, v] for t, v in self.points]}


class MetricsRegistry:
    """Instruments addressed by hierarchical dot-separated names."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        """The instrument under *name*, created as ``cls(*args)``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(*args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, name)

    def sketch(self, name: str) -> LatencySketch:
        return self._get(name, LatencySketch)

    def timeline(self, name: str, capacity: int = 100_000) -> Timeline:
        return self._get(name, Timeline, name, capacity)

    def get(self, name: str):
        """The instrument registered under *name*, or None."""
        return self._metrics.get(name)

    def __iter__(self) -> Iterator:
        """All instruments, sorted by name."""
        return (metric for _, metric in self.items())

    def items(self) -> List[Tuple[str, object]]:
        """``(name, instrument)`` pairs, sorted by name."""
        return sorted(self._metrics.items())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every instrument (start of the measurement window)."""
        for metric in self._metrics.values():
            metric.reset()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullSketch(LatencySketch):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


class _NullTimeline(Timeline):
    __slots__ = ()

    def sample(self, time: float, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A no-op registry: hands out shared instruments that discard updates."""

    enabled = False

    def __init__(self):
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._sketch = _NullSketch()
        self._timeline = _NullTimeline("null", capacity=1)

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def sketch(self, name: str) -> LatencySketch:
        return self._sketch

    def timeline(self, name: str, capacity: int = 100_000) -> Timeline:
        return self._timeline


#: The shared disabled registry.
NULL_REGISTRY = NullRegistry()
