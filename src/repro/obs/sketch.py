"""Mergeable, bounded-memory latency sketches (log-bucketed histograms).

The paper -- and :class:`~repro.gamma.metrics.RunResult` -- report *mean*
response times; at production scale the numbers that matter are the
tails.  :class:`LatencySketch` is a DDSketch-style quantile sketch:
values land in geometrically spaced buckets (growth factor
``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``), so any
quantile estimate is within ``a`` *relative* error of a true sample,
from microseconds to hours, out of a few hundred integers.

Properties the experiment harness leans on:

* **bounded memory** -- at most ``max_buckets`` sparse buckets are
  retained; overflow collapses the *lowest* buckets together (tail
  quantiles stay exact-to-``a``), so capacity is independent of the
  query count and of ``num_sites`` (unlike per-node gauges, which
  degrade to aggregates above ``PER_NODE_TELEMETRY_LIMIT``);
* **exact merge** -- merging two sketches adds bucket counts; recording
  a stream into one sketch and merging per-worker shards of the same
  stream produce identical bucket tables, which is what lets
  process-pool workers ship per-run sketches back to the parent;
* **picklable / JSON round-trip** -- plain ints and floats only.

:class:`LatencyRecorder` keys one sketch per query type and is the
object :class:`~repro.obs.telemetry.Telemetry` carries when latency
capture is on.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

__all__ = ["LatencySketch", "LatencyRecorder", "QUANTILES"]

#: The quantiles every summary reports, in order.
QUANTILES = (0.5, 0.95, 0.99)

#: Values at or below this are counted in the zero bucket (response
#: times are strictly positive; this guards against degenerate input).
_MIN_TRACKABLE = 1e-12


class LatencySketch:
    """A log-bucketed quantile sketch with fixed relative accuracy."""

    __slots__ = ("relative_accuracy", "max_buckets", "count", "total",
                 "min", "max", "zero_count", "buckets", "_log_gamma")

    def __init__(self, relative_accuracy: float = 0.02,
                 max_buckets: int = 512):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), "
                f"got {relative_accuracy}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2, got {max_buckets}")
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        self._log_gamma = math.log(
            (1.0 + relative_accuracy) / (1.0 - relative_accuracy))
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop every sample, keeping the accuracy and capacity."""
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero_count = 0
        #: bucket index -> count; bucket i covers (gamma^(i-1), gamma^i].
        self.buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        """Add one sample (seconds, but any positive unit works)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= _MIN_TRACKABLE:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if len(self.buckets) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest buckets together until within capacity.

        Collapsing *low* buckets sacrifices resolution on the fastest
        responses (which nobody alarms on) and keeps every tail
        quantile within the accuracy guarantee.
        """
        while len(self.buckets) > self.max_buckets:
            low, second = sorted(self.buckets)[:2]
            self.buckets[second] += self.buckets.pop(low)

    # -- merging ---------------------------------------------------------

    def merge(self, other: "LatencySketch") -> "LatencySketch":
        """Fold *other* into this sketch (exact: bucket counts add)."""
        if (other.relative_accuracy != self.relative_accuracy
                or other.max_buckets != self.max_buckets):
            raise ValueError(
                "cannot merge sketches with different accuracy/capacity: "
                f"({self.relative_accuracy}, {self.max_buckets}) vs "
                f"({other.relative_accuracy}, {other.max_buckets})")
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.zero_count += other.zero_count
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        if len(self.buckets) > self.max_buckets:
            self._collapse()
        return self

    # -- reading ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def bucket_count(self) -> int:
        """Retained buckets -- the sketch's memory footprint."""
        return len(self.buckets) + (1 if self.zero_count else 0)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile, within the relative accuracy bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        seen = self.zero_count
        if rank < seen:
            return 0.0
        gamma = math.exp(self._log_gamma)
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank < seen:
                # Midpoint estimate of bucket (gamma^(i-1), gamma^i]:
                # within (1 +/- a) of any value the bucket holds.
                estimate = 2.0 * gamma ** index / (gamma + 1.0)
                return min(max(estimate, self.min), self.max)
        return self.max

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 / max, the reporting columns."""
        out = {"count": self.count,
               "mean": self.mean if self.count else 0.0,
               "max": self.max if self.count else 0.0}
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = (self.quantile(q) if self.count
                                       else 0.0)
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-serializable dictionary that round-trips losslessly."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self.max_buckets,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero_count": self.zero_count,
            # JSON object keys are strings; sorted for stable dumps.
            "buckets": {str(index): count
                        for index, count in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LatencySketch":
        sketch = cls(relative_accuracy=payload["relative_accuracy"],
                     max_buckets=payload["max_buckets"])
        sketch.count = int(payload["count"])
        sketch.total = float(payload["total"])
        sketch.min = (math.inf if payload["min"] is None
                      else float(payload["min"]))
        sketch.max = (-math.inf if payload["max"] is None
                      else float(payload["max"]))
        sketch.zero_count = int(payload["zero_count"])
        sketch.buckets = {int(index): int(count)
                          for index, count in payload["buckets"].items()}
        return sketch

    def __getstate__(self):
        return self.to_dict()

    def __setstate__(self, state):
        restored = LatencySketch.from_dict(state)
        for slot in self.__slots__:
            setattr(self, slot, getattr(restored, slot))

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LatencySketch n={self.count} "
                f"buckets={len(self.buckets)}/{self.max_buckets} "
                f"a={self.relative_accuracy}>")


class LatencyRecorder:
    """Per-query-type latency sketches for one simulation run."""

    def __init__(self, relative_accuracy: float = 0.02,
                 max_buckets: int = 512):
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        self.sketches: Dict[str, LatencySketch] = {}

    def record(self, query_type: str, seconds: float) -> None:
        """Record one completed query's response time."""
        sketch = self.sketches.get(query_type)
        if sketch is None:
            sketch = LatencySketch(self.relative_accuracy, self.max_buckets)
            self.sketches[query_type] = sketch
        sketch.record(seconds)

    def reset(self) -> None:
        """Drop warm-up samples (start of the measurement window)."""
        self.sketches.clear()

    def overall(self) -> LatencySketch:
        """All query types merged into one fresh sketch."""
        merged = LatencySketch(self.relative_accuracy, self.max_buckets)
        for _, sketch in sorted(self.sketches.items()):
            merged.merge(sketch)
        return merged

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold another recorder's sketches into this one (exact)."""
        for query_type, sketch in sorted(other.sketches.items()):
            mine = self.sketches.get(query_type)
            if mine is None:
                mine = LatencySketch(self.relative_accuracy,
                                     self.max_buckets)
                self.sketches[query_type] = mine
            mine.merge(sketch)
        return self

    @classmethod
    def merged(cls, recorders: Iterable["LatencyRecorder"],
               ) -> Optional["LatencyRecorder"]:
        """A fresh recorder holding the merge of *recorders* (or None)."""
        out = None
        for recorder in recorders:
            if out is None:
                out = cls(recorder.relative_accuracy, recorder.max_buckets)
            out.merge(recorder)
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per query type: the reporting columns of each sketch."""
        return {query_type: sketch.summary()
                for query_type, sketch in sorted(self.sketches.items())}

    def to_dict(self) -> Dict:
        return {
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self.max_buckets,
            "sketches": {query_type: sketch.to_dict()
                         for query_type, sketch
                         in sorted(self.sketches.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LatencyRecorder":
        recorder = cls(relative_accuracy=payload["relative_accuracy"],
                       max_buckets=payload["max_buckets"])
        recorder.sketches = {
            query_type: LatencySketch.from_dict(sketch)
            for query_type, sketch in payload["sketches"].items()}
        return recorder

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LatencyRecorder types={sorted(self.sketches)} "
                f"n={sum(s.count for s in self.sketches.values())}>")
