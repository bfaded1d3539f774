"""Per-query trace spans.

Every traced query carries a :class:`QueryTrace`: a tree of
:class:`Span` intervals opened and closed as the query flows terminal ->
scheduler -> operator sites -> per-node CPU / disk / network.  Resource
acquisitions are recorded as *leaf* spans carrying a queue-wait /
service-time split, which is what the paper's §7 commentary is built
from (e.g. MAGIC's scheduler-CPU saturation at high multiprogramming
levels).

Closed spans are stored column-wise (56 bytes a span) and turned back
into records only on export (:meth:`SpanLog.entries`); the newest
``capacity`` spans are kept, and a running O(query types x resources)
aggregate keeps the "why" table whole past eviction.  The layout and the
eviction rule are described in ``docs/observability.md``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..des.environment import Environment

__all__ = ["Span", "QueryTrace", "SpanLog", "SPAN_KIND", "TraceEntry",
           "UnknownQueryError"]

#: The entry kind of every exported span.
SPAN_KIND = "span"

#: Column type codes: trace, span, parent (-1 for a root), interned
#: name, interned query type, start, end, wait, service (NaN for both
#: on a non-leaf span).
_COLUMNS = "qiiiidddd"
_NO_PARENT = -1
_NOT_A_LEAF = float("nan")

#: Pending values moved into the columns at once (4,096 rows).
_SPILL_VALUES = len(_COLUMNS) * 4096


@dataclass(frozen=True)
class TraceEntry:
    """One exported span: closing time, emit order, kind and fields."""

    time: float
    sequence: int
    kind: str
    details: Dict[str, Any]


class UnknownQueryError(KeyError):
    """Raised when ending a query whose trace was never begun.

    Subclasses :class:`KeyError` so callers that guarded the old bare
    ``active.pop`` failure keep working; the message names the query
    and the log's state instead of a bare id.
    """

    def __init__(self, query_id: int, active_traces: int):
        self.query_id = query_id
        self.active_traces = active_traces
        super().__init__(query_id)

    def __str__(self) -> str:
        return (f"cannot end query {self.query_id}: no active trace for "
                f"it ({self.active_traces} trace(s) currently active; "
                f"was begin() called, or was the trace already ended?)")


class Span:
    """One open interval in a query's trace tree."""

    __slots__ = ("trace", "span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, trace: "QueryTrace", span_id: int,
                 parent_id: Optional[int], name: str,
                 start: float, attrs: Dict[str, Any]):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name!r} id={self.span_id} "
                f"trace={self.trace.query_id} start={self.start:.6f}>")


class QueryTrace:
    """The span tree of one in-flight query.

    Spans are emitted to the backing :class:`SpanLog` when finished;
    the trace object itself only tracks open spans, so a finished query
    leaves nothing behind but log rows.
    """

    __slots__ = ("log", "query_id", "query_type", "root", "_next_span_id",
                 "_open", "_qtype_id")

    def __init__(self, log: "SpanLog", query_id: int, query_type: str):
        self.log = log
        self.query_id = query_id
        self.query_type = query_type
        self._qtype_id = log._ids.setdefault(query_type, len(log._ids))
        self._next_span_id = 0
        self._open: Dict[int, Span] = {}
        #: The root span; None once the trace is retired.
        self.root: Optional[Span] = self.start("query", parent=None)

    def start(self, name: str, parent: Optional[Span] = ...,
              **attrs: Any) -> Span:
        """Open a child span (default parent: the root span)."""
        if parent is ...:
            parent = self.root
        parent_id = parent.span_id if parent is not None else None
        span = Span(self, self._next_span_id, parent_id, name,
                    self.log.env.now, attrs)
        self._next_span_id += 1
        self._open[span.span_id] = span
        return span

    def finish(self, span: Span, **attrs: Any) -> None:
        """Close *span* at the current simulation time and emit it
        (during warm-up: just close it)."""
        self._open.pop(span.span_id, None)
        log = self.log
        if log.warming:
            return
        if attrs:
            span.attrs.update(attrs)
        parent_id = span.parent_id
        log._add((self.query_id, span.span_id,
                  _NO_PARENT if parent_id is None else parent_id,
                  log._ids.setdefault(span.name, len(log._ids)),
                  self._qtype_id, span.start, log.env.now, _NOT_A_LEAF,
                  _NOT_A_LEAF), span.attrs)

    def resource(self, parent: Optional[Span], resource: str,
                 wait: float, service: float, **attrs: Any) -> None:
        """Record one resource acquisition as a closed leaf span.

        ``wait`` is the time queued before the grant, ``service`` the
        time holding the resource; the leaf's interval is
        ``[now - wait - service, now]``.  During warm-up only the span
        id advances.
        """
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        log = self.log
        if log.warming:
            return
        now = log.env._now
        ids = log._ids
        name_id = ids.get(resource)
        if name_id is None:
            name_id = ids[resource] = len(ids)
        log._add((self.query_id, span_id,
                  parent.span_id if parent is not None else _NO_PARENT,
                  name_id, self._qtype_id, now - wait - service, now, wait,
                  service), attrs)
        by_resource = log.resource_totals.get(self.query_type)
        if by_resource is None:
            by_resource = log.resource_totals[self.query_type] = {}
        totals = by_resource.get(resource)
        if totals is None:
            by_resource[resource] = [wait, service, 1]
        else:
            totals[0] += wait
            totals[1] += service
            totals[2] += 1

    @property
    def open_spans(self) -> int:
        return len(self._open)


class SpanLog:
    """Collects the spans of every traced query of one simulation run."""

    def __init__(self, env: Environment, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.active: Dict[int, QueryTrace] = {}
        self.finished = 0
        #: Traces force-closed by :meth:`flush` at the end of a run.
        self.truncated = 0
        #: query type -> resource -> [wait_seconds, service_seconds, count]
        self.resource_totals: Dict[str, Dict[str, List[float]]] = {}
        #: Span name or query type -> its index in the name columns.
        self._ids: Dict[str, int] = {}
        #: True during a run's warm-up (set by ``GammaMachine.run``):
        #: spans that :meth:`reset` would drop are not captured at all.
        self.warming = False
        self._clear_columns()

    # -- trace lifecycle ---------------------------------------------------

    def begin(self, query_id: int, query_type: str) -> QueryTrace:
        """Open the trace (and root span) of one submitted query."""
        if query_id in self.active:
            raise ValueError(f"query {query_id} already being traced")
        trace = QueryTrace(self, query_id, query_type)
        self.active[query_id] = trace
        return trace

    def lookup(self, query_id: int) -> Optional[QueryTrace]:
        """The active trace of *query_id*, or None."""
        return self.active.get(query_id)

    def end(self, query_id: int) -> None:
        """Close the root span and retire the trace.

        Raises :class:`UnknownQueryError` if *query_id* has no active
        trace (never begun, or already ended).
        """
        trace = self.active.pop(query_id, None)
        if trace is None:
            raise UnknownQueryError(query_id, len(self.active))
        trace.finish(trace.root)
        # The root refers back to its trace; dropping it lets reference
        # counting free both.
        trace.root = None
        self.finished += 1

    def flush(self) -> int:
        """Close every span of every still-active trace (end of run).

        Queries in flight when the simulation stops would otherwise
        leave dangling leaves whose root was never emitted.  All their
        open spans are closed at the current time with a
        ``truncated=True`` attribute (children before the root, so the
        exported tree stays well-nested), and the number of truncated
        traces is returned.
        """
        flushed = 0
        for trace in list(self.active.values()):
            # Higher span ids opened later; closing them first keeps
            # emit order child-before-parent, with the root (id 0) last.
            for span in sorted(trace._open.values(),
                               key=lambda s: -s.span_id):
                trace.finish(span, truncated=True)
            trace.root = None
            flushed += 1
        self.active.clear()
        self.truncated += flushed
        return flushed

    # -- snapshotting ------------------------------------------------------

    def detach(self) -> "SpanLog":
        """Drop environment references (picklable, read-only snapshot).

        Finished spans, aggregates and counters survive; traces still
        active (there should be none after :meth:`flush`) are dropped,
        as their open spans reference the live environment.
        """
        self.env = None
        self.active.clear()
        self._spill()
        return self

    def __getstate__(self):
        state = self.__dict__.copy()
        state["env"] = None
        state["active"] = {}
        return state

    # -- storage ---------------------------------------------------------

    def _clear_columns(self) -> None:
        self._columns = tuple(array(code) for code in _COLUMNS)
        #: Rows not yet in the columns, flattened.
        self._pending: List[Any] = []
        #: Emit sequence number -> extra attributes of that span.
        self._extras: Dict[int, Dict[str, Any]] = {}
        self._emitted = 0

    def _add(self, row: tuple, extras: Dict[str, Any]) -> None:
        if extras:
            self._extras[self._emitted] = extras
        self._emitted += 1
        self._pending += row
        if len(self._pending) >= _SPILL_VALUES:
            self._spill()

    def _spill(self) -> None:
        """Move the pending rows into the columns, then evict the
        oldest rows beyond ``capacity``."""
        pending = self._pending
        retained = len(self._columns[0]) + len(pending) // len(_COLUMNS)
        evicted = max(retained - self.capacity, 0)
        for index, column in enumerate(self._columns):
            column.fromlist(pending[index::len(_COLUMNS)])
            del column[:evicted]
        pending.clear()
        first = self._emitted - len(self._columns[0])
        if self._extras and next(iter(self._extras)) < first:
            self._extras = {seq: extras for seq, extras
                            in self._extras.items() if seq >= first}

    def entries(self) -> Iterator[TraceEntry]:
        """All retained spans, oldest first; an entry's ``time`` is when
        its span closed."""
        self._spill()
        strings = list(self._ids)
        first = self._emitted - len(self._columns[0])
        for seq, (trace, span, parent, name, qtype, start, end, wait,
                  service) in enumerate(zip(*self._columns), first):
            details = {"trace": trace, "qtype": strings[qtype],
                       "span": span,
                       "parent": None if parent == _NO_PARENT else parent,
                       "name": strings[name], "start": start, "end": end}
            details.update(self._extras.get(seq, ()))
            if wait == wait:  # a leaf: non-leaf rows hold NaN
                details["resource"] = strings[name]
                details["wait"] = wait
                details["service"] = service
            yield TraceEntry(end, seq + 1, SPAN_KIND, details)

    def span_count(self) -> int:
        """Spans emitted so far (including any evicted by the bound)."""
        return self._emitted

    def reset(self) -> None:
        """Drop retained spans and aggregates (start of measurement window).

        Traces still in flight keep their open spans; only finished
        history is discarded.  Ends the warm-up.
        """
        self.warming = False
        self._clear_columns()
        self.resource_totals.clear()
        self.finished = 0
        self.truncated = 0
