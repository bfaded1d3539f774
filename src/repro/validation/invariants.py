"""Runtime conservation-law enforcement for the simulator.

The :class:`InvariantChecker` is an opt-in observer threaded through the
DES kernel (:mod:`repro.des.environment`) and the Gamma machine
(:mod:`repro.gamma`).  Every hook is a pure bookkeeping update -- no
events are scheduled, no resources touched, no randomness consumed --
so a run with the checker attached is bit-identical to one without it
(asserted by the suite for every figure config).

Invariants enforced
-------------------
``clock.monotone``
    The event loop never steps backwards: each popped agenda entry
    fires at a time >= the current clock.
``agenda.order``
    Popped agenda entries come out in strictly increasing
    ``(time, seq)`` order, across the kernel's heap and its FIFO of
    entries due now -- the order one correct heap gives.
``query.termination``
    Every issued query terminates exactly once -- a second completion
    of the same query id, or a completion for a query that was never
    issued, violates immediately; at end of run
    ``issued == terminated + in-flight`` must balance.
``messages.conservation``
    Deliveries never exceed sends; once the agenda drains, every sent
    message has been delivered (messages are not lost in flight).
``resource.busy_time``
    For every watched resource (CPUs, disks), cumulative busy time
    since the measurement window opened never exceeds the elapsed
    simulated time (unit capacity: a resource cannot be more than 100%
    busy).  One in-flight burst straddling the window reset books its
    full service time into the window, so the check allows a single
    burst of slack (:data:`BOUNDARY_BURST_SLACK_SECONDS`) -- far below
    what any systematic double-counting bug would produce over a
    measured window.
``buffer.conservation`` / ``buffer.capacity``
    For every buffer pool, pages admitted minus pages evicted equals
    the pages currently resident, and residency never exceeds the
    configured capacity.

Violations raise a structured :class:`InvariantViolation` carrying the
invariant name, the simulation time, and the offending entity (query
id, resource name, ...) so the failing run is diagnosable without a
debugger.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = ["InvariantChecker", "InvariantViolation"]

#: Slack for floating-point busy-time accumulation (seconds).
BUSY_TIME_EPSILON = 1e-6

#: Busy-time counters credit a burst's whole service on completion, so
#: one burst in flight when the measurement window opens is charged to
#: the window entirely.  The longest single burst in the model (the
#: result-processing CPU burst of a moderate QB selection) is ~30 ms;
#: 100 ms of slack absorbs any boundary straddle while a double-count
#: bug still trips the check within one measured second.
BOUNDARY_BURST_SLACK_SECONDS = 0.1


class InvariantViolation(AssertionError):
    """A simulation conservation law was broken.

    Attributes
    ----------
    invariant:
        Dotted invariant name (e.g. ``"query.termination"``).
    context:
        Structured details: simulation time, query id, resource name,
        observed vs. expected quantities -- whatever identifies the
        offending entity.
    """

    def __init__(self, invariant: str, message: str,
                 context: Optional[Dict[str, Any]] = None):
        self.invariant = invariant
        self.context = dict(context or {})
        detail = ", ".join(f"{k}={v!r}" for k, v in
                           sorted(self.context.items()))
        super().__init__(f"[{invariant}] {message}"
                         + (f" ({detail})" if detail else ""))


class InvariantChecker:
    """Collects conservation-law evidence during one simulation run.

    Create one checker per :class:`~repro.gamma.machine.GammaMachine`
    and pass it as the machine's ``invariants`` argument; the machine
    threads it through the environment, scheduler, network, nodes and
    buffer pools.  All hooks tolerate being called before
    :meth:`begin_window` (warm-up phase).

    Parameters
    ----------
    raise_on_violation:
        When True (default) the first violation raises
        :class:`InvariantViolation`; when False violations accumulate
        in :attr:`violations` for reporting.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, ``invariants.checks`` / ``invariants.violations``
        counters are maintained there.
    """

    def __init__(self, raise_on_violation: bool = True, registry=None):
        self.raise_on_violation = bool(raise_on_violation)
        self.violations: List[InvariantViolation] = []
        self.checks: Dict[str, int] = {}
        self._issued: Set[int] = set()
        self._terminated: Set[int] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self._resources: List[Tuple[str, Callable[[], float]]] = []
        self._buffers: List[Tuple[str, Any]] = []
        self._in_flight_fn: Optional[Callable[[], int]] = None
        self._env = None
        self._last_popped: Tuple[float, int] = (float("-inf"), 0)
        self._window_start = 0.0
        self._checks_counter = None
        self._violations_counter = None
        if registry is not None:
            self.bind_registry(registry)

    # -- wiring ------------------------------------------------------------

    def bind_registry(self, registry) -> "InvariantChecker":
        """Mirror check/violation counts into a metrics registry."""
        self._checks_counter = registry.counter("invariants.checks")
        self._violations_counter = registry.counter("invariants.violations")
        return self

    def attach_environment(self, env) -> None:
        """Observe *env*'s event loop (clock monotonicity)."""
        self._env = env
        env.invariants = self

    def watch_resource(self, name: str,
                       busy_seconds: Callable[[], float]) -> None:
        """Register a unit-capacity resource's busy-time accumulator."""
        self._resources.append((name, busy_seconds))

    def watch_buffer(self, name: str, pool) -> None:
        """Register a :class:`~repro.gamma.buffer.BufferPool`."""
        self._buffers.append((name, pool))

    def watch_in_flight(self, in_flight: Callable[[], int]) -> None:
        """Register the scheduler's in-flight query count."""
        self._in_flight_fn = in_flight

    def begin_window(self, now: float) -> None:
        """Mark the measurement-window boundary (stats were reset)."""
        self._window_start = float(now)

    # -- hot-path hooks (bookkeeping only; no simulation side effects) -----

    def on_event(self, when: float, now: float, seq: int) -> None:
        """Called by ``Environment._run_checked`` for each popped entry
        (firing time *when*, sequence number *seq*) before the clock
        advances from *now*."""
        self._count("clock.monotone")
        if when < now:
            self._violate("clock.monotone",
                          "event scheduled in the past",
                          {"event_time": when, "clock": now})
        self._count("agenda.order")
        popped = (when, seq)
        if popped <= self._last_popped:
            last_time, last_seq = self._last_popped
            self._violate("agenda.order",
                          "agenda entry popped out of (time, seq) order",
                          {"event_time": when, "seq": seq,
                           "previous_time": last_time,
                           "previous_seq": last_seq})
        self._last_popped = popped

    def on_query_issued(self, query_id: int, query_type: str,
                        now: float) -> None:
        self._count("query.termination")
        if query_id in self._issued:
            self._violate("query.termination",
                          "query id issued twice",
                          {"query_id": query_id, "query_type": query_type,
                           "time": now})
        self._issued.add(query_id)

    def on_query_terminated(self, query_id: int, now: float) -> None:
        self._count("query.termination")
        if query_id not in self._issued:
            self._violate("query.termination",
                          "termination of a query that was never issued",
                          {"query_id": query_id, "time": now})
        elif query_id in self._terminated:
            self._violate("query.termination",
                          "query terminated twice",
                          {"query_id": query_id, "time": now})
        self._terminated.add(query_id)

    def on_message_sent(self, src: int, dst: int) -> None:
        self.messages_sent += 1

    def on_message_delivered(self, dst: int) -> None:
        self.messages_delivered += 1
        self._count("messages.conservation")
        if self.messages_delivered > self.messages_sent:
            self._violate("messages.conservation",
                          "more messages delivered than sent",
                          {"sent": self.messages_sent,
                           "delivered": self.messages_delivered,
                           "node": dst})

    # -- end-of-run audit ---------------------------------------------------

    def finalize(self) -> None:
        """Check the end-of-run balances; call after the run completes."""
        now = self._env.now if self._env is not None else 0.0
        elapsed = now - self._window_start

        self._count("query.termination")
        in_flight = (self._in_flight_fn() if self._in_flight_fn is not None
                     else 0)
        issued, terminated = len(self._issued), len(self._terminated)
        if issued != terminated + in_flight:
            self._violate("query.termination",
                          "issued queries do not balance terminations "
                          "plus in-flight queries",
                          {"issued": issued, "terminated": terminated,
                           "in_flight": in_flight, "time": now})

        self._count("messages.conservation")
        drained = self._env is None or self._env.peek() == float("inf")
        if drained and self.messages_sent != self.messages_delivered:
            self._violate("messages.conservation",
                          "agenda drained with undelivered messages",
                          {"sent": self.messages_sent,
                           "delivered": self.messages_delivered,
                           "time": now})

        allowance = elapsed + BOUNDARY_BURST_SLACK_SECONDS
        for name, busy_seconds in self._resources:
            self._count("resource.busy_time")
            busy = busy_seconds()
            if busy > allowance + BUSY_TIME_EPSILON:
                self._violate("resource.busy_time",
                              "resource busier than the elapsed window",
                              {"resource": name, "busy_seconds": busy,
                               "elapsed_seconds": elapsed, "time": now})

        for name, pool in self._buffers:
            self._count("buffer.conservation")
            resident = len(pool)
            balance = pool.admitted_total - pool.evicted_total
            if balance != resident:
                self._violate("buffer.conservation",
                              "admitted minus evicted pages do not equal "
                              "resident pages",
                              {"buffer": name,
                               "admitted": pool.admitted_total,
                               "evicted": pool.evicted_total,
                               "resident": resident, "time": now})
            self._count("buffer.capacity")
            if resident > pool.capacity:
                self._violate("buffer.capacity",
                              "buffer pool over capacity",
                              {"buffer": name, "resident": resident,
                               "capacity": pool.capacity, "time": now})

    # -- reporting ---------------------------------------------------------

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly account of what was checked and what failed."""
        return {
            "checks": dict(sorted(self.checks.items())),
            "total_checks": self.total_checks,
            "violations": [
                {"invariant": v.invariant, "message": str(v),
                 "context": v.context}
                for v in self.violations],
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "queries_issued": len(self._issued),
            "queries_terminated": len(self._terminated),
        }

    # -- internals ---------------------------------------------------------

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1
        if self._checks_counter is not None:
            self._checks_counter.inc()

    def _violate(self, invariant: str, message: str,
                 context: Dict[str, Any]) -> None:
        violation = InvariantViolation(invariant, message, context)
        self.violations.append(violation)
        if self._violations_counter is not None:
            self._violations_counter.inc()
        if self.raise_on_violation:
            raise violation
