"""The discrete-event simulation environment (event loop and clock).

:class:`Environment` owns the simulation clock and the agenda (a priority
queue of triggered events ordered by firing time).  It is deliberately
minimal -- the entire Gamma machine model in :mod:`repro.gamma` is built
from processes and resources running inside one environment.

Determinism
-----------
Two events scheduled for the same instant are processed in the order they
were scheduled (FIFO tie-break via a monotonically increasing sequence
number), with an optional integer *priority* that lets urgent work (e.g.
the disk DMA transfers of the paper's CPU model) jump ahead of same-time
normal events.  Given the same seed for workload randomness, a simulation
run is exactly reproducible.

Agenda representation
---------------------
The agenda holds two kinds of heap entries, discriminated by length:

* ``(time, priority, seq, event)`` -- a triggered :class:`Event` whose
  callbacks run when the entry is popped;
* ``(time, priority, seq, callback, argument)`` -- an *immediate
  dispatch* scheduled via :meth:`Environment._dispatch`: ``callback``
  is invoked with ``argument`` directly, with no event object in
  between.  Process bootstraps, interrupts and late callback
  registrations use this path; it exists purely to avoid allocating
  proxy events on the hot path.

Both entry kinds share the same ``(time, priority, seq)`` ordering key,
and ``seq`` is unique, so mixed entries never compare beyond the key and
the processing order is identical to a proxy-event design.  The run
loops in :meth:`Environment.run` inline the body of :meth:`step` with
the agenda and ``heappop`` bound locally -- worth ~10% of the event loop
on its own; :meth:`step` remains the single-event public API.

Hold elision
------------
``Resource.hold`` may push its end-of-hold entry without the grant entry
in between (:class:`~repro.des.events.Hold`).  That is exact only if the
grant entry would have been the very next entry popped with nothing
pushed before it, so the run loops tell the kernel when it is not: the
multi-callback branch clears ``_elide`` while the further callbacks of
an entry may still push, :meth:`step` clears it for good (the caller
may push between steps), and ``_until`` holds the event a
``run(until=event)`` stops at.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import (
    NORMAL,
    URGENT,
    AgendaEmptyError,
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Timeout,
)

__all__ = ["Environment", "URGENT", "NORMAL"]

#: ``Environment._until`` outside ``run(until=event)``: never processed.
_NO_SENTINEL = Event(None)


class Environment:
    """A discrete-event simulation environment.

    Example
    -------
    >>> env = Environment()
    >>> def clock(env, results):
    ...     while env.now < 3:
    ...         results.append(env.now)
    ...         yield env.timeout(1)
    >>> ticks = []
    >>> _ = env.process(clock(env, ticks))
    >>> env.run()
    >>> ticks
    [0, 1, 2]
    """

    # The clock, agenda and sequence counter are read and written on
    # every scheduled entry; __slots__ turns those into fixed-offset
    # loads instead of instance-dict lookups.
    __slots__ = ("_now", "_agenda", "_seq", "_active_process",
                 "invariants", "_tolerate_process_failures", "_elide",
                 "_until")

    def __init__(self, initial_time: float = 0.0,
                 tolerate_process_failures: bool = False):
        self._now = float(initial_time)
        self._agenda: List[Tuple] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Optional conservation-law observer (see repro.validation): when
        # attached, the event loop reports each popped entry's firing
        # time so the checker can assert clock monotonicity.  None costs
        # one attribute load per event.
        self.invariants: Optional[Any] = None
        # When True, a process that dies with an unhandled exception fails
        # its Process event instead of crashing the whole simulation --
        # failure-injection experiments wait on the Process event and
        # observe the exception.  The Gamma model keeps the default
        # (False): a crashing component is a bug and should surface
        # immediately.
        self._tolerate_process_failures = bool(tolerate_process_failures)
        # Hold elision switches (see the module docstring).
        self._elide = False
        self._until = _NO_SENTINEL

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total agenda entries scheduled so far (the throughput unit)."""
        return self._seq

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires *delay* time units from now."""
        # Timeout.__init__ inlined (one frame instead of a class call
        # plus __init__): this factory runs once per simulated service
        # burst.  The Timeout constructor stays equivalent for direct
        # instantiation.
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._exception = None
        timeout._processed = False
        timeout.delay = delay
        self._seq += 1
        heappush(self._agenda,
                 (self._now + delay, NORMAL, self._seq, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Start *generator* as a simulation process."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that fires once all *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that fires once any of *events* has fired."""
        return AnyOf(self, events)

    # -- agenda ---------------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Place a triggered *event* on the agenda ``delay`` from now."""
        self._seq += 1
        heappush(self._agenda, (self._now + delay, priority, self._seq, event))

    def _dispatch(self, callback: Callable[[Any], None],
                  argument: Any) -> None:
        """Schedule ``callback(argument)`` as an immediate agenda entry.

        The shared delivery path for process bootstraps, interrupts and
        callbacks registered on already-processed events: one heap entry,
        no proxy event.  Consumes a sequence number exactly like an event
        entry, preserving the deterministic ordering contract.
        """
        self._seq += 1
        heappush(self._agenda,
                 (self._now, NORMAL, self._seq, callback, argument))

    def schedule_urgent(self, event: Event, delay: float = 0.0) -> None:
        """Trigger *event* (successfully, no value) with URGENT priority."""
        if event.triggered:
            raise SimulationError(f"{event!r} has already been triggered")
        event._value = None
        self._enqueue(event, delay=delay, priority=URGENT)

    def peek(self) -> float:
        """Time of the next agenda entry, or ``inf`` when the agenda is empty."""
        return self._agenda[0][0] if self._agenda else float("inf")

    def step(self) -> None:
        """Process exactly one agenda entry.

        Raises :class:`IndexError` when the agenda is empty.
        """
        self._elide = False
        entry = heappop(self._agenda)
        when = entry[0]
        if self.invariants is not None:
            self.invariants.on_event(when, self._now)
        self._now = when
        if len(entry) == 4:
            entry[3]._run_callbacks()
        else:
            entry[3](entry[4])

    # -- run loops --------------------------------------------------------------

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until the agenda is exhausted;
        * a number -- run until the clock reaches that time (the clock is
          left exactly at ``until``);
        * an :class:`Event` -- run until that event has been processed and
          return its value (re-raising its exception if it failed).

        Raises :class:`AgendaEmptyError` when the agenda runs dry before
        an awaited event fires.

        An attached invariant checker is honoured via the generic
        :meth:`step` loop (checked once at entry: checkers are attached
        before the run starts); without one, each branch below is the
        body of step() *and* of ``Event._run_callbacks`` inlined into a
        tight loop with the agenda and ``heappop`` bound locally.  The
        two method frames this removes per event are measurable at
        millions of events per figure.
        """
        if self.invariants is not None:
            return self._run_checked(until)

        pop = heappop
        agenda = self._agenda
        self._elide = True
        self._until = _NO_SENTINEL
        if until is None:
            while agenda:
                entry = pop(agenda)
                self._now = entry[0]
                if len(entry) == 4:
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            self._elide = False
                            for callback in callbacks:
                                callback(event)
                            self._elide = True
                else:
                    entry[3](entry[4])
            return None

        if isinstance(until, Event):
            sentinel = self._until = until
            while not sentinel._processed:
                if not agenda:
                    raise AgendaEmptyError(
                        "simulation agenda ran dry before the awaited event fired")
                entry = pop(agenda)
                self._now = entry[0]
                if len(entry) == 4:
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            self._elide = False
                            for callback in callbacks:
                                callback(event)
                            self._elide = True
                else:
                    entry[3](entry[4])
            return sentinel.value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run until {horizon!r}, now is {self._now!r}")
        while agenda and agenda[0][0] <= horizon:
            entry = pop(agenda)
            self._now = entry[0]
            if len(entry) == 4:
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._elide = False
                        for callback in callbacks:
                            callback(event)
                        self._elide = True
            else:
                entry[3](entry[4])
        self._now = horizon
        return None

    def _run_checked(self, until: Optional[Any]) -> Any:
        """The :meth:`run` semantics via :meth:`step`, invariants active.

        Only used when a checker is attached (``--check-invariants``,
        ``repro validate``): correctness instrumentation already costs
        far more than a method frame per event, so this path favours
        the obvious formulation.
        """
        if until is None:
            while self._agenda:
                self.step()
            return None
        if isinstance(until, Event):
            while not until._processed:
                if not self._agenda:
                    raise AgendaEmptyError(
                        "simulation agenda ran dry before the awaited event fired")
                self.step()
            return until.value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run until {horizon!r}, now is {self._now!r}")
        while self._agenda and self._agenda[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self._now!r} agenda={len(self._agenda)}>"
