"""The discrete-event simulation environment (event loop and clock).

:class:`Environment` owns the simulation clock and the agenda (a priority
queue of triggered events ordered by firing time).  It is deliberately
minimal -- the entire Gamma machine model in :mod:`repro.gamma` is built
from processes and servers running inside one environment.

Determinism
-----------
Two entries scheduled for the same instant are processed in the order
they were scheduled (FIFO tie-break via a monotonically increasing
sequence number).  Given the same seed for workload randomness, a
simulation run is exactly reproducible.

Agenda representation
---------------------
The agenda has two levels: a heap (``_agenda``) and a FIFO of entries
due now (``_ready``).  Every entry is ``(time, seq, callback,
argument)``, of one of two kinds:

* ``callback`` is ``None`` -- ``argument`` is a triggered :class:`Event`
  whose callbacks run when the entry is popped;
* otherwise an *immediate dispatch*: ``callback`` is invoked with
  ``argument`` directly, with no event object in between.  Process
  bootstraps, late callback registrations, bare-number sleeps and the
  grant and end of a hold use this path; it exists purely to avoid
  allocating proxy events on the hot path.

``seq`` is unique, so entries never compare beyond ``(time, seq)`` and
the processing order is identical to a proxy-event design.  The run
loop in :meth:`Environment.run` unpacks each entry and inlines the body
of ``Event._run_callbacks``, with the agenda and ``heappop`` bound
locally.

An entry pushed for the current instant under the newest sequence
number -- an event trigger, a dispatch, a Store wake-up, a release
grant, an in-place hold grant that is not elided -- is appended to
``_ready`` instead of the heap.  Such entries arrive in ``(time, seq)``
order, so the FIFO stays sorted without a heap round trip.  Zero-delay
sleeps and timeouts, end-of-hold entries and in-place grants whose
reserved sequence number is no longer the newest go to the heap.  Each
loop takes whichever of ``_ready[0]`` and ``_agenda[0]`` is smaller as a
whole tuple, so a heap entry due now with a lower ``seq`` still comes
first: the popped ``(time, seq)`` sequence is the one a single heap
gives.

Hold elision
------------
``Server.hold`` may push its end-of-hold entry without the grant entry
in between (:class:`~repro.des.events.Hold`).  That is exact only if the
grant entry would have been the very next entry popped with nothing
pushed before it -- no FIFO entry pending, no heap entry due now -- so
the run loop tells the kernel when it is not: the multi-callback branch
clears ``_elide`` while the further callbacks of an entry may still
push, the invariant-checked loop keeps it off, and ``_until`` holds the
event a ``run(until=event)`` stops at.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from .events import AgendaEmptyError, AllOf, Event, Process, Timeout

__all__ = ["Environment"]

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
    __slots__ = ("_now", "_agenda", "_ready", "_seq", "invariants",
                 "_elide", "_until")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._agenda: List[Tuple] = []
        #: Entries due now, in (time, seq) order (see the module docstring).
        self._ready: Deque[Tuple] = deque()
        self._seq = 0
        # Optional conservation-law observer (see repro.validation): when
        # attached, the event loop reports each popped entry's firing
        # time so the checker can assert clock monotonicity.
        self.invariants: Optional[Any] = None
        # Hold elision switches (see the module docstring).
        self._elide = False
        self._until = _NO_SENTINEL

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

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
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start *generator* as a simulation process."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that fires once all *events* have fired."""
        return AllOf(self, events)

    # -- agenda ---------------------------------------------------------------

    def _dispatch(self, callback: Callable[[Any], None],
                  argument: Any) -> None:
        """Schedule ``callback(argument)`` as an immediate agenda entry.

        The shared delivery path for process bootstraps and callbacks
        registered on already-processed events: one FIFO entry, no proxy
        event.  Consumes a sequence number exactly like an event entry,
        preserving the deterministic ordering contract.
        """
        self._seq += 1
        self._ready.append((self._now, self._seq, callback, argument))

    def peek(self) -> float:
        """Time of the next agenda entry, or ``inf`` when the agenda is empty."""
        if self._ready:
            # FIFO entries are due now; no heap entry is earlier.
            return self._ready[0][0]
        return self._agenda[0][0] if self._agenda else float("inf")

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

        An attached invariant checker is honoured by
        :meth:`_run_checked` (checked once at entry: checkers are
        attached before the run starts); without one, each loop below
        inlines ``Event._run_callbacks`` with the agenda and ``heappop``
        bound locally, and pops the smaller of the FIFO's and the heap's
        first entries.
        """
        if self.invariants is not None:
            return self._run_checked(until)

        pop = heappop
        agenda = self._agenda
        ready = self._ready
        popleft = ready.popleft
        self._elide = True
        if until is None or isinstance(until, Event):
            sentinel = self._until = (_NO_SENTINEL if until is None
                                      else until)
            while not sentinel._processed:
                if ready:
                    if agenda and agenda[0] < ready[0]:
                        self._now, _, fn, arg = pop(agenda)
                    else:
                        self._now, _, fn, arg = popleft()
                elif agenda:
                    self._now, _, fn, arg = pop(agenda)
                elif until is None:
                    return None
                else:
                    raise AgendaEmptyError(
                        "simulation agenda ran dry before the awaited event fired")
                if fn is None:
                    callbacks = arg.callbacks
                    arg.callbacks = None
                    arg._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](arg)
                        else:
                            self._elide = False
                            for callback in callbacks:
                                callback(arg)
                            self._elide = True
                else:
                    fn(arg)
            return sentinel.value

        horizon = self._horizon(until)
        self._until = _NO_SENTINEL
        while True:
            # FIFO entries are due now, so never past the horizon.
            if ready:
                if agenda and agenda[0] < ready[0]:
                    self._now, _, fn, arg = pop(agenda)
                else:
                    self._now, _, fn, arg = popleft()
            elif agenda and agenda[0][0] <= horizon:
                self._now, _, fn, arg = pop(agenda)
            else:
                break
            if fn is None:
                callbacks = arg.callbacks
                arg.callbacks = None
                arg._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](arg)
                    else:
                        self._elide = False
                        for callback in callbacks:
                            callback(arg)
                        self._elide = True
            else:
                fn(arg)
        self._now = horizon
        return None

    def _horizon(self, until: Any) -> float:
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run until {horizon!r}, now is {self._now!r}")
        return horizon

    def _run_checked(self, until: Optional[Any]) -> Any:
        """The :meth:`run` semantics with the invariant checker told of
        every entry, one entry at a time and without hold elision.

        Only used when a checker is attached (``--check-invariants``,
        ``repro validate``): correctness instrumentation already costs
        far more than a method frame per event, so this path favours
        the obvious formulation.
        """
        self._elide = False
        agenda = self._agenda
        ready = self._ready
        on_event = self.invariants.on_event
        awaited = isinstance(until, Event)
        horizon = (float("inf") if until is None or awaited
                   else self._horizon(until))
        while not (awaited and until._processed):
            if ready and not (agenda and agenda[0] < ready[0]):
                entry = ready.popleft()
            elif agenda and agenda[0][0] <= horizon:
                entry = heappop(agenda)
            else:
                break
            when, seq, callback, argument = entry
            on_event(when, self._now, seq)
            self._now = when
            if callback is None:
                argument._run_callbacks()
            else:
                callback(argument)
        if awaited:
            if not until._processed:
                raise AgendaEmptyError(
                    "simulation agenda ran dry before the awaited event fired")
            return until.value
        if until is not None:
            self._now = horizon
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Environment now={self._now!r} "
                f"agenda={len(self._agenda) + len(self._ready)}>")
