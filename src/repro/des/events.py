"""Core event primitives for the discrete-event simulation kernel.

This module provides the event machinery that the rest of the simulator is
built on.  The design follows the classic process-interaction style (as in
DeNet, the simulation language used by the paper, or SimPy): simulation
processes are Python generators that ``yield`` events; the environment
resumes a process when the event it waits on is processed.

The public surface is:

* :class:`Event` -- a one-shot occurrence with a value or an exception.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Hold` -- a claim on a :class:`~repro.des.resources.Server`
  held for a fixed time (``Server.hold``).
* :class:`Process` -- a running generator; itself an event that fires when
  the generator terminates.
* :class:`AllOf` -- fires once all of several events have fired.

Besides events, a process may yield a bare number: ``yield 0.004``
sleeps that long without allocating a :class:`Timeout`.

Hot-path design
---------------
The kernel processes millions of events per figure, so the frequent paths
avoid work the original, more uniform design paid per event:

* Immediate deliveries (process bootstrap, callbacks registered on an
  already-processed event, the grant of a queued hold) are plain
  ``(time, seq, callback, argument)`` agenda entries instead of proxy
  :class:`Event` objects.  A dispatch entry consumes one agenda
  sequence number, exactly like the proxy event it replaces, so the
  event ordering -- and therefore every simulated result -- is
  bit-identical to the proxy-based design.
* :class:`Process` caches the bound ``_resume`` callback and the
  generator's ``send``/``throw`` methods once at creation; the original
  allocated a fresh bound method per yield.  The cached callback points
  back at its process, so it is dropped when the generator ends: a
  finished process is then freed by reference counting instead of
  waiting in a cycle for the cycle collector.
* A :class:`Hold` runs a whole service burst -- grant, service,
  release -- with one resume of the holder.
* :meth:`Event.succeed`, :meth:`Event.fail` and ``Timeout.__init__``
  push their agenda entry inline rather than via a method call; entries
  due now go to the environment's FIFO (``Environment._ready``), not
  its heap.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .environment import Environment

__all__ = [
    "Event",
    "Timeout",
    "Hold",
    "Process",
    "AllOf",
    "SimulationError",
    "AgendaEmptyError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class AgendaEmptyError(SimulationError):
    """The agenda ran dry while the run loop still awaited an event."""


# Sentinel distinguishing "no value yet" from an explicit ``None`` value.
_PENDING = object()


class _Outcome:
    """A successful no-value outcome for immediate dispatches.

    Quacks like a triggered :class:`Event` for the two fields
    :meth:`Process._resume` reads, without the agenda bookkeeping a real
    event carries.
    """

    __slots__ = ("_value", "_exception")

    def __init__(self):
        self._value = None
        self._exception = None


#: Delivered to a process when it starts and when it wakes from a
#: bare-number sleep; the generator receives ``None``, exactly as from
#: an untagged Timeout.
_WAKE = _Outcome()


class Event:
    """A one-shot simulation event.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it, scheduling it on the environment's agenda; when the
    environment processes it, every registered callback runs exactly once.

    Processes wait for events by yielding them.  The value passed to
    :meth:`succeed` becomes the value of the ``yield`` expression in the
    waiting process; an exception passed to :meth:`fail` is raised at the
    ``yield`` site.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event when it is processed.  ``None``
        #: once processed (guards against late registration bugs).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._processed = False

    # -- state predicates ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it is on the agenda)."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value.

        Raises :class:`SimulationError` when read before the event is
        triggered, and re-raises the failure exception for failed events.
        """
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* and return it."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        env = self.env
        env._seq += 1
        env._ready.append((env._now, env._seq, None, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* and return it."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._exception = exception
        self._value = None
        env = self.env
        env._seq += 1
        env._ready.append((env._now, env._seq, None, self))
        return self

    # -- internals -------------------------------------------------------

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs it via the agenda if already processed."""
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: deliver through the shared dispatch path
            # so the callback still runs from the event loop, never
            # re-entrantly.
            self.env._dispatch(callback, self)
        else:
            callbacks.append(callback)

    def _run_callbacks(self) -> None:
        """Invoked by the environment when the event is dequeued."""
        callbacks = self.callbacks
        self.callbacks = None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Timeouts are triggered immediately at construction time; the
    environment delivers them when the clock reaches ``now + delay``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inlined Event.__init__ plus the agenda push.
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._processed = False
        self.delay = delay
        env._seq += 1
        heappush(env._agenda, (env._now + delay, env._seq, None, self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay!r}>"


class Hold(Event):
    """A claim on a server held for a fixed ``duration``
    (``Server.hold``).

    ``wait = yield server.hold(d)`` does what ``req = server.request();
    yield req; yield d; server.release(req)`` does -- same agenda
    entries, busy-time integral and wait value -- but the holder is
    resumed once, after the release (:func:`_end_hold`).  A hold that
    finds the server free is granted in place and reserves its grant
    entry's sequence number; :meth:`Process._resume` pushes that entry,
    or elides it, when the hold is yielded.  A queued hold is granted by
    a ``(now, seq, _start_hold, hold)`` dispatch entry at the release
    that frees the server; it has no callback list.
    """

    __slots__ = ("resource", "enqueued_at", "duration", "_grant_seq",
                 "_resume_cb")


def _start_hold(hold: Hold) -> None:
    """Grant callback: hold the server for the hold's duration."""
    env = hold.env
    env._seq += 1
    heappush(env._agenda, (env._now + hold.duration, env._seq,
                           _end_hold, hold))


def _end_hold(hold: Hold) -> None:
    """Release the server, then resume the holder with the wait."""
    hold.resource.release(hold)
    resume = hold._resume_cb
    hold._resume_cb = None  # a finished hold refers to no process
    resume(hold)


class Process(Event):
    """A simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes.  Other processes can therefore wait
    for a process to finish simply by yielding it.  An exception escaping
    the generator is a bug in the model: it propagates out of
    :meth:`Environment.run <repro.des.environment.Environment.run>`.
    """

    __slots__ = ("_generator", "_send", "_throw", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bound-method caches: one allocation here instead of one per
        # resume (``_send``/``_throw``) and per wait registration
        # (``_resume_cb``).
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        # Kick off the process via the dispatch path so that creation has
        # no side effects until the event loop runs.
        env._dispatch(self._resume_cb, _WAKE)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return not self.triggered

    # -- generator stepping ----------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        env = self.env
        try:
            if event._exception is None:
                target = self._send(event._value)
            else:
                target = self._throw(event._exception)
        except StopIteration as stop:
            # The bound callback refers back to this process: dropping it
            # lets reference counting free the finished process.
            self._resume_cb = None
            self._value = stop.value
            env._seq += 1
            if self.callbacks:
                env._ready.append((env._now, env._seq, None, self))
            else:
                # Nobody is waiting (fire-and-forget processes: message
                # deliveries, per-query operator work, terminals).  The
                # sequence number is consumed exactly as if the
                # completion entry had been pushed -- every later entry
                # keeps the seq it would have had, so ordering is
                # untouched -- but the agenda round-trip is skipped and
                # the event settles to its processed state here.  A
                # late waiter lands on the ``callbacks is None``
                # dispatch path below, as for any processed event.
                self.callbacks = None
                self._processed = True
            return
        except BaseException as exc:
            # Fail fast: the exception leaves run(); the process keeps it
            # as its outcome.
            self._resume_cb = None
            self._exception = exc
            self._value = None
            raise

        if type(target) is Hold:
            target._resume_cb = self._resume_cb
            seq = target._grant_seq
            if seq:
                # Granted in place under a reserved sequence number.
                # Elide the grant entry when it would be popped next with
                # nothing pushed before it: nothing was pushed since
                # hold(), nothing is due now (no FIFO entry, no heap
                # entry at this instant), and neither a further callback
                # of this entry nor the end of run(until=event) comes
                # first.  A grant that is not elided joins the FIFO only
                # while its sequence number is still the newest;
                # otherwise later FIFO entries would precede it there.
                agenda = env._agenda
                now = env._now
                if seq == env._seq:
                    if (env._elide and not env._ready
                            and (not agenda or agenda[0][0] > now)
                            and not env._until._processed):
                        env._seq = seq = seq + 1
                        heappush(agenda, (now + target.duration, seq,
                                          _end_hold, target))
                    else:
                        env._ready.append((now, seq, _start_hold, target))
                else:
                    heappush(agenda, (now, seq, _start_hold, target))
            return

        # Bare sleep: yielding a plain float schedules the wake entry
        # directly -- no Timeout allocation, no callback registration,
        # and no event processing when the entry surfaces.  One sequence
        # number is consumed exactly as env.timeout() would consume it,
        # so agenda ordering is bit-identical.
        if type(target) is float:
            if target < 0.0:
                raise SimulationError(f"negative sleep delay {target!r}")
            env._seq += 1
            heappush(env._agenda,
                     (env._now + target, env._seq, self._resume_cb, _WAKE))
            return

        # Duck-typed instead of isinstance(): every yield pays for this
        # check, and non-events surface through the except below.
        try:
            callbacks = target.callbacks
            if target.env is not env:
                raise SimulationError(
                    "cannot wait on an event of another Environment")
        except AttributeError:
            if type(target) is int:  # integral delays take the slow lane
                if target < 0:
                    raise SimulationError(
                        f"negative sleep delay {target!r}") from None
                env._seq += 1
                heappush(env._agenda,
                         (env._now + target, env._seq, self._resume_cb,
                          _WAKE))
                return
            raise SimulationError(
                f"process yielded {target!r}, which is not an Event") from None
        if callbacks is None:
            env._dispatch(self._resume_cb, target)
        else:
            callbacks.append(self._resume_cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} alive={self.is_alive}>"


class AllOf(Event):
    """Fires when every constituent event has fired.

    Succeeds with the list of child values (in construction order).  Fails
    with the first child failure.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError(
                    "condition mixes events of different environments")
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
        else:
            for event in self._events:
                event._add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])
