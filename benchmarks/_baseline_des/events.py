"""Core event primitives for the discrete-event simulation kernel.

This module provides the event machinery that the rest of the simulator is
built on.  The design follows the classic process-interaction style (as in
DeNet, the simulation language used by the paper, or SimPy): simulation
processes are Python generators that ``yield`` events; the environment
resumes a process when the event it waits on is processed.

The public surface is:

* :class:`Event` -- a one-shot occurrence with a value or an exception.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- a running generator; itself an event that fires when
  the generator terminates.
* :class:`AllOf` / :class:`AnyOf` -- condition events over several events.
* :class:`Interrupted` -- exception thrown into an interrupted process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .environment import Environment

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupted",
    "SimulationError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupted(SimulationError):
    """Thrown into a process that has been interrupted.

    The optional *cause* describes why the interrupt happened and is
    available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "no value yet" from an explicit ``None`` value.
_PENDING = object()


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
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.env._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* and return it."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._exception = exception
        self._value = None
        self.env._enqueue(self)
        return self

    # -- internals -------------------------------------------------------

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs it via the agenda if already processed."""
        if self.callbacks is None:
            # Already processed: deliver on a fresh immediate event so the
            # callback still runs from the event loop, never re-entrantly.
            proxy = Event(self.env)
            proxy._value = self._value
            proxy._exception = self._exception
            proxy.callbacks.append(lambda _e: callback(self))
            self.env._enqueue(proxy)
        else:
            self.callbacks.append(callback)

    def _run_callbacks(self) -> None:
        """Invoked by the environment when the event is dequeued."""
        callbacks, self.callbacks = self.callbacks, None
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
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._enqueue(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay!r}>"


class Hold:
    """Forward-compat shim, not part of the original kernel: what
    ``Resource.hold(d)`` returns here, a request and the time to hold
    it.  The shared model source now claims every server with
    ``wait = yield res.hold(d)``; :class:`Process` waits for the grant,
    then on a ``Timeout`` of ``d``, then releases -- the request, timeout
    and release the pre-change model made per service burst, so the
    baseline keeps its original per-burst cost profile."""

    __slots__ = ("request", "duration")

    def __init__(self, request: Event, duration: float):
        self.request = request
        self.duration = duration


class Process(Event):
    """A simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception the
    generator raised.  Other processes can therefore wait for a process to
    finish simply by yielding it.
    """

    __slots__ = ("_generator", "_waiting_on", "_hold")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process via an immediate event so that creation has
        # no side effects until the event loop runs.
        bootstrap = Event(env)
        bootstrap._value = None
        bootstrap._add_callback(self._resume)
        env._enqueue(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its current yield.

        Interrupting a finished process is an error.  The event the process
        was waiting on remains pending; its eventual value is discarded for
        this process.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        # Deliver the interrupt through the agenda to keep the kernel
        # non-reentrant.
        proxy = Event(self.env)
        proxy._exception = Interrupted(cause)
        proxy._value = None
        proxy.callbacks.append(self._resume)
        self.env._enqueue(proxy)

    # -- generator stepping ----------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        self._waiting_on = None
        self.env._active_process = self
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._value = stop.value
            self.env._enqueue(self)
            return
        except Interrupted as exc:
            # An unhandled interrupt terminates the process as failed.
            self._exception = exc
            self._value = None
            self.env._enqueue(self)
            return
        except BaseException as exc:
            self._exception = exc
            self._value = None
            self.env._enqueue(self)
            if not self.env._tolerate_process_failures:
                raise
            return
        finally:
            self.env._active_process = None

        if not isinstance(target, Event):
            # Forward-compat shim, not part of the original kernel: the
            # shared model source now sleeps by yielding bare floats.
            # Waiting on a freshly scheduled Timeout is exactly what the
            # pre-change model did per service burst (env.timeout() call,
            # Timeout allocation, callback registration, event processing
            # on pop), so the baseline measurement keeps its original
            # per-sleep cost profile.
            if isinstance(target, (int, float)) and not isinstance(target, bool):
                target = self.env.timeout(target)
            elif type(target) is Hold:
                self._hold = target
                self._waiting_on = target.request
                target.request._add_callback(self._hold_granted)
                return
            else:
                raise SimulationError(
                    f"process yielded {target!r}, which is not an Event")
        if target.env is not self.env:
            raise SimulationError("cannot wait on an event of another Environment")
        self._waiting_on = target
        target._add_callback(self._resume)

    def _hold_granted(self, request: Event) -> None:
        """Hold shim: serve for the duration; the timeout carries the
        grant's wait to the generator."""
        timeout = self.env.timeout(self._hold.duration, request._value)
        self._waiting_on = timeout
        timeout._add_callback(self._hold_served)

    def _hold_served(self, timeout: Event) -> None:
        """Hold shim: release the server, then resume the generator."""
        hold, self._hold = self._hold, None
        hold.request.resource.release(hold.request)
        self._resume(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} alive={self.is_alive}>"


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition mixes events of different environments")
        self._remaining = len(self._events)
        if self._remaining == 0:
            self._value = self._collect()
            env._enqueue(self)
        else:
            for event in self._events:
                event._add_callback(self._on_child)

    def _collect(self) -> List[Any]:
        return [e._value for e in self._events if e.triggered and e.ok]

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    Succeeds with the list of child values (in construction order).  Fails
    with the first child failure.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first constituent event fires.

    Succeeds with that event's value; fails if the first event to fire
    failed.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event._value)
        else:
            self.fail(event._exception)
