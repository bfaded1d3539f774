"""A small discrete-event simulation kernel (the DeNet substitute).

The paper built its simulator in the DeNet simulation language [Liv88];
this package provides the equivalent substrate in pure Python:
process-interaction simulation with generator coroutines, one-unit
priority servers, FIFO stores, and measurement instruments.

A process is a generator.  It may yield an event (a :class:`Timeout`,
a :class:`Store` get, another :class:`Process`, an :class:`AllOf`), a
bare number of seconds to sleep, or a :meth:`Server.hold` claim, which
resumes it after the server has served it for the given time::

    from repro.des import Environment, Server

    env = Environment()
    server = Server(env)

    def customer(env, server):
        yield 0.5                       # arrive
        wait = yield server.hold(1.5)   # queue, then 1.5 s of service

    env.process(customer(env, server))
    env.run()

Agenda entries are ``(time, seq, callback, argument)``, with ``callback``
``None`` for an event; same-time entries run in the order they were
scheduled.
"""

from .environment import Environment
from .events import (
    AgendaEmptyError,
    AllOf,
    Event,
    Hold,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import TallyMonitor, TimeWeightedMonitor
from .resources import Request, Server, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Hold",
    "Process",
    "AllOf",
    "SimulationError",
    "AgendaEmptyError",
    "Server",
    "Request",
    "Store",
    "TallyMonitor",
    "TimeWeightedMonitor",
]
