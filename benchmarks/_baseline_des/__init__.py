"""A small discrete-event simulation kernel (the DeNet substitute).

The paper built its simulator in the DeNet simulation language [Liv88];
this package provides the equivalent substrate in pure Python:
process-interaction simulation with generator coroutines, FCFS and
priority resources, FIFO stores, and measurement instruments.

Typical use::

    from repro.des import Environment

    env = Environment()

    def customer(env, server):
        with server.request() as req:
            yield req
            yield env.timeout(1.5)

    from repro.des import Resource
    server = Resource(env, capacity=1)
    env.process(customer(env, server))
    env.run()
"""

from .environment import Environment, NORMAL, URGENT
from .events import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import TallyMonitor, TimeWeightedMonitor, UtilizationMonitor
from .resources import PriorityResource, Request, Resource, Server, Store
from .trace import TraceEntry, Tracer

__all__ = [
    "Environment",
    "NORMAL",
    "URGENT",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupted",
    "SimulationError",
    "Resource",
    "PriorityResource",
    "Server",
    "Request",
    "Store",
    "TallyMonitor",
    "TimeWeightedMonitor",
    "UtilizationMonitor",
    "Tracer",
    "TraceEntry",
]
