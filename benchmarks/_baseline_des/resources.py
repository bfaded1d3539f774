"""Shared resources for simulation processes.

Three primitives cover everything the Gamma model needs:

* :class:`Resource` -- a server pool with FCFS queueing (the disk arm, a
  network wire).
* :class:`PriorityResource` -- FCFS within priority classes; lower numbers
  are served first.  The paper's CPU is "FCFS non-preemptive ... except for
  byte transfers to/from the disk's FIFO buffer": we model that by granting
  DMA transfers a higher priority class, so they are served ahead of any
  queued normal work without preempting the request in service.
* :class:`Store` -- an unbounded FIFO of items with blocking ``get``; the
  message queue of every manager process.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .environment import Environment
from .events import Event, Hold, SimulationError
from .monitor import UtilizationMonitor

__all__ = ["Request", "Resource", "PriorityResource", "Server", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager so that the resource is always released::

        with cpu.request() as req:
            yield req            # wait for the grant
            yield env.timeout(service_time)
        # released here
    """

    __slots__ = ("resource", "priority", "enqueued_at")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.enqueued_at = resource.env.now

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    @property
    def wait_time(self) -> float:
        """Time spent queued before the grant (valid once granted)."""
        return self.value  # the grant value is the wait duration


class Resource:
    """A pool of ``capacity`` identical servers with FCFS queueing."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        # Monitoring hooks (populated lazily by des.monitor.UtilizationMonitor).
        self.monitor = None

    # -- public API -------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim one server; the returned event fires when granted."""
        req = Request(self, priority)
        self._enqueue(req)
        self._grant_next()
        return req

    def hold(self, duration: float, priority: int = 0) -> Hold:
        """Forward-compat shim (see :class:`~.events.Hold`): claim one
        server for *duration*, then release it."""
        return Hold(self.request(priority), duration)

    def release(self, request: Request) -> None:
        """Return the server held by *request* to the pool.

        Releasing an ungranted request cancels it (removes it from the
        queue); releasing twice is an error.
        """
        if request in self._users:
            self._users.remove(request)
            self._note_change()
            self._grant_next()
        elif self._discard(request):
            pass
        elif request.triggered:
            raise SimulationError("request released twice")
        else:  # pragma: no cover - defensive
            raise SimulationError("request does not belong to this resource")

    # -- queue discipline (overridden by PriorityResource) -----------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _pop_next(self) -> Optional[Request]:
        return self._queue.popleft() if self._queue else None

    def _discard(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
            return True
        except ValueError:
            return False

    # -- internals ----------------------------------------------------------

    def _grant_next(self) -> None:
        while len(self._users) < self.capacity:
            nxt = self._pop_next()
            if nxt is None:
                break
            self._users.append(nxt)
            nxt.succeed(self.env.now - nxt.enqueued_at)
            self._note_change()

    def _note_change(self) -> None:
        if self.monitor is not None:
            self.monitor.observe(self.env.now, len(self._users))


class PriorityResource(Resource):
    """A :class:`Resource` serving lower ``priority`` values first.

    Within one priority class the discipline remains FCFS.  Grants are
    non-preemptive: an in-service request always completes.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._pqueue: List[Tuple[int, int, Request]] = []
        self._pseq = 0

    def _enqueue(self, request: Request) -> None:
        self._pseq += 1
        heapq.heappush(self._pqueue, (request.priority, self._pseq, request))

    def _pop_next(self) -> Optional[Request]:
        while self._pqueue:
            _prio, _seq, req = heapq.heappop(self._pqueue)
            if req is not None:
                return req
        return None

    def _discard(self, request: Request) -> bool:
        for i, (_prio, _seq, req) in enumerate(self._pqueue):
            if req is request:
                self._pqueue.pop(i)
                heapq.heapify(self._pqueue)
                return True
        return False

    @property
    def queue_length(self) -> int:
        return len(self._pqueue)


class Server(PriorityResource):
    """Shim for the live kernel's one-unit ``Server``: a capacity-1
    :class:`PriorityResource` whose busy fraction comes from an attached
    :class:`~.monitor.UtilizationMonitor`."""

    def __init__(self, env: Environment):
        super().__init__(env, capacity=1)
        self._busy = UtilizationMonitor.attach(self)

    def utilization(self) -> float:
        return self._busy.utilization(self.env.now)

    def reset_stats(self) -> None:
        self._busy.reset(self.env.now)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item as soon as one is available (immediately if the store is
    non-empty).  Items are delivered in put-order to getters in get-order.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add *item*; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (FIFO)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (oldest first); for inspection/tests."""
        return list(self._items)
