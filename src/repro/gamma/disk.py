"""The per-node Disk Manager (paper §5).

"The Disk Manager schedules disk requests to an attached disk according
to the elevator algorithm [TP72].  In order to accurately reflect the
hardware currently being used by Gamma, the disk manager interrupts the
CPU when there are bytes to be transferred from the I/O channel's FIFO
buffer to memory or vice versa."

Model
-----
* One arm; requests carry a target cylinder, a page count and a
  *sequential* flag.
* The elevator (SCAN) picks, among queued requests, the nearest cylinder
  in the current sweep direction, reversing at the ends.
* Service time = settle + seek(distance) + rotational latency (uniform
  in [0, 16.68 ms]) + per-page transfer; a *sequential* request already
  positioned at the arm's cylinder skips the positioning phases
  entirely (streaming read).
* After each page lands in the FIFO buffer, the disk interrupts the CPU
  for the 4000-instruction DMA transfer (Table 2) at DMA priority and
  waits for it -- the FIFO backpressure that couples disk and CPU load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..des import Environment, Event
from ..obs.registry import NULL_REGISTRY
from .cpu import Cpu, DMA_PRIORITY
from .params import SimulationParameters

__all__ = ["Disk", "DiskRequest"]


@dataclass(slots=True)
class DiskRequest:
    """One queued disk operation."""

    cylinder: int
    num_pages: int
    sequential: bool
    is_write: bool
    done: Event
    enqueued_at: float
    #: Open trace span of the owning query, if it is being traced.
    span: Optional[object] = None


class Disk:
    """One disk drive with an elevator-scheduled request queue."""

    __slots__ = ("env", "params", "cpu", "name", "obs_label", "_reads",
                 "_writes", "_pages", "_wait_hist", "_rng", "_pending",
                 "_arrival", "_current_cylinder", "_sweep_up",
                 "busy_seconds", "requests_served",
                 "_page_transfer_seconds", "_dma_service")

    def __init__(self, env: Environment, params: SimulationParameters,
                 cpu: Cpu, seed: int = 0, name: str = "disk",
                 registry=NULL_REGISTRY, metric_prefix: str = "disk"):
        self.env = env
        self.params = params
        self.cpu = cpu
        self.name = name
        self.obs_label = "node.disk"
        # With the null registry the instruments are None and skipped,
        # as in Network: four no-op calls per request otherwise.
        if registry is NULL_REGISTRY:
            self._reads = self._writes = self._pages = None
            self._wait_hist = None
        else:
            self._reads = registry.counter(f"{metric_prefix}.reads")
            self._writes = registry.counter(f"{metric_prefix}.writes")
            self._pages = registry.counter(f"{metric_prefix}.pages")
            self._wait_hist = registry.sketch(
                f"{metric_prefix}.wait_seconds")
        self._rng = random.Random(seed)
        self._pending: List[DiskRequest] = []
        self._arrival: Optional[Event] = None
        self._current_cylinder = 0
        self._sweep_up = True
        self.busy_seconds = 0.0
        self.requests_served = 0
        # Per-page constants, resolved once instead of per service.  The
        # DMA burst length uses the same division cpu.execute() performs
        # so the service time is bit-identical.
        self._page_transfer_seconds = params.page_transfer_seconds()
        self._dma_service = (params.dma_instructions_per_page
                             / params.cpu_instructions_per_second)
        env.process(self._serve_loop())

    # -- public API ------------------------------------------------------

    def submit(self, cylinder: int, num_pages: int,
               sequential: bool = False, is_write: bool = False,
               span=None) -> Event:
        """Queue an operation; the returned event fires on completion."""
        if num_pages <= 0:
            raise ValueError(f"request for {num_pages} pages")
        geometry = self.params.disk_geometry
        if not 0 <= cylinder < geometry.cylinders:
            raise ValueError(f"cylinder {cylinder} outside disk")
        request = DiskRequest(cylinder=cylinder, num_pages=num_pages,
                              sequential=sequential, is_write=is_write,
                              done=Event(self.env),
                              enqueued_at=self.env.now, span=span)
        if self._pages is not None:
            (self._writes if is_write else self._reads).inc()
            self._pages.inc(num_pages)
        self._pending.append(request)
        arrival = self._arrival
        if arrival is not None:
            # Wake the idle arm once: later submits before it runs
            # find no arrival event to trigger.
            self._arrival = None
            arrival.succeed()
        return request.done

    def read(self, cylinder: int, num_pages: int, sequential: bool = False,
             span=None):
        """Process generator: read and wait for completion."""
        yield self.submit(cylinder, num_pages, sequential=sequential,
                          span=span)

    def write(self, cylinder: int, num_pages: int, sequential: bool = False,
              span=None):
        """Process generator: write and wait for completion."""
        yield self.submit(cylinder, num_pages, sequential=sequential,
                          is_write=True, span=span)

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    def reset_stats(self) -> None:
        self.busy_seconds = 0.0
        self.requests_served = 0

    # -- elevator ----------------------------------------------------------

    def _pick_next(self) -> DiskRequest:
        """SCAN: nearest request in the sweep direction; reverse at ends."""
        pending = self._pending
        current = self._current_cylinder
        if len(pending) == 1:
            # The common case: the only request is chosen whichever way
            # the arm sweeps; the sweep still reverses when it lies
            # behind the arm.
            request = pending.pop()
            if (request.cylinder != current
                    and (request.cylinder > current) != self._sweep_up):
                self._sweep_up = not self._sweep_up
            return request
        ahead = [r for r in pending
                 if (r.cylinder >= current) == self._sweep_up
                 or r.cylinder == current]
        if not ahead:
            self._sweep_up = not self._sweep_up
            ahead = pending
        chosen = min(ahead, key=lambda r: abs(r.cylinder - current))
        pending.remove(chosen)
        return chosen

    def _serve_loop(self):
        # A request's service is written out here rather than delegated
        # to a sub-generator, whose every resume would pass through one
        # more frame.
        params = self.params
        transfer = self._page_transfer_seconds
        dma_service = self._dma_service
        cpu = self.cpu
        cpu_hold = cpu._hold
        while True:
            if not self._pending:
                self._arrival = arrival = Event(self.env)
                yield arrival
            request = self._pick_next()
            start = self.env.now
            queue_wait = start - request.enqueued_at
            if self._wait_hist is not None:
                self._wait_hist.record(queue_wait)

            distance = abs(request.cylinder - self._current_cylinder)
            repositioning = not (request.sequential and distance == 0)
            if repositioning:
                positioning = (params.disk_settle_seconds
                               + params.seek_seconds(distance)
                               + self._rng.uniform(
                                   0.0, params.disk_max_latency_seconds))
                yield positioning
                self.busy_seconds += positioning
            self._current_cylinder = request.cylinder

            for _ in range(request.num_pages):
                yield transfer
                self.busy_seconds += transfer
                # FIFO buffer full: interrupt the CPU for the DMA
                # transfer, holding it directly rather than through
                # cpu.execute() -- a generator per page in the hottest
                # loop of the model.
                yield cpu_hold(dma_service, DMA_PRIORITY)
                cpu.busy_seconds += dma_service

            # Streaming advances the arm across cylinders.
            geometry = params.disk_geometry
            span = request.num_pages // geometry.pages_per_cylinder
            self._current_cylinder = min(self._current_cylinder + span,
                                         geometry.cylinders - 1)

            self.requests_served += 1
            if request.span is not None:
                request.span.trace.resource(
                    request.span, self.obs_label, queue_wait,
                    self.env.now - start, pages=request.num_pages)
            request.done.succeed(self.env.now - start)
