"""The per-node CPU module (paper §5).

"The CPU module enforces a FCFS non-preemptive scheduling paradigm on all
requests, except for byte transfers to/from the disk's FIFO buffer."

We model this with one :class:`~repro.des.Server`: normal work queues
FCFS in class :data:`NORMAL_PRIORITY`; DMA transfers from the disk's
FIFO buffer queue in class :data:`DMA_PRIORITY` and therefore run ahead
of any *queued* normal work (the burst in service is never preempted --
non-preemptive, as in the paper).
"""

from __future__ import annotations

from ..des import Environment, Server
from .params import SimulationParameters

__all__ = ["Cpu", "DMA_PRIORITY", "NORMAL_PRIORITY"]

#: Priority class of disk-FIFO byte transfers (served first).
DMA_PRIORITY = 0
#: Priority class of all other CPU work.
NORMAL_PRIORITY = 1


class Cpu:
    """One processor's CPU: a 3-MIPS single server with DMA priority.

    ``obs_label`` is the resource name under which traced queries book
    their queue-wait / service time here (``node.cpu`` for operator
    nodes, ``sched.cpu`` for the scheduler node).
    """

    __slots__ = ("env", "params", "name", "obs_label", "_server",
                 "busy_seconds", "_instructions_per_second", "_hold")

    def __init__(self, env: Environment, params: SimulationParameters,
                 name: str = "cpu", obs_label: str = "node.cpu"):
        self.env = env
        self.params = params
        self.name = name
        self.obs_label = obs_label
        self._server = Server(env)
        self.busy_seconds = 0.0
        # Hot-path caches: the instruction rate and the bound hold,
        # resolved once instead of per burst.  Kept as the divisor (not
        # its reciprocal) so the service time is bit-identical to
        # params.instructions_to_seconds().
        self._instructions_per_second = params.cpu_instructions_per_second
        self._hold = self._server.hold

    def execute(self, instructions: float, priority: int = NORMAL_PRIORITY,
                span=None):
        """Process generator: run *instructions* on this CPU.

        Usage: ``yield from cpu.execute(14_600)``.  When *span* (an open
        :class:`repro.obs.spans.Span`) is given, the burst is recorded
        on its query's trace as a leaf with the wait/service split.
        """
        if instructions <= 0:
            if instructions == 0:
                return
            raise ValueError(f"negative instruction count {instructions}")
        service = instructions / self._instructions_per_second
        # One hold per burst: nothing in the model interrupts a CPU
        # burst.  Fixed-length bursts elsewhere in the model hold the
        # server directly, without this generator.
        wait = yield self._hold(service, priority)
        self.busy_seconds += service
        if span is not None:
            span.trace.resource(span, self.obs_label, wait, service)

    @property
    def queue_length(self) -> int:
        return self._server.queue_length

    def utilization(self) -> float:
        """Busy fraction since the last :meth:`reset_stats`."""
        return self._server.utilization()

    def reset_stats(self) -> None:
        self._server.reset_stats()
        self.busy_seconds = 0.0
