"""One processor node of the simulated machine (Figure 7).

"Each node in the multiprocessor is composed of a Disk Manager, an
Operator Manager, and a Network Interface manager."  The node bundles
its CPU, disk, network endpoint and operator manager.
"""

from __future__ import annotations

from ..des import Environment
from ..obs.telemetry import NULL_TELEMETRY
from .buffer import BufferPool
from .catalog import SystemCatalog
from .cpu import Cpu
from .disk import Disk
from .network import Network, NetworkEndpoint
from .operator import OperatorManager
from .params import SimulationParameters

__all__ = ["OperatorNode"]


class OperatorNode:
    """CPU + disk + NIC + operator manager of one processor."""

    def __init__(self, env: Environment, node_id: int,
                 params: SimulationParameters, network: Network,
                 catalog: SystemCatalog, seed: int = 0,
                 telemetry=NULL_TELEMETRY, invariants=None, faults=None):
        self.node_id = node_id
        self.cpu = Cpu(env, params, name=f"cpu{node_id}")
        self.disk = Disk(env, params, self.cpu, seed=seed,
                         name=f"disk{node_id}",
                         registry=telemetry.registry,
                         metric_prefix=f"node.{node_id}.disk")
        self.buffer_pool = (BufferPool(params.buffer_pool_pages)
                            if params.buffer_pool_pages else None)
        self.endpoint: NetworkEndpoint = network.attach(node_id, self.cpu)
        self.operator_manager = OperatorManager(
            env, node_id, params, self.cpu, self.disk, self.endpoint,
            network, catalog, seed=seed + 1,
            buffer_pool=self.buffer_pool, telemetry=telemetry,
            faults=faults)
        if invariants is not None:
            # Register this node's resources for the end-of-run busy-time
            # and buffer conservation audit (pure bookkeeping: the node's
            # behaviour is identical with or without a checker).
            prefix = f"node.{node_id}"
            invariants.watch_resource(f"{prefix}.cpu",
                                      lambda: self.cpu.busy_seconds)
            invariants.watch_resource(f"{prefix}.disk",
                                      lambda: self.disk.busy_seconds)
            if self.buffer_pool is not None:
                invariants.watch_buffer(f"{prefix}.buffer",
                                        self.buffer_pool)

    def reset_stats(self) -> None:
        self.cpu.reset_stats()
        self.disk.reset_stats()

    def disk_busy_seconds(self) -> float:
        return self.disk.busy_seconds
