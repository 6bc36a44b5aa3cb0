"""Cluster scheduling model.

Translates a bag of measured partition-task costs into a *simulated*
stage makespan for a cluster of ``n_nodes`` identical compute nodes:

* tasks are assigned round-robin to nodes (Spark standalone's default even
  allocation, as configured in the paper);
* each node runs ``executor_cores`` tasks concurrently, but useful
  parallelism saturates at ``saturation_cores`` — the paper measured that
  12 of the 20 physical cores saturate a Shadow II node (Fig. 8), a memory
  bandwidth wall we model as a contention factor ``max(1, c/saturation)``
  multiplying task latency;
* a node's stage time is LPT-greedy wave packing over its core slots;
  the stage makespan is the slowest node plus a fixed per-stage platform
  overhead (job scheduling — the constant floor visible in the paper's
  small-graph memory/time plots);
* each task also pays a per-byte cost for the data it produces, modelling
  the serialisation/shuffle I/O that dominates real Spark tasks at scale
  and gives the generation-time curves their linear-in-size region
  (Fig. 9).

The scheduler sees one task per transformation and partition: a fused
chain (:mod:`repro.engine.plan`) runs as one executor task but reports
each operator segment separately, so the simulated stage records,
makespans and memory meters do not depend on fusion.  Real dispatch
counts live in ``SimulationMetrics.tasks_dispatched``, never here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.metrics import TaskRecord

__all__ = ["NodeSpec", "ClusterScheduler"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node (Shadow II defaults, scaled).

    ``memory_overhead_bytes`` models the resident platform footprint per
    worker (JVM + Spark bookkeeping in the original; the near-constant
    ~10 GB floor of Fig. 11).  It is scaled to 1 MiB so laptop-size
    datasets reproduce both of Fig. 11's regions: the overhead-dominated
    flat left and the linearly growing right.
    """

    physical_cores: int = 20
    saturation_cores: int = 12
    memory_bytes: int = 512 * 1024**3
    memory_overhead_bytes: int = 1024**2


class ClusterScheduler:
    """Deterministic makespan model for one stage of partition tasks."""

    def __init__(
        self,
        n_nodes: int,
        executor_cores: int,
        node: NodeSpec | None = None,
        *,
        per_stage_overhead: float = 0.0005,
        per_task_overhead: float = 0.00005,
        per_byte_cost: float = 5e-8,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if executor_cores < 1:
            raise ValueError("need at least one executor core per node")
        self.n_nodes = n_nodes
        self.node = node or NodeSpec()
        self.executor_cores = min(executor_cores, self.node.physical_cores)
        self.per_stage_overhead = per_stage_overhead
        self.per_task_overhead = per_task_overhead
        self.per_byte_cost = per_byte_cost

    # ------------------------------------------------------------------
    @property
    def contention_factor(self) -> float:
        """Latency multiplier once cores exceed the memory-bandwidth wall."""
        return max(1.0, self.executor_cores / self.node.saturation_cores)

    def assign_nodes(self, n_tasks: int) -> np.ndarray:
        """Round-robin task → node assignment."""
        return np.arange(n_tasks, dtype=np.int64) % self.n_nodes

    def stage_makespan(
        self, stage: str, cpu_seconds: np.ndarray, bytes_out: np.ndarray
    ) -> tuple[float, list[TaskRecord]]:
        """Simulated wall time of a stage given measured per-task costs.

        Returns ``(makespan_seconds, task_records)``; the per-stage platform
        overhead is *not* folded in (the caller records it separately so
        utilisation accounting can distinguish compute from overhead).
        """
        cpu_seconds = np.asarray(cpu_seconds, dtype=np.float64)
        bytes_out = np.asarray(bytes_out, dtype=np.int64)
        if cpu_seconds.shape != bytes_out.shape:
            raise ValueError(
                "cpu_seconds and bytes_out must be aligned per task, got "
                f"shapes {cpu_seconds.shape} and {bytes_out.shape}"
            )
        n_tasks = cpu_seconds.size
        if n_tasks == 0:
            return 0.0, []
        nodes = self.assign_nodes(n_tasks)
        factor = self.contention_factor
        # Task cost model: measured CPU (under core contention) plus a
        # data-volume term (serialisation / shuffle I/O, the dominant cost
        # of real Spark tasks at scale) plus fixed task launch overhead.
        effective = (
            cpu_seconds * factor
            + bytes_out * self.per_byte_cost
            + self.per_task_overhead
        )
        records = [
            TaskRecord(
                stage=stage,
                partition=i,
                node=int(nodes[i]),
                cpu_seconds=float(effective[i]),
                bytes_out=int(bytes_out[i]),
            )
            for i in range(n_tasks)
        ]
        makespan = 0.0
        for node in range(self.n_nodes):
            mine = effective[nodes == node]
            if mine.size == 0:
                continue
            makespan = max(
                makespan, self._node_time(mine, self.executor_cores)
            )
        return makespan, records

    @staticmethod
    def _node_time(task_costs: np.ndarray, cores: int) -> float:
        """LPT greedy packing of tasks onto ``cores`` slots."""
        if task_costs.size <= cores:
            return float(task_costs.max(initial=0.0))
        slots = np.zeros(cores)
        for cost in np.sort(task_costs)[::-1]:
            slot = int(np.argmin(slots))
            slots[slot] += cost
        return float(slots.max())

    # ------------------------------------------------------------------
    def per_node_bytes(
        self, partition_bytes: np.ndarray
    ) -> np.ndarray:
        """Resident dataset bytes per node for a partitioned dataset,
        including the platform overhead floor."""
        partition_bytes = np.asarray(partition_bytes, dtype=np.int64)
        nodes = self.assign_nodes(partition_bytes.size)
        per_node = np.zeros(self.n_nodes, dtype=np.int64)
        np.add.at(per_node, nodes, partition_bytes)
        return per_node + self.node.memory_overhead_bytes
