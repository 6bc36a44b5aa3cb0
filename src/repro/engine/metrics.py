"""Accounting records for the simulated cluster.

Every partition task contributes a :class:`TaskRecord` (measured CPU cost
plus bytes produced); the scheduler folds records into per-node clocks and
memory meters, and :class:`SimulationMetrics` exposes the aggregates the
benchmarks read: simulated makespan, per-node peak memory, task counts.

The metrics also meter the driver-side ``persist()`` cache of the lazy
engine: every pinned RDD registers its resident bytes at
materialization and releases them on ``unpersist()``, so
``persisted_bytes`` / ``peak_persisted_bytes`` expose how much dataset
the generators keep live across loop iterations.

Real dispatch is metered outside the simulated series:
``tasks_emitted`` / ``tasks_dispatched`` count the executor tasks run,
and ``transport_breakdown()`` exposes the executor's wall-clock
overhead profile (submit/serialize/ipc/compute).  ``n_tasks`` is the
*simulated* task count (a real partition may stand for several).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.executor import TransportProfile

__all__ = ["TaskRecord", "SimulationMetrics"]


@dataclass(frozen=True)
class TaskRecord:
    """One executed partition task."""

    stage: str
    partition: int
    node: int
    cpu_seconds: float
    bytes_out: int


@dataclass
class SimulationMetrics:
    """Mutable aggregate the context updates stage by stage."""

    n_nodes: int
    simulated_seconds: float = 0.0
    platform_overhead_seconds: float = 0.0
    tasks: list[TaskRecord] = field(default_factory=list)
    node_busy_seconds: np.ndarray = None
    node_resident_bytes: np.ndarray = None
    node_peak_bytes: np.ndarray = None
    persisted_rdd_bytes: dict = field(default_factory=dict)
    peak_persisted_bytes: int = 0
    # Always 0: a task error fails its job and nothing is retried.  Kept
    # because the e2e benchmark reports them per generator.
    tasks_failed: int = 0
    tasks_retried: int = 0
    # Executor tasks run (wall-clock side of the two clocks).  Always
    # equal: every partition is one task.  Kept as two because the e2e
    # benchmark reports both per generator.
    tasks_emitted: int = 0
    tasks_dispatched: int = 0
    # Live view of the executor's TransportProfile (attached by the
    # context, which zeroes it on reset_metrics so the breakdown spans
    # the same window as every other counter here).
    transport: object = None

    def __post_init__(self) -> None:
        if self.node_busy_seconds is None:
            self.node_busy_seconds = np.zeros(self.n_nodes)
        if self.node_resident_bytes is None:
            self.node_resident_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        if self.node_peak_bytes is None:
            self.node_peak_bytes = np.zeros(self.n_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    def record_stage(
        self,
        records: list[TaskRecord],
        stage_makespan: float,
        overhead: float,
    ) -> None:
        self.tasks.extend(records)
        self.simulated_seconds += stage_makespan + overhead
        self.platform_overhead_seconds += overhead
        for r in records:
            self.node_busy_seconds[r.node] += r.cpu_seconds

    def settle_memory(self, per_node_bytes: np.ndarray) -> None:
        """Set the resident dataset bytes per node after a stage."""
        per_node = np.asarray(per_node_bytes, dtype=np.int64)
        if per_node.shape != (self.n_nodes,):
            raise ValueError(
                f"expected {self.n_nodes} per-node byte counts, got "
                f"{per_node.shape}"
            )
        self.node_resident_bytes = per_node
        self.node_peak_bytes = np.maximum(self.node_peak_bytes, per_node)

    # ------------------------------------------------------------------
    def register_persist(self, key: int, nbytes: int) -> None:
        """Account one pinned RDD's resident bytes (keyed by identity)."""
        self.persisted_rdd_bytes[key] = int(nbytes)
        self.peak_persisted_bytes = max(
            self.peak_persisted_bytes, self.persisted_bytes
        )

    def release_persist(self, key: int) -> None:
        """Drop a pinned RDD's accounting (idempotent)."""
        self.persisted_rdd_bytes.pop(key, None)

    @property
    def persisted_bytes(self) -> int:
        """Bytes currently pinned by ``persist()`` across all RDDs."""
        return int(sum(self.persisted_rdd_bytes.values()))

    # ------------------------------------------------------------------
    def attach_transport(self, profile) -> None:
        """Bind the executor's live :class:`~repro.engine.executor.
        TransportProfile` so per-task overhead surfaces here."""
        self.transport = profile

    def transport_breakdown(self) -> dict:
        """The executor's wall-clock overhead profile as a plain dict
        (zeros when no executor transport is attached)."""
        if self.transport is None:
            return TransportProfile().as_dict()
        return self.transport.as_dict()

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def peak_node_memory_bytes(self) -> int:
        return int(self.node_peak_bytes.max(initial=0))

    @property
    def mean_node_memory_bytes(self) -> float:
        return float(self.node_peak_bytes.mean()) if self.n_nodes else 0.0

    def utilisation(self) -> float:
        """Fraction of node-seconds spent computing (vs idle waves).

        Clamped to 1.0: busy seconds count *effective* task seconds,
        several of which run concurrently on one node's cores, so the
        raw ratio can nose over 1 when task costs dwarf the scheduling
        overheads.
        """
        if self.simulated_seconds <= 0:
            return 0.0
        capacity = self.simulated_seconds * self.n_nodes
        return min(1.0, float(self.node_busy_seconds.sum() / capacity))
