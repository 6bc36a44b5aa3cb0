"""Cluster context: the driver the generators talk to.

A :class:`ClusterContext` binds an RDD workload to a simulated cluster
(:class:`~repro.engine.scheduler.ClusterScheduler`): it creates partitioned
datasets, receives per-partition cost measurements from every
transformation, and accumulates :class:`~repro.engine.metrics.SimulationMetrics`
— simulated makespan, per-node memory, task counts — which the Fig. 8-12
benchmarks read.

Configuration mirrors the paper's Spark knobs: ``n_nodes`` (10-60 in the
experiments), ``executor_cores`` per node (the ``total-executor-cores``
study of Fig. 8 found 12 optimal), and ``partition_multiplier`` (the paper
found 2x-4x the executor-core count best).

Orthogonally to the *simulated* cluster, ``executor`` / ``local_workers``
pick the *real* execution backend partition tasks run on — in the
driver, its threads or its forked workers, always on this host (see
:mod:`repro.engine.executor`): simulated metrics are identical across
backends because each task measures its own CPU cost; only wall-clock
time changes.  Every partition is one executor task.

A task that raises fails its job at once, on every backend: tasks are
pure functions of ``(seed, partition)``, so nothing is retried (see
:mod:`repro.engine.executor`).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.executor import Executor, make_executor
from repro.engine.metrics import SimulationMetrics
from repro.engine.partitioner import split_array, split_count
from repro.engine.rdd import ArrayRDD, Columns
from repro.engine.scheduler import ClusterScheduler, NodeSpec
from repro.engine.storage import BlockStore

__all__ = ["ClusterContext"]


class ClusterContext:
    """Driver for the simulated Map-Reduce cluster."""

    def __init__(
        self,
        *,
        n_nodes: int = 1,
        executor_cores: int = 12,
        partition_multiplier: int = 2,
        node: NodeSpec | None = None,
        per_stage_overhead: float = 0.0005,
        per_task_overhead: float = 0.00005,
        per_byte_cost: float = 5e-8,
        max_real_partitions: int = 32,
        executor: str | Executor | None = None,
        local_workers: int | None = None,
    ) -> None:
        if partition_multiplier < 1:
            raise ValueError("partition_multiplier must be >= 1")
        if max_real_partitions < 1:
            raise ValueError("max_real_partitions must be >= 1")
        self.scheduler = ClusterScheduler(
            n_nodes,
            executor_cores,
            node,
            per_stage_overhead=per_stage_overhead,
            per_task_overhead=per_task_overhead,
            per_byte_cost=per_byte_cost,
        )
        self.partition_multiplier = partition_multiplier
        self.max_real_partitions = max_real_partitions
        self.metrics = SimulationMetrics(n_nodes=n_nodes)
        if isinstance(executor, Executor):
            self.executor = executor
        else:
            self.executor = make_executor(executor, local_workers)
        # Every materialized partition lives in the block store behind a
        # BlockId.  Monotone RDD ids key the blocks (and the persist
        # accounting — id() reuse can never alias entries).
        self.storage = BlockStore()
        self._rdd_ids = itertools.count()
        self.metrics.attach_transport(
            getattr(self.executor, "transport", None)
        )

    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Dispatch a batch of partition tasks on the executor backend;
        the results in task order, or the first task's error."""
        self.metrics.tasks_emitted += len(tasks)
        self.metrics.tasks_dispatched += len(tasks)
        return self.executor.run(tasks)

    def close(self) -> None:
        """Release executor resources (worker pools) and drop the block
        store; idempotent."""
        self.executor.close()
        self.storage.close()

    def __enter__(self) -> "ClusterContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.scheduler.n_nodes

    @property
    def default_partitions(self) -> int:
        """Paper's rule: partitions = multiplier x total executor cores."""
        return (
            self.partition_multiplier
            * self.scheduler.executor_cores
            * self.scheduler.n_nodes
        )

    def reset_metrics(self) -> None:
        self.metrics = SimulationMetrics(n_nodes=self.n_nodes)
        profile = getattr(self.executor, "transport", None)
        if profile is not None:
            profile.reset()
        self.metrics.attach_transport(profile)

    # ------------------------------------------------------------------
    def _real_and_multiplier(self, nominal: int) -> tuple[int, int]:
        """Split the nominal (paper-rule) partition count into a small real
        partition count plus a per-partition simulated-task multiplier."""
        real = max(1, min(nominal, self.max_real_partitions))
        multiplier = max(1, int(np.ceil(nominal / real)))
        return real, multiplier

    def parallelize(
        self,
        columns: Sequence[np.ndarray],
        *,
        n_partitions: int | None = None,
    ) -> ArrayRDD:
        """Partition aligned column arrays into an RDD."""
        columns = [np.asarray(c) for c in columns]
        nominal = n_partitions or self.default_partitions
        nominal = max(1, min(nominal, max(1, columns[0].size)))
        real, multiplier = self._real_and_multiplier(nominal)
        splits = [split_array(c, real) for c in columns]
        parts: list[Columns] = [
            tuple(splits[j][p] for j in range(len(columns)))
            for p in range(real)
        ]
        return ArrayRDD(self, parts, task_multiplier=multiplier)

    def generate(
        self,
        total: int,
        fn: Callable[[int, int], Sequence[np.ndarray]],
        *,
        n_partitions: int | None = None,
        stage: str = "generate",
    ) -> ArrayRDD:
        """Create an RDD by running ``fn(count, partition_index)`` per
        partition — the pattern behind PGSK's parallel recursive descent,
        where an "initially empty RDD ... is partitioned among the
        available compute nodes" and each node generates edges
        independently.
        """
        nominal = max(1, n_partitions or self.default_partitions)
        real, multiplier = self._real_and_multiplier(nominal)
        counts = split_count(total, real)
        seedless = ArrayRDD(
            self,
            [(np.empty(0, np.int64),)] * real,
            task_multiplier=multiplier,
        )

        def _gen(_cols: Columns, pidx: int) -> Sequence[np.ndarray]:
            return fn(int(counts[pidx]), pidx)

        return seedless.map_partitions(_gen, stage=stage)

    # ------------------------------------------------------------------
    def _record_stage(
        self,
        stage: str,
        cpu_seconds: list[float],
        bytes_out: list[int],
        result: "ArrayRDD | np.ndarray | None",
        *,
        multiplier: int = 1,
    ) -> None:
        """Feed one logical stage's measured costs to the simulated
        cluster.  ``result`` carries the per-partition byte sizes of the
        stage's output dataset for the memory meter — either the
        materialized RDD itself or a plain array of partition bytes (the
        fused planner's form, which never materializes the RDD), or
        ``None`` for stages with no resident result (driver-side work,
        reductions)."""
        cpu = np.asarray(cpu_seconds, dtype=np.float64)
        size = np.asarray(bytes_out, dtype=np.int64)
        if multiplier > 1:
            # Each real partition stands for `multiplier` simulated tasks:
            # split its measured cost and output evenly among them before
            # the makespan model runs.
            cpu = np.repeat(cpu / multiplier, multiplier)
            size = np.repeat(size // multiplier, multiplier)
        makespan, records = self.scheduler.stage_makespan(stage, cpu, size)
        self.metrics.record_stage(
            records, makespan, self.scheduler.per_stage_overhead
        )
        if result is not None:
            if isinstance(result, ArrayRDD):
                part_bytes = result.partition_bytes()
            else:
                part_bytes = np.asarray(result, dtype=np.int64)
            if multiplier > 1:
                part_bytes = np.repeat(part_bytes // multiplier, multiplier)
            self.metrics.settle_memory(
                self.scheduler.per_node_bytes(part_bytes)
            )
