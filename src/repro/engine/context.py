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
time changes.  One further knob shapes the *physical* task grain without
touching the simulated series: ``target_partition_bytes`` (plan-level
coalescing of small partition chains into ~target-sized executor tasks,
``REPRO_TARGET_PARTITION_BYTES``, 0/"off" disables).

Every task batch is dispatched through the lineage-recovery layer
(:func:`repro.engine.executor.run_with_recovery`): failed tasks are
retried up to ``max_task_retries`` times with exponential backoff,
recomputing only the lost partition's fused chain from its anchor
(source or ``persist()``-ed) partitions.  A seeded
:class:`~repro.engine.faults.FaultPlan` — ``fault_plan=`` argument, the
``REPRO_FAULTS`` environment variable, or the CLI ``--faults`` flag —
deterministically injects task failures and worker deaths to exercise
that path.  Recovery affects wall clock and the ``metrics`` recovery
counters only, never the simulated series.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

import numpy as np

from repro import config
from repro.engine.executor import (
    Executor,
    RecoveryStats,
    make_executor,
    run_with_recovery,
)
from repro.engine.faults import FaultPlan
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
        fusion: bool | None = None,
        target_partition_bytes: int | str | None = None,
        fault_plan: FaultPlan | dict | str | None = None,
        max_task_retries: int | None = None,
        retry_backoff_seconds: float = 0.01,
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
        # Configuration: every ``None`` argument below resolves through
        # ``repro.config`` (explicit argument > REPRO_* variable >
        # default; the table there documents each setting).
        #
        # Fusion off forces every transformation immediately (the eager
        # reference path); target_partition_bytes coalesces small
        # partition chains into ~target-sized executor tasks at plan
        # time.  Both change only wall clock / local peak memory — the
        # simulated stage records are identical (asserted in tests).
        self.fusion_enabled = config.resolve("fusion", fusion)
        self.target_partition_bytes = config.resolve(
            "target_partition_bytes", target_partition_bytes
        )
        self.metrics = SimulationMetrics(n_nodes=n_nodes)
        if isinstance(executor, Executor):
            self.executor = executor
        else:
            self.executor = make_executor(executor, local_workers)
        self.fault_plan = FaultPlan.resolve(fault_plan)
        self.max_task_retries = config.resolve(
            "max_task_retries", max_task_retries
        )
        if retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be >= 0")
        self.retry_backoff_seconds = retry_backoff_seconds
        # Monotone batch counter keying each dispatched batch into the
        # fault plan's deterministic decision stream.
        self._batch_ids = itertools.count()
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
    def run_tasks(
        self,
        tasks: Sequence[Callable[[], Any]],
        *,
        emitted: int | None = None,
    ) -> list[Any]:
        """Dispatch a batch of partition tasks on the executor backend,
        with lineage-based retry of failed tasks (and deterministic fault
        injection when a plan is configured).

        ``emitted`` is the *logical* task count this batch stands for —
        the coalescing planner passes the pre-coalescing number so the
        ``tasks_emitted`` / ``tasks_dispatched`` counters expose the
        dispatch reduction; plain batches leave it unset (1:1).
        """
        self.metrics.tasks_emitted += (
            len(tasks) if emitted is None else emitted
        )
        self.metrics.tasks_dispatched += len(tasks)
        stats = RecoveryStats()
        try:
            return run_with_recovery(
                self.executor,
                tasks,
                fault_plan=self.fault_plan,
                batch=next(self._batch_ids),
                max_task_retries=self.max_task_retries,
                backoff_seconds=self.retry_backoff_seconds,
                stats=stats,
            )
        finally:
            self.metrics.record_recovery(stats)

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

        # The seedless anchor is empty, so without a hint the coalescer
        # would estimate every generate chain at zero bytes and inline
        # them all in the driver.  Weight each chain by its item count
        # (~2 int64 columns per item); zero-count slots stay at zero and
        # are correctly pruned to inline execution.
        return seedless.map_partitions(
            _gen, stage=stage, bytes_hint=counts * 16
        )

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
