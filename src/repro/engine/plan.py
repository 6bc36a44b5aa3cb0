"""Lazy lineage plan: pending narrow ops, fusion chains, the planner.

A transformed :class:`~repro.engine.rdd.ArrayRDD` no longer holds data —
it holds one :class:`Pipe` per partition: a reference to a *materialized
anchor* partition (an RDD that already owns its columns, or one marked
``persist()``) plus the ordered chain of narrow per-partition operators
(:class:`PendingOp`) still to be applied.  An action hands the pipes to
:func:`fuse_and_run`, which

* materializes any still-lazy persisted anchors first (a persist boundary
  always breaks a fusion chain),
* dispatches **one fused task per partition** on the context's executor
  backend — the whole chain of narrow ops pipelines through a single
  partition-sized buffer instead of materializing every intermediate RDD
  across all partitions (Spark's narrow-stage pipelining),
* times each operator segment separately inside the task and returns the
  measurements grouped per logical stage, so the simulated cluster clock
  records one stage per transformation even though the chain ran as one
  task (the two-clock contract: fusion moves only wall time and peak
  memory).

What breaks a fusion chain: a shuffle (``distinct``), ``repartition``, a
``persist()`` boundary, and any action (``collect``/``count``/size
metadata).  Wide ops force their inputs through this planner and then
run their existing exchange machinery on materialized partitions.

There is one physical grain: one fused task per partition.  The pool
backend batches tasks per IPC round on its own (see
:mod:`repro.engine.executor`); the planner never regroups partitions.

Recomputation semantics match Spark: forcing an RDD caches *its own*
partitions, never the intermediates of its lineage.  Forking two lazy
branches off one unforced, unpersisted RDD therefore re-runs the shared
prefix (and honestly re-charges it to the simulated clock); ``persist()``
the branch point to compute it once and account its resident bytes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "PendingOp",
    "Pipe",
    "StageGroup",
    "fuse_and_run",
]

# Monotone ids give pending ops a global creation order; stages are
# recorded in that order at force time, which is the order the
# transformations were called in.
_op_ids = itertools.count()


@dataclass(frozen=True)
class PendingOp:
    """One logical ``map_partitions`` application, not yet executed.

    ``n_tasks`` / ``multiplier`` freeze the shape of the RDD the op was
    applied to: partition *i* of that RDD is simulated task *i* of this
    stage, whichever union position the partition later travels in.
    """

    fn: Callable[[Sequence[np.ndarray], int], Sequence[np.ndarray]]
    stage: str
    n_tasks: int
    multiplier: int
    seq: int = field(default_factory=lambda: next(_op_ids))


@dataclass(frozen=True)
class Pipe:
    """Plan for one output partition: anchor partition + pending ops.

    ``ops`` pairs each :class:`PendingOp` with the partition's task index
    in the RDD the op was applied to — the ``pidx`` its function receives
    (RNG streams key on it) and its slot in the stage's task list.
    """

    base: Any  # ArrayRDD (kept untyped to avoid a circular import)
    index: int
    ops: tuple[tuple[PendingOp, int], ...] = ()


@dataclass(frozen=True)
class StageGroup:
    """Per-logical-stage measurements harvested from fused tasks."""

    op: PendingOp
    task_indices: list[int]
    cpu_seconds: list[float]
    bytes_out: list[int]


def _make_fused_task(cols, ops, validate):
    """Build one executor task running a whole chain of narrow ops.

    ``cols`` is the anchor partition's column tuple, captured by the
    task.  Each operator segment is timed separately (`two clocks`: the
    simulated scheduler needs per-stage costs, not per-fused-task costs)
    and its output bytes captured; intermediates die as soon as the next
    segment consumed them, so the task's transient footprint is one
    partition, not one RDD.
    """

    def _task():
        current = cols
        segments = []
        for op, task_index in ops:
            t0 = time.perf_counter()
            current = validate(op.fn(current, task_index))
            elapsed = time.perf_counter() - t0
            segments.append(
                (
                    op.seq,
                    task_index,
                    elapsed,
                    sum(c.nbytes for c in current),
                )
            )
        return current, segments

    return _task


def fuse_and_run(ctx, pipes: Sequence[Pipe]):
    """Execute a partition-pipe plan; return ``(results, stage_groups)``.

    ``results`` holds, per output partition, either the computed column
    tuple or, for a pipe with an empty chain (pure union passthrough), the
    anchor's own tuple, shared by reference: no task, no copy, no stage
    record.  Every other pipe is one fused task, and all of them go to
    the executor as one batch.
    """
    from repro.engine.rdd import _validate_partition

    # A persisted-but-lazy anchor materializes first (and registers its
    # resident bytes); its chain is its own, never fused into ours.
    seen: set[int] = set()
    for pipe in pipes:
        if id(pipe.base) not in seen:
            seen.add(id(pipe.base))
            pipe.base._force()

    results: list = [None] * len(pipes)
    work = []
    for i, pipe in enumerate(pipes):
        if pipe.ops:
            work.append(i)
        else:
            results[i] = pipe.base._parts[pipe.index]
    tasks = [
        _make_fused_task(
            pipes[i].base._parts[pipes[i].index],
            pipes[i].ops,
            _validate_partition,
        )
        for i in work
    ]
    outs = ctx.run_tasks(tasks) if tasks else []
    raw_segments: list[tuple[int, int, float, int]] = []
    for i, (payload, segments) in zip(work, outs):
        results[i] = payload
        raw_segments.extend(segments)

    ops_by_seq = {
        op.seq: op for pipe in pipes for op, _ in pipe.ops
    }
    # Group measurements per logical stage; duplicate task indices (an
    # RDD unioned with itself re-runs its chain) keep the first
    # measurement so the stage's task list stays one entry per partition.
    grouped: dict[int, dict[int, tuple[float, int]]] = {}
    for seq, task_index, elapsed, nbytes in raw_segments:
        grouped.setdefault(seq, {}).setdefault(
            task_index, (elapsed, nbytes)
        )
    stage_groups = []
    for seq in sorted(grouped):
        op = ops_by_seq[seq]
        by_task = grouped[seq]
        task_indices = sorted(by_task)
        stage_groups.append(
            StageGroup(
                op=op,
                task_indices=task_indices,
                cpu_seconds=[by_task[t][0] for t in task_indices],
                bytes_out=[by_task[t][1] for t in task_indices],
            )
        )
    return results, stage_groups
