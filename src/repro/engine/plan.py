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
  records the *same* stages, task counts, byte volumes and node
  assignments whether fusion is on or off (the two-clock contract: only
  wall time and peak memory change).

What breaks a fusion chain: a shuffle (``distinct``), ``repartition``, a
``persist()`` boundary, and any action (``collect``/``count``/
``reduce_columns``/size metadata).  Wide ops force their inputs through
this planner and then run their existing exchange machinery on
materialized partitions.

``REPRO_FUSION=off`` (or ``ClusterContext(fusion=False)`` /
``--no-fusion`` on the CLI) falls back to the eager path: every
transformation forces immediately, so chains never grow beyond one
operator and the engine behaves exactly like the pre-DAG versions —
kept alive as the reference the equivalence tests and the CI off-run
compare against.

**Adaptive partition coalescing** sits below the simulated-metrics
boundary, exactly like fusion: when ``target_partition_bytes`` is
nonzero, :func:`fuse_and_run` groups consecutive fused partition chains
into *physical* executor tasks of roughly that many input bytes (never
fewer than ``_MIN_COALESCED_CHUNKS`` chunks, so small-stage dispatch is
untouched), and runs empty-partition chains inline in the driver instead
of scheduling them at all.  The grouping is a pure function of cached
partition byte metadata and per-op ``bytes_hint``s — deterministic and
backend-independent, so the physical task list is identical on every
backend.  Each member
chain still times its own operator segments, so the simulated stage
records — task indices, byte volumes, node assignments — are
byte-identical coalesced or not (asserted in tests); only wall-clock
dispatch overhead changes.  ``target_partition_bytes=0`` (env token
``off``) disables coalescing and restores the one-task-per-partition
dispatch.

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

# Never coalesce below this many physical tasks: small stages keep their
# one-task-per-partition dispatch (parallelism is worth more than grain
# there), and existing dispatch-count expectations stay exact.
_MIN_COALESCED_CHUNKS = 8

# Monotone ids give pending ops a global creation order; stages are
# recorded in that order at force time, matching the call order the
# eager path would have recorded them in.
_op_ids = itertools.count()


@dataclass(frozen=True)
class PendingOp:
    """One logical ``map_partitions`` application, not yet executed.

    ``n_tasks`` / ``multiplier`` freeze the shape of the RDD the op was
    applied to: partition *i* of that RDD is simulated task *i* of this
    stage, whichever union position the partition later travels in.

    ``bytes_hint`` (optional, one entry per task index) estimates the
    op's output bytes for the coalescer — essential for generate-style
    stages whose *anchor* is empty: without a hint their input-byte
    estimate is zero and they would all collapse into the driver-inline
    path.  Order-of-magnitude accuracy is enough; hints only weight the
    chunk boundaries, never the simulated metrics.
    """

    fn: Callable[[Sequence[np.ndarray], int], Sequence[np.ndarray]]
    stage: str
    n_tasks: int
    multiplier: int
    bytes_hint: tuple[int, ...] | None = None
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


def _make_fused_task(ref, ops, validate):
    """Build one executor task running a whole chain of narrow ops.

    ``ref`` is a block reference from the store; the task reads the
    anchor's arrays through it.  Each operator segment is timed
    separately (`two clocks`: the simulated scheduler needs per-stage
    costs, not per-fused-task costs) and its output bytes captured;
    intermediates die as soon as the next segment consumed them, so the
    task's transient footprint is one partition, not one RDD.
    """

    def _task():
        current = ref.load()
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


def _make_chunk_task(subtasks):
    """One physical executor task running several fused partition chains
    back to back — what the coalescer dispatches.  Returns the list of
    per-chain ``(payload, segments)`` results; each member chain still
    times its own operator segments, so the simulated stage records are
    harvested exactly as if every chain had been its own task."""

    def _task():
        return [task() for task in subtasks]

    return _task


def _estimate_partition_bytes(pipe: Pipe) -> int:
    """Deterministic size estimate for one pipe: the anchor partition's
    stored bytes (cached metadata) maxed with any operator
    ``bytes_hint``.  A pure function of plan state, never of executor
    parallelism, so the chunk composition it drives is identical on
    every backend."""
    estimate = int(pipe.base.partition_bytes()[pipe.index])
    for op, task_index in pipe.ops:
        hint = op.bytes_hint
        if hint is not None and task_index < len(hint):
            estimate = max(estimate, int(hint[task_index]))
    return estimate


def fuse_and_run(ctx, pipes: Sequence[Pipe]):
    """Execute a partition-pipe plan; return ``(results, stage_groups)``.

    ``results`` holds, per output partition, either the computed column
    tuple or a :class:`~repro.engine.storage.BlockId` for pipes with an
    empty chain
    (pure union passthrough) — resolved by reference on the driver: no
    task, no copy, no stage record, exactly like the eager ``union``.

    With a nonzero ``ctx.target_partition_bytes``, chains estimated at
    zero bytes (empty partitions, e.g. a ``split_array`` over fewer rows
    than partitions or a zero-count generate slot) run inline in the
    driver — their operator functions, segment timings and stage records
    are exactly those of a dispatched task, minus the dispatch — and the
    rest are coalesced into ~target-sized physical tasks via
    :func:`~repro.engine.partitioner.chunk_weights`.
    """
    from repro.engine.partitioner import chunk_weights
    from repro.engine.rdd import _validate_partition

    # A persisted-but-lazy anchor materializes first (and registers its
    # resident bytes); its chain is its own, never fused into ours.
    seen: set[int] = set()
    for pipe in pipes:
        if id(pipe.base) not in seen:
            seen.add(id(pipe.base))
            pipe.base._force()

    work = [(i, pipe) for i, pipe in enumerate(pipes) if pipe.ops]

    def _task_for(pipe: Pipe):
        return _make_fused_task(
            pipe.base._task_ref(pipe.index), pipe.ops, _validate_partition
        )

    results: list = [None] * len(pipes)
    for i, pipe in enumerate(pipes):
        if not pipe.ops:
            results[i] = pipe.base._blocks[pipe.index]
    raw_segments: list[tuple[int, int, float, int]] = []

    target = getattr(ctx, "target_partition_bytes", 0)
    if target and len(work) > 1:
        estimates = [_estimate_partition_bytes(pipe) for _, pipe in work]
        inline = [k for k, est in enumerate(estimates) if est == 0]
        remote = [k for k, est in enumerate(estimates) if est > 0]
        for k in inline:
            i, pipe = work[k]
            payload, segments = _task_for(pipe)()
            results[i] = payload
            raw_segments.extend(segments)
        groups = (
            chunk_weights(
                [estimates[k] for k in remote],
                target,
                min_chunks=_MIN_COALESCED_CHUNKS,
            )
            if remote
            else []
        )
        chunk_tasks = []
        chunk_members = []
        for group in groups:
            members = [remote[position] for position in group]
            chunk_tasks.append(
                _make_chunk_task([_task_for(work[k][1]) for k in members])
            )
            chunk_members.append(members)
        ctx.metrics.tasks_inlined += len(inline)
        if chunk_tasks:
            outs = ctx.run_tasks(chunk_tasks, emitted=len(work))
        else:
            ctx.metrics.tasks_emitted += len(work)
            outs = []
        for members, chunk_out in zip(chunk_members, outs):
            for k, (payload, segments) in zip(members, chunk_out):
                i, _pipe = work[k]
                results[i] = payload
                raw_segments.extend(segments)
    else:
        outs = (
            ctx.run_tasks([_task_for(pipe) for _i, pipe in work])
            if work
            else []
        )
        for (i, _pipe), (payload, segments) in zip(work, outs):
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
