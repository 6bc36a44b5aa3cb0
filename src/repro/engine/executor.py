"""Local execution backends for the Map-Reduce engine.

The engine keeps two clocks.  The *simulated* clock (Fig. 8-12) is driven
by per-partition CPU costs measured *inside* each task with
``time.perf_counter`` and fed to the :class:`~repro.engine.scheduler.
ClusterScheduler` makespan model — it is independent of how the partition
tasks are actually executed.  The *wall* clock is whatever the hardware
delivers, and that is what this module accelerates: an
:class:`Executor` runs a batch of independent partition tasks and returns
their results in task order, so any backend can stand behind
``ArrayRDD.map_partitions`` without changing observable behaviour.

Three backends are provided, all on the driver's host:

``serial``
    The original driver-loop behaviour; the default, and the reference
    for determinism.
``threads``
    ``concurrent.futures.ThreadPoolExecutor``.  The hot kernels are NumPy
    calls (``np.unique``, ``np.repeat``, ``np.concatenate``, RNG fills)
    which release the GIL, so threads give real parallelism without any
    serialisation cost.
``pool``
    Persistent forked workers running a task loop over a duplex pipe —
    the fork cost is paid ``workers`` times per executor, not per task
    (requires the ``fork`` start method: Linux/macOS).  Task closures
    ship as one pickle protocol-5 batch per IPC round (``cloudpickle``
    for the closures), with large array buffers carried out-of-band
    through a grow-only shared-memory *arena* per direction that is
    recycled across batches: no per-task segment create/unlink, one
    memcpy each way.

The pool's scheduling is :class:`_Dispatcher`, the driver-side state
machine — give every idle channel one batch, wait, drain replies, and
apply the three rules: absorb each reply as the head task's outcome,
blame the first unreported task and requeue the rest when a worker
dies, and mark whatever is left as :class:`WorkerDied` when every
worker is gone.  A
:class:`_Channel` is the seam between that machine and the pipe to one
worker (:class:`_PoolWorker`): how a batch is encoded and sent, how
replies are read, what the driver waits on.  The worker side is
:func:`_pool_worker_main`, forked through :class:`_PipeChild`.

Every RNG stream in the engine is keyed by ``(seed, partition_index)``
and results are gathered in partition order, so every backend
produces bit-identical datasets for identical seeds (tested).

Fault tolerance lives in two layers here:

* :meth:`Executor.run_outcomes` runs a batch and reports one
  :class:`TaskOutcome` per task instead of raising, so a single failed
  partition no longer aborts its siblings.  Subclasses override *either*
  :meth:`Executor.run` (simple backends — the base ``run_outcomes``
  guards each task and dispatches through ``run``) *or*
  ``run_outcomes`` natively (the dispatcher, which must observe worker
  death).
* :func:`run_with_recovery` drives rounds of ``run_outcomes`` with
  per-task retry budgets and exponential backoff — the engine analogue
  of Spark's lineage recomputation.  Because every engine task closure
  captures its *materialised* anchor partitions (source arrays or
  ``persist()``-ed blocks, see ``plan._make_fused_task``), re-running a
  failed task IS recomputing the lost partition's fused chain from its
  narrowest persisted or source ancestor; nothing else is touched.
  Every task is a pure function of ``(seed, partition)``, so each runs
  as one copy: a second copy could only repeat work already running.

Selection: ``ClusterContext(executor="threads", local_workers=8)``, or
the environment variables ``REPRO_EXECUTOR`` / ``REPRO_LOCAL_WORKERS``
when the constructor arguments are left unset.  Executors are context
managers (``with make_executor(...) as ex:``) and ``close()`` is
idempotent; the pool backend additionally reaps any leaked worker
children at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from .. import config
from .faults import FaultPlan

try:  # the pool backend needs cloudpickle for task-closure transport
    import cloudpickle as _cloudpickle
except Exception:  # pragma: no cover - baked into the image, but gated
    _cloudpickle = None

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "PoolExecutor",
    "TaskOutcome",
    "RecoveryStats",
    "TransportProfile",
    "WorkerDied",
    "RemoteTaskError",
    "run_with_recovery",
    "make_executor",
    "available_backends",
    "default_workers",
]

Task = Callable[[], Any]


def default_workers() -> int:
    """Worker count when none is configured: one per visible CPU."""
    return max(1, os.cpu_count() or 1)


class WorkerDied(RuntimeError):
    """A worker process exited without reporting a result."""


class RemoteTaskError(RuntimeError):
    """Stand-in for a worker exception that could not be pickled back;
    carries the original type name and formatted traceback as text."""


@dataclass
class TaskOutcome:
    """Per-task result-or-error record returned by ``run_outcomes``."""

    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


@dataclass
class RecoveryStats:
    """Counters produced by one :func:`run_with_recovery` batch."""

    tasks_failed: int = 0
    tasks_retried: int = 0
    recompute_bytes: int = 0


@dataclass
class TransportProfile:
    """Wall-clock breakdown of where an executor's overhead goes.

    Accumulated over the executor's lifetime (one instance per
    :class:`~repro.engine.context.ClusterContext`); purely diagnostic —
    it never feeds the simulated clock.  The buckets:

    ``submit_seconds``
        Handing work to a worker: ``Process.start()`` when the pool
        forks one, ``Connection.send`` of each task batch.
    ``serialize_seconds``
        Pickling task batches / unpickling and copying out results
        (driver side only; worker-side compute is reported separately).
    ``ipc_wait_seconds``
        Driver time blocked in ``multiprocessing.connection.wait`` for
        worker pipes/sentinels.
    ``compute_seconds``
        In-task time: measured in the driver for in-driver backends,
        reported by the worker for process-based ones.
    ``payload_bytes``
        Bytes that crossed a process boundary (pickle blobs plus
        out-of-band arena buffers), both directions.
    """

    submit_seconds: float = 0.0
    serialize_seconds: float = 0.0
    ipc_wait_seconds: float = 0.0
    compute_seconds: float = 0.0
    payload_bytes: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    def as_dict(self) -> dict[str, float | int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _guard(task: Task) -> Callable[[], TaskOutcome]:
    """Turn a task into one that reports failure instead of raising."""

    def guarded() -> TaskOutcome:
        try:
            return TaskOutcome(value=task())
        except Exception as exc:  # noqa: BLE001 - outcome channel
            return TaskOutcome(error=exc)

    return guarded


def _result_nbytes(obj: Any) -> int:
    """Total ndarray payload bytes in a task result tree."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_result_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_result_nbytes(v) for v in obj.values())
    return 0


class Executor:
    """Runs a batch of independent zero-argument tasks, preserving order.

    Results are positionally aligned with ``tasks`` no matter in which
    order the backend completes them — the determinism contract the RDD
    layer relies on.  Subclasses must override at least one of ``run``
    (raise-on-first-error values) or ``run_outcomes`` (per-task
    :class:`TaskOutcome` records); each base method is implemented in
    terms of the other.
    """

    name = "abstract"

    def __init__(self, workers: int | None = None) -> None:
        workers = default_workers() if workers is None else int(workers)
        if workers < 1:
            raise ValueError("local_workers must be >= 1")
        self.workers = workers
        self.transport = TransportProfile()
        self._closed = False

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        return [outcome.unwrap() for outcome in self.run_outcomes(tasks)]

    def _run_inline(
        self, tasks: Sequence[Task]
    ) -> list[TaskOutcome]:
        """In-driver fallback shared by the process-based backends for
        degenerate batches (one task, or one worker)."""
        outcomes = []
        for task in tasks:
            started = time.perf_counter()
            outcomes.append(_guard(task)())
            self.transport.compute_seconds += time.perf_counter() - started
        return outcomes

    def run_outcomes(self, tasks: Sequence[Task]) -> list[TaskOutcome]:
        """Run a batch, one :class:`TaskOutcome` per task."""
        return list(self.run([_guard(task) for task in tasks]))

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        self._closed = True

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """The original behaviour: run every task in the driver loop."""

    name = "serial"

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        results = []
        for task in tasks:
            started = time.perf_counter()
            results.append(task())
            self.transport.compute_seconds += time.perf_counter() - started
        return results


class ThreadExecutor(Executor):
    """Thread-pool backend; parallel because the kernels release the GIL."""

    name = "threads"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        def _timed(task: Task) -> Any:
            started = time.perf_counter()
            result = task()
            # float += is a single bytecode pair under the GIL; worst
            # case a racing update is lost, which is fine for a
            # diagnostic counter.
            self.transport.compute_seconds += time.perf_counter() - started
            return result

        if len(tasks) <= 1 or self.workers == 1:
            return [_timed(task) for task in tasks]
        return list(self._ensure_pool().map(_timed, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()


# ----------------------------------------------------------------------
# Pool backend: persistent forked workers, protocol-5 arena transport.
# ----------------------------------------------------------------------

def _picklable_error(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a text stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickle failure
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return RemoteTaskError(f"{type(exc).__name__}: {exc}\n{detail}")


# Pool executors with possibly-live workers, reaped at interpreter exit
# so an aborted run can't leave orphan workers behind.
_LIVE_POOL_EXECUTORS: "weakref.WeakSet[PoolExecutor]" = weakref.WeakSet()
_REAPER_REGISTERED = False


def _reap_leaked_children() -> None:
    for executor in list(_LIVE_POOL_EXECUTORS):
        executor.close()


# Buffers below this ride inside the pickle blob; parking them in the
# arena only pays once the memcpy beats the pickle-copy + descriptor cost.
_ARENA_MIN_BYTES = 1 << 14
# First arena segment size; segments double (at least) on overflow, so a
# steady-state workload settles into one segment per direction quickly.
_ARENA_INITIAL_BYTES = 1 << 20


def _unlink_segment_names(names: Sequence[str]) -> None:
    """Best-effort unlink of shared-memory segments by name (cleanup of
    a dead or stopped worker's arena; already-gone segments are fine)."""
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass
        seg.close()


class _Arena:
    """Grow-only shared-memory bump allocator, recycled between batches.

    ``write`` appends raw bytes at the current offset and returns a
    ``(segment_name, offset, nbytes)`` descriptor the peer can map.  When
    a batch overflows the current segment, a larger one is created and
    the old segment is *retired* — kept alive until the next ``recycle``
    because descriptors already handed out may still point into it.
    ``recycle`` (called once per batch, after the peer is done with the
    previous batch's buffers) rewinds the offset and unlinks retired
    segments, so steady state is zero segment churn: one mapping reused
    for every task.
    """

    __slots__ = ("shm", "capacity", "offset", "retired", "segments_created")

    def __init__(self) -> None:
        self.shm: shared_memory.SharedMemory | None = None
        self.capacity = 0
        self.offset = 0
        self.retired: list[shared_memory.SharedMemory] = []
        self.segments_created = 0

    def recycle(self) -> None:
        self.offset = 0
        for seg in self.retired:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - unlink race
                pass
            seg.close()
        self.retired.clear()

    def write(self, raw) -> tuple[str, int, int]:
        nbytes = raw.nbytes
        if self.shm is None or self.offset + nbytes > self.capacity:
            grown = shared_memory.SharedMemory(
                create=True,
                size=max(_ARENA_INITIAL_BYTES, 2 * self.capacity, nbytes),
            )
            if self.shm is not None:
                self.retired.append(self.shm)
            self.shm = grown
            self.capacity = grown.size
            self.offset = 0
            self.segments_created += 1
        offset = self.offset
        self.shm.buf[offset : offset + nbytes] = raw
        self.offset = offset + nbytes
        return (self.shm.name, offset, nbytes)

    def destroy(self) -> None:
        for seg in [*self.retired, self.shm]:
            if seg is None:
                continue
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            seg.close()
        self.retired.clear()
        self.shm = None
        self.capacity = 0
        self.offset = 0


class _ArenaReader:
    """Read side of a peer's arena: maps segments by name, caches the
    mappings so steady state opens no new segment per batch."""

    __slots__ = ("segments",)

    def __init__(self) -> None:
        self.segments: dict[str, shared_memory.SharedMemory] = {}

    def view(self, name: str, offset: int, nbytes: int):
        seg = self.segments.get(name)
        if seg is None or seg.buf is None:
            # seg.buf is None for a mapping a previous prune half-closed:
            # SharedMemory.close() releases its memoryview before closing
            # the mmap, so a BufferError from live views leaves the object
            # unusable but cached.  Re-attach by name.
            seg = shared_memory.SharedMemory(name=name)
            self.segments[name] = seg
        return seg.buf[offset : offset + nbytes]

    def prune(self, keep: frozenset | set) -> None:
        """Drop mappings of segments the peer has retired.  A mapping
        with live buffer views can't be closed yet (BufferError); it is
        kept and retried on the next prune."""
        for name in list(self.segments):
            if name in keep:
                continue
            seg = self.segments.pop(name)
            try:
                seg.close()
            except BufferError:  # pragma: no cover - views still alive
                self.segments[name] = seg

    def close(self) -> None:
        self.prune(frozenset())


def _dump_with_arena(obj: Any, arena: _Arena, pickler: Any):
    """Pickle ``obj`` with protocol 5, writing every large contiguous
    buffer into ``arena`` (in pickling order) instead of copying it into
    the blob; returns ``(blob, descriptors)``.  Non-contiguous or small
    buffers stay in-band — correctness never depends on a buffer going
    out-of-band."""
    descriptors: list[tuple[str, int, int]] = []

    # buffer_callback contract (PEP 574): a *truthy* return keeps the
    # buffer in-band, a *falsy* one emits a NEXT_BUFFER opcode and makes
    # the caller responsible for transporting it — here, the arena.
    def _callback(buffer: pickle.PickleBuffer) -> bool:
        try:
            raw = buffer.raw()
        except Exception:  # noqa: BLE001 - non-contiguous: keep in-band
            return True
        if raw.nbytes < _ARENA_MIN_BYTES:
            return True
        descriptors.append(arena.write(raw))
        return False

    blob = pickler.dumps(obj, protocol=5, buffer_callback=_callback)
    return blob, descriptors


def _load_with_arena(
    blob: bytes,
    descriptors: Sequence[tuple[str, int, int]],
    reader: _ArenaReader,
) -> Any:
    """Inverse of :func:`_dump_with_arena`; the result may hold views
    into the peer's arena — copy before the next batch recycles it."""
    buffers = [reader.view(*descriptor) for descriptor in descriptors]
    return pickle.loads(blob, buffers=buffers)


def _own_tree(obj: Any) -> Any:
    """Deep-copy ndarrays that don't own writable data (arena views,
    in-band protocol-5 buffers) so results outlive the arena slot they
    arrived in — one memcpy per array, same cost as the shm path."""
    if isinstance(obj, np.ndarray):
        if obj.flags.owndata and obj.flags.writeable:
            return obj
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_own_tree(o) for o in obj)
    if isinstance(obj, list):
        return [_own_tree(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _own_tree(v) for k, v in obj.items()}
    return obj


def _pool_worker_main(conn: mp_connection.Connection) -> None:
    """Long-lived worker body: loop over task batches until "stop".

    One ``("run", blob, descriptors)`` message carries a whole batch of
    ``(key, fn)`` pairs; task buffers are read from the driver's task
    arena, results are pickled per task with buffers parked in this
    worker's own result arena.  The arena is recycled per batch — no
    per-task segment create/unlink — which is safe because the driver
    copies a batch's results out before it sends the next batch.  Tasks
    run strictly in batch order, which is what lets the driver attribute
    a silent death to the first unreported task.  An injected kill
    ``os._exit``s inside ``fn`` — the arena segments it leaves behind
    are unlinked by the driver (it learned their names from earlier
    result descriptors) or, as a last resort, by the shared resource
    tracker at interpreter exit.
    """
    reader = _ArenaReader()
    arena = _Arena()
    status = 0
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _tag, blob, descriptors = msg
            arena.recycle()
            reader.prune({descriptor[0] for descriptor in descriptors})
            items = _load_with_arena(blob, descriptors, reader)
            for key, fn in items:
                started = time.perf_counter()
                try:
                    value = fn()
                except BaseException as exc:  # noqa: BLE001 - outcome channel
                    conn.send(
                        (
                            "err",
                            key,
                            _picklable_error(exc),
                            time.perf_counter() - started,
                        )
                    )
                    continue
                payload, out_descriptors = _dump_with_arena(
                    value, arena, pickle
                )
                del value
                conn.send(
                    (
                        "ok",
                        key,
                        payload,
                        out_descriptors,
                        time.perf_counter() - started,
                    )
                )
            del items
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    except BaseException:  # pragma: no cover - unexpected protocol error
        status = 1
    finally:
        arena.destroy()
        reader.close()
        try:
            conn.close()
        except Exception:  # noqa: BLE001 - teardown
            pass
        os._exit(status)


def _pipe_child_main(
    parent_conn: mp_connection.Connection, target: Callable, *args: Any
) -> None:
    """Fork-child entry of :class:`_PipeChild`: close the inherited copy
    of the parent's pipe end, then run ``target``.  While the child
    holds that copy its own ``recv()`` can never see EOF, so a child
    whose parent was SIGKILLed would block forever instead of exiting."""
    parent_conn.close()
    target(*args)


class _PipeChild:
    """A forked process running the worker loop over a duplex pipe, plus
    the arenas on this side of the pipe: the task arena (the child holds
    views into it until it has finished the batch) and a reader over the
    child's result arena.  The pool holds one per worker."""

    def __init__(self, target: Callable) -> None:
        # Start the resource tracker *before* forking so parent and
        # child share one tracker: segments the child registers at
        # create are unregistered by the parent's unlink, and nothing is
        # reported leaked.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = mp.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_pipe_child_main,
            args=(self.conn, target, child_conn),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.task_arena = _Arena()
        self.reader = _ArenaReader()

    def send(self, *msg: Any) -> bool:
        """Write one message to the child; False if the child is gone."""
        try:
            self.conn.send(msg)
        except (OSError, ValueError):
            return False
        return True

    def retire(self) -> None:
        """Reap the child (already stopped or dead) and unlink every
        arena segment tied to it."""
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # stuck mid-task: "stop" went unread
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        result_segments = list(self.reader.segments)
        self.reader.close()
        # A cleanly-stopped child unlinked its own result arenas; a
        # killed one did not — unlink whatever is still there.
        _unlink_segment_names(result_segments)
        self.task_arena.destroy()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ----------------------------------------------------------------------
# The dispatcher: the pool's driver-side scheduler.
# ----------------------------------------------------------------------

class _Lost(Exception):
    """Raised by :meth:`_Channel.poll` when the worker behind the
    channel is gone; the message says how, for the ``WorkerDied``."""


class _Channel:
    """One worker as the dispatcher sees it.

    The dispatcher owns ``assigned``; a transport supplies the three
    methods, and they are all it may differ in.  A channel holds at most
    one batch: it is busy iff ``assigned`` is non-empty.
    """

    label = "worker"  # leads the WorkerDied message

    def __init__(self) -> None:
        # task indices of the unreported tasks, in dispatch order
        self.assigned: deque[int] = deque()

    def send(self, entries: list[tuple[int, Task]]) -> bool:
        """Encode and ship one batch of ``(key, fn)``; False if the
        worker is gone."""
        raise NotImplementedError

    def waitables(self) -> list:
        """What ``multiprocessing.connection.wait`` should watch while
        this channel has work out."""
        raise NotImplementedError

    def poll(self) -> tuple | None:
        """The next reply, or None when nothing is readable now:
        ``("ok", key, (payload, buffers), duration)`` with the result
        still pickled (the dispatcher unpickles it, so the time lands in
        ``serialize_seconds``) or ``("err", key, exception, duration)``.
        Raises :class:`_Lost` when the worker is gone."""
        raise NotImplementedError


class _Job:
    """The bookkeeping of one ``run_outcomes`` call.  Keys on the wire
    and in ``_Channel.assigned`` are plain task indices: a job returns
    only once every task has reported or been blamed, so no channel
    still holds work of an earlier job."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.tasks = tasks
        self.outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        self.pending: deque[int] = deque(range(len(tasks)))


class _Dispatcher(Executor):
    """The driver-side scheduling state machine of the pool, written
    against :class:`_Channel`.

    Workers run a batch strictly in order and report each task as it
    finishes, so ``assigned`` always has the task in progress at its
    head.  That is the hinge of every rule here: a reply belongs to the
    head, a death blames the head (:class:`WorkerDied`) and requeues the
    rest — which never started — and when no worker is left every
    unresolved task becomes a :class:`WorkerDied` outcome.
    :func:`run_with_recovery`, retry budgets and
    :class:`~repro.engine.faults.FaultPlan` coordinates sit on top
    unchanged, because batching only affects transport: task identity,
    result order and fault verdicts are those of the flat task list.

    Each idle channel gets one batch of ``ceil(n / (2 * live
    channels))`` tasks, two rounds of work per worker for tail balancing
    (``task_batch`` pins another size; only tests do).  A subclass keeps
    ``_channels`` current and implements :meth:`_open_channels` and
    :meth:`_channel_lost`.
    """

    task_batch = 0

    def __init__(self, workers: int | None) -> None:
        if _cloudpickle is None:
            raise ValueError(
                f"the {self.name!r} backend needs cloudpickle for task "
                "transport; install it (pip install cloudpickle) or use "
                "'threads'"
            )
        super().__init__(workers)
        self._channels: list = []
        self.batches_sent = 0

    def _open_channels(self) -> None:
        """Bring ``_channels`` up to strength before a job."""
        raise NotImplementedError

    def _channel_lost(self, channel: _Channel) -> None:
        """``channel`` is gone and its work requeued: replace it or
        drop it from ``_channels``."""
        raise NotImplementedError

    def run_outcomes(self, tasks: Sequence[Task]) -> list[TaskOutcome]:
        if len(tasks) <= 1:
            # In-driver fallback: injected kills degrade to
            # SimulatedWorkerDeath (see FaultPlan.wrap).
            return self._run_inline(tasks)
        self._open_channels()
        job = _Job(tasks)
        while any(o is None for o in job.outcomes):
            self._feed(job)
            busy = [c for c in self._channels if c.assigned]
            if not busy:
                if self._channels:
                    continue  # conclusions above freed work; loop re-feeds
                # Every worker is gone mid-job.  Mark what is left
                # unresolved as WorkerDied instead of raising: the
                # recovery layer backs off and retries, and the next
                # round's _open_channels re-forks.
                for i, outcome in enumerate(job.outcomes):
                    if outcome is None:
                        job.outcomes[i] = TaskOutcome(
                            error=WorkerDied(
                                f"every {self.name} worker was lost "
                                f"before task {i} completed"
                            )
                        )
                break
            wait_started = time.perf_counter()
            mp_connection.wait([w for c in busy for w in c.waitables()])
            self.transport.ipc_wait_seconds += (
                time.perf_counter() - wait_started
            )
            for channel in busy:
                self._drain(channel, job)
        return job.outcomes  # type: ignore[return-value]

    def _feed(self, job: _Job) -> None:
        """Give each idle channel one batch from the head of the queue;
        a batch a channel refused goes back to the head for the next."""
        live = max(1, len(self._channels))
        limit = self.task_batch or max(1, -(-len(job.tasks) // (2 * live)))
        for channel in list(self._channels):
            if not job.pending:
                break
            if channel.assigned:
                continue
            keys = [
                job.pending.popleft()
                for _ in range(min(limit, len(job.pending)))
            ]
            if channel.send([(i, job.tasks[i]) for i in keys]):
                channel.assigned.extend(keys)
                self.batches_sent += 1
            else:
                # Idle, so nothing to blame: the batch is still ours.
                job.pending.extendleft(reversed(keys))
                self._channel_lost(channel)

    def _drain(self, channel: _Channel, job: _Job) -> None:
        """Absorb everything a channel has to say, then let it report a
        loss — in that order, so results a worker managed to send before
        dying are never lost."""
        try:
            while (reply := channel.poll()) is not None:
                self._absorb(channel, reply, job)
        except _Lost as lost:
            self._blame_and_requeue(channel, str(lost), job)
            self._channel_lost(channel)

    def _absorb(self, channel: _Channel, reply: tuple, job: _Job) -> None:
        # Strict order: a reply is always the head's.
        channel.assigned.popleft()
        tag, key, body, duration = reply
        if tag == "err":
            job.outcomes[key] = TaskOutcome(error=body)
            return
        payload, buffers = body
        unpack_started = time.perf_counter()
        value = _own_tree(pickle.loads(payload, buffers=buffers))
        self.transport.serialize_seconds += (
            time.perf_counter() - unpack_started
        )
        job.outcomes[key] = TaskOutcome(value=value)
        self.transport.compute_seconds += duration
        self.transport.payload_bytes += len(payload) + sum(
            len(buf) for buf in buffers
        )

    def _blame_and_requeue(
        self, channel: _Channel, how: str, job: _Job
    ) -> None:
        """A worker died with work outstanding.  The first unreported
        assigned task was in progress and takes the blame; the rest
        never started and are requeued (same wrapped callables — the
        deterministic fault verdict is per (batch, index, attempt), not
        per dispatch)."""
        if not channel.assigned:
            return
        blamed, *unstarted = channel.assigned
        channel.assigned.clear()
        job.outcomes[blamed] = TaskOutcome(
            error=WorkerDied(
                f"{channel.label} {how} before reporting a result for "
                f"task {blamed}"
            )
        )
        job.pending.extend(unstarted)


class _PoolWorker(_Channel):
    """The pipe channel: one persistent forked worker, its batches
    parked in shared-memory arenas either side of the pipe."""

    label = "pool worker"

    def __init__(self, transport: TransportProfile) -> None:
        super().__init__()
        self.transport = transport
        started = time.perf_counter()
        self.child = _PipeChild(_pool_worker_main)
        transport.submit_seconds += time.perf_counter() - started

    def send(self, entries: list[tuple[int, Task]]) -> bool:
        # The previous batch has fully replied (one batch per channel),
        # so the child holds no view into the arena any more.
        arena = self.child.task_arena
        arena.recycle()
        serialize_started = time.perf_counter()
        blob, descriptors = _dump_with_arena(entries, arena, _cloudpickle)
        send_started = time.perf_counter()
        if not self.child.send("run", blob, descriptors):
            return False
        now = time.perf_counter()
        self.transport.serialize_seconds += send_started - serialize_started
        self.transport.submit_seconds += now - send_started
        self.transport.payload_bytes += len(blob) + sum(
            descriptor[2] for descriptor in descriptors
        )
        return True

    def waitables(self) -> list:
        # The sentinel too, so a worker that dies without a word (a
        # FaultPlan kill's os._exit) wakes the driver.
        return [self.child.conn, self.child.proc.sentinel]

    def poll(self) -> tuple | None:
        child = self.child
        try:
            msg = child.conn.recv() if child.conn.poll() else None
        except (EOFError, OSError):
            msg = None
        if msg is None:
            if self.assigned and not child.proc.is_alive():
                raise _Lost(f"exited with code {child.proc.exitcode}")
            return None
        if msg[0] == "ok":
            _tag, key, payload, descriptors, duration = msg
            views = [child.reader.view(*d) for d in descriptors]
            return ("ok", key, (payload, views), duration)
        return msg  # ("err", key, exception, duration)


class PoolExecutor(_Dispatcher):
    """Persistent forked worker pool with zero-copy batch transport.

    Workers are forked once (lazily, on the first multi-task batch) and
    reused for every subsequent batch, so the fork + import-state cost is
    paid ``workers`` times per executor lifetime instead of once per
    task.  See the module docstring for the transport protocol and
    :class:`_Dispatcher` for scheduling and recovery.  A worker's single
    task arena is recycled per batch, so batches and their replies
    strictly alternate.  A worker that dies (an injected
    ``os._exit(73)`` kill, say) is respawned in place.
    """

    name = "pool"

    def __init__(self, workers: int | None = None) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise ValueError(
                "the 'pool' backend needs the fork start method "
                "(unavailable on this platform); use 'threads' instead"
            )
        super().__init__(workers)
        self.workers_forked = 0
        self.workers_respawned = 0
        global _REAPER_REGISTERED
        _LIVE_POOL_EXECUTORS.add(self)
        if not _REAPER_REGISTERED:
            atexit.register(_reap_leaked_children)
            _REAPER_REGISTERED = True

    def arena_stats(self) -> dict[str, list[int]]:
        """Per-live-worker arena segment counts (diagnostic/test hook):
        how many task-arena segments the driver ever created for each
        worker, and how many result-arena segments it currently maps.
        Steady state is 1 and 1 — reuse, not churn."""
        children = [worker.child for worker in self._channels]
        return {
            "task_segments": [c.task_arena.segments_created for c in children],
            "result_segments": [len(c.reader.segments) for c in children],
        }

    def run_outcomes(self, tasks: Sequence[Task]) -> list[TaskOutcome]:
        if self.workers == 1:
            return self._run_inline(tasks)  # no one to share with
        return super().run_outcomes(tasks)

    def _new_worker(self) -> _PoolWorker:
        self.workers_forked += 1
        return _PoolWorker(self.transport)

    def _open_channels(self) -> None:
        while len(self._channels) < self.workers:
            self._channels.append(self._new_worker())

    def _channel_lost(self, channel: _Channel) -> None:
        channel.child.retire()
        self._channels[self._channels.index(channel)] = self._new_worker()
        self.workers_respawned += 1

    def close(self) -> None:
        for worker in self._channels:
            worker.child.send("stop")
        for worker in self._channels:
            worker.child.retire()
        self._channels.clear()
        super().close()


# ----------------------------------------------------------------------
# Lineage-based recovery: retry rounds with backoff over run_outcomes.
# ----------------------------------------------------------------------

def run_with_recovery(
    executor: Executor,
    tasks: Sequence[Task],
    *,
    fault_plan: FaultPlan | None = None,
    batch: int = 0,
    max_task_retries: int = 3,
    backoff_seconds: float = 0.01,
    stats: RecoveryStats | None = None,
) -> list[Any]:
    """Run a task batch, retrying failed tasks from lineage.

    Each engine task closure captures its materialised anchor partitions
    (source arrays or ``persist()``-ed blocks), so re-invoking a failed
    task recomputes exactly the lost partition's fused operator chain
    from its narrowest persisted or source ancestor — the Spark recovery
    model at batch granularity.  A task may fail up to
    ``max_task_retries`` times; rounds are separated by exponential
    backoff (``backoff_seconds * 2**(round-1)``, capped at 1s).  When the
    budget is exhausted the *original* exception is re-raised.

    ``fault_plan`` wraps each attempt with its deterministic injection
    verdict (attempt numbers advance per failure, so a plan with
    ``max_failures_per_task <= max_task_retries`` always converges).
    """
    n = len(tasks)
    if n == 0:
        return []
    plan = (
        fault_plan
        if fault_plan is not None and not fault_plan.is_zero
        else None
    )
    driver_pid = os.getpid()
    if stats is None:
        stats = RecoveryStats()
    results: list[Any] = [None] * n
    failures = [0] * n
    pending = list(range(n))
    round_no = 0
    while pending:
        if round_no > 0:
            time.sleep(min(backoff_seconds * (2 ** (round_no - 1)), 1.0))
        if plan is not None:
            wrapped = [
                plan.wrap(
                    tasks[i],
                    batch=batch,
                    index=i,
                    attempt=failures[i],
                    driver_pid=driver_pid,
                )
                for i in pending
            ]
        else:
            wrapped = [tasks[i] for i in pending]
        outcomes = executor.run_outcomes(wrapped)
        next_pending: list[int] = []
        for pos, i in enumerate(pending):
            outcome = outcomes[pos]
            if outcome.ok:
                results[i] = outcome.value
                if round_no > 0:
                    # Tasks that know their lineage (fused chains) expose
                    # a `recovery_bytes` accountant covering every re-run
                    # operator segment plus the anchor; plain
                    # tasks fall back to the result's payload size.
                    accountant = getattr(tasks[i], "recovery_bytes", None)
                    if accountant is not None:
                        stats.recompute_bytes += int(
                            accountant(outcome.value)
                        )
                    else:
                        stats.recompute_bytes += _result_nbytes(
                            outcome.value
                        )
                continue
            stats.tasks_failed += 1
            failures[i] += 1
            if failures[i] > max_task_retries:
                error = outcome.error
                if hasattr(error, "add_note"):
                    error.add_note(
                        f"task {i} of batch {batch} failed {failures[i]} "
                        f"time(s); max_task_retries={max_task_retries} "
                        "exhausted"
                    )
                raise error
            stats.tasks_retried += 1
            next_pending.append(i)
        pending = next_pending
        round_no += 1
    return results


# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    PoolExecutor.name: PoolExecutor,
}


def available_backends() -> tuple[str, ...]:
    return tuple(_BACKENDS)


def make_executor(
    name: str | None = None, workers: int | None = None
) -> Executor:
    """Instantiate a backend; ``None`` arguments fall back to the
    ``REPRO_EXECUTOR`` / ``REPRO_LOCAL_WORKERS`` environment variables,
    then to ``serial`` with one worker per CPU."""
    backend = config.resolve("executor", name)
    return _BACKENDS[backend](config.resolve("local_workers", workers))
