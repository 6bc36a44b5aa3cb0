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

Two backends are provided, both on the driver's host:

``serial``
    The original driver-loop behaviour; the default, and the reference
    for determinism.
``pool``
    Persistent forked workers running a task loop over a duplex pipe —
    the fork cost is paid ``workers`` times per executor, not per task
    (requires the ``fork`` start method: Linux/macOS).  Task closures
    ship as one pickle protocol-5 batch per IPC round (``cloudpickle``
    for the closures), with large array buffers carried out-of-band
    through a grow-only shared-memory *arena* per direction that is
    recycled across batches: no per-task segment create/unlink, one
    memcpy each way.

The pool's scheduling lives in :class:`PoolExecutor` itself — give
every idle worker one batch, wait, drain replies, and apply the two
rules: absorb each reply as the head task's result, and on the first
task error or worker loss stop feeding, drain what is still in flight
and raise.  A :class:`_Worker` is one forked process with its pipe and
the arenas on the driver's side of it; the worker side is
:func:`_pool_worker_main`.

Every RNG stream in the engine is keyed by ``(seed, partition_index)``
and results are gathered in partition order, so every backend
produces bit-identical datasets for identical seeds (tested).

Task failure: :meth:`Executor.run` raises the first failure and
retries nothing.  Every task is a pure function of ``(seed,
partition)``, so re-running one that raised could only raise again.  A
pool worker that dies mid-task surfaces as :class:`WorkerDied`; its
child is reaped, its arena segments unlinked, and the next job forks a
replacement.

Selection: ``ClusterContext(executor="pool", local_workers=8)``, or
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
from dataclasses import dataclass, fields
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from .. import config

try:  # the pool backend needs cloudpickle for task-closure transport
    import cloudpickle as _cloudpickle
except Exception:  # pragma: no cover - baked into the image, but gated
    _cloudpickle = None

__all__ = [
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "TransportProfile",
    "WorkerDied",
    "RemoteTaskError",
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


class Executor:
    """Runs a batch of independent zero-argument tasks, preserving order.

    Results are positionally aligned with ``tasks`` no matter in which
    order the backend completes them — the determinism contract the RDD
    layer relies on.  :meth:`run` raises the first failure; no task is
    retried.  The base implementation runs every task in the driver
    loop: that is the ``serial`` backend, and the ``pool``'s fallback
    for degenerate batches.
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
        """Run a batch; the results in task order, or the first error."""
        results = []
        for task in tasks:
            started = time.perf_counter()
            results.append(task())
            self.transport.compute_seconds += time.perf_counter() - started
        return results

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


def _pool_worker_main(
    conn: mp_connection.Connection, driver_end: mp_connection.Connection
) -> None:
    """Long-lived worker body: loop over task batches until "stop".

    ``driver_end`` is the fork-inherited copy of the driver's end of the
    pipe, closed first: while the worker holds it its own ``recv()`` can
    never see EOF, so a worker whose driver was SIGKILLed would block
    forever instead of exiting.

    One ``("run", blob, descriptors)`` message carries a whole batch of
    ``(key, fn)`` pairs; task buffers are read from the driver's task
    arena, results are pickled per task with buffers parked in this
    worker's own result arena.  The arena is recycled per batch — no
    per-task segment create/unlink — which is safe because the driver
    copies a batch's results out before it sends the next batch.  Tasks
    run strictly in batch order, which is what lets the driver attribute
    a silent death to the first unreported task.  A task that
    ``os._exit``s inside ``fn`` leaves arena segments behind; they are
    unlinked by the driver (it learned their names from earlier result
    descriptors) or, as a last resort, by the shared resource tracker
    at interpreter exit.
    """
    driver_end.close()
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


class _Worker:
    """One persistent forked worker as the driver sees it: the process
    running :func:`_pool_worker_main`, the duplex pipe to it, the task
    arena (the worker holds views into it until it has finished the
    batch), a reader over the worker's result arena, and ``assigned``:
    the task indices of its unreported tasks, in dispatch order.  A
    worker holds at most one batch: it is busy iff ``assigned`` is
    non-empty."""

    def __init__(self) -> None:
        # Start the resource tracker *before* forking so driver and
        # worker share one tracker: segments the worker registers at
        # create are unregistered by the driver's unlink, and nothing is
        # reported leaked.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = mp.get_context("fork")
        self.conn, worker_end = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_pool_worker_main,
            args=(worker_end, self.conn),
            daemon=True,
        )
        self.proc.start()
        worker_end.close()
        self.task_arena = _Arena()
        self.reader = _ArenaReader()
        self.assigned: deque[int] = deque()

    def send(self, *msg: Any) -> bool:
        """Write one message to the worker; False if it is gone."""
        try:
            self.conn.send(msg)
        except (OSError, ValueError):
            return False
        return True

    def retire(self) -> None:
        """Reap the process (already stopped or dead) and unlink every
        arena segment tied to it."""
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # stuck mid-task: "stop" went unread
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        result_segments = list(self.reader.segments)
        self.reader.close()
        # A cleanly-stopped worker unlinked its own result arenas; a
        # killed one did not — unlink whatever is still there.
        _unlink_segment_names(result_segments)
        self.task_arena.destroy()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _Job:
    """The bookkeeping of one ``run`` call.  Keys on the wire and in
    ``_Worker.assigned`` are plain task indices: a job returns or raises
    only once every dispatched task has reported or been blamed, so no
    worker still holds work of an earlier job."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.tasks = tasks
        self.results: list[Any] = [None] * len(tasks)
        self.pending: deque[int] = deque(range(len(tasks)))
        self.failures: dict[int, BaseException] = {}

    def fail(self, key: int, error: BaseException) -> None:
        """Record a failed task and stop feeding: what is still queued
        is never sent."""
        self.failures.setdefault(key, error)
        self.pending.clear()


class PoolExecutor(Executor):
    """Persistent forked worker pool with zero-copy batch transport.

    Workers are forked once (lazily, on the first multi-task batch) and
    reused for every subsequent batch, so the fork + import-state cost is
    paid ``workers`` times per executor lifetime instead of once per
    task.  See the module docstring for the transport protocol.  A
    worker's single task arena is recycled per batch, so batches and
    their replies strictly alternate.

    Workers run a batch strictly in order and report each task as it
    finishes, so ``assigned`` always has the task in progress at its
    head.  That is the hinge of both scheduling rules: a reply belongs to
    the head, and a death blames the head (:class:`WorkerDied`).  The
    first ``err`` reply or worker loss stops the feeding; the batches
    still in flight drain, and then the error of the lowest-indexed
    failed task is raised.  A lost worker is retired, not replaced
    mid-job; the next job forks a replacement.

    Each idle worker gets one batch of ``ceil(n / (2 * live workers))``
    tasks, two rounds of work per worker for tail balancing
    (``task_batch`` pins another size; only tests do).
    """

    name = "pool"
    task_batch = 0

    def __init__(self, workers: int | None = None) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise ValueError(
                "the 'pool' backend needs the fork start method "
                "(unavailable on this platform); use 'serial' instead"
            )
        if _cloudpickle is None:
            raise ValueError(
                "the 'pool' backend needs cloudpickle for task transport; "
                "install it (pip install cloudpickle) or use 'serial'"
            )
        super().__init__(workers)
        self._workers: list[_Worker] = []
        self.batches_sent = 0
        self.workers_forked = 0
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
        return {
            "task_segments": [
                w.task_arena.segments_created for w in self._workers
            ],
            "result_segments": [len(w.reader.segments) for w in self._workers],
        }

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        if len(tasks) <= 1 or self.workers == 1:
            return super().run(tasks)  # in the driver: no one to share with
        while len(self._workers) < self.workers:
            started = time.perf_counter()
            self._workers.append(_Worker())
            self.transport.submit_seconds += time.perf_counter() - started
            self.workers_forked += 1
        job = _Job(tasks)
        while True:
            self._feed(job)
            busy = [w for w in self._workers if w.assigned]
            if not busy:
                break
            wait_started = time.perf_counter()
            # The sentinel too, so a worker that dies without a word (an
            # os._exit in a task) wakes the driver.
            mp_connection.wait(
                [x for w in busy for x in (w.conn, w.proc.sentinel)]
            )
            self.transport.ipc_wait_seconds += (
                time.perf_counter() - wait_started
            )
            for worker in busy:
                self._drain(worker, job)
        if job.failures:
            raise job.failures[min(job.failures)]
        return job.results

    def _feed(self, job: _Job) -> None:
        """Give each idle worker one batch from the head of the queue."""
        live = max(1, len(self._workers))
        limit = self.task_batch or max(1, -(-len(job.tasks) // (2 * live)))
        for worker in list(self._workers):
            if not job.pending:
                break
            if worker.assigned:
                continue
            keys = [
                job.pending.popleft()
                for _ in range(min(limit, len(job.pending)))
            ]
            try:
                sent = self._send(worker, [(i, job.tasks[i]) for i in keys])
            except Exception as exc:  # noqa: BLE001 - a batch that won't pickle
                # Raised only after the batches in flight drain: raising
                # now would leave their replies to the next job.
                job.fail(keys[0], exc)
                continue
            if sent:
                worker.assigned.extend(keys)
                self.batches_sent += 1
            else:
                self._lose(worker, keys[0], "refused its batch", job)

    def _send(self, worker: _Worker, entries: list[tuple[int, Task]]) -> bool:
        """Encode and ship one batch of ``(key, fn)``; False if the
        worker is gone."""
        # The previous batch has fully replied (one batch per worker),
        # so the worker holds no view into the arena any more.
        worker.task_arena.recycle()
        serialize_started = time.perf_counter()
        blob, descriptors = _dump_with_arena(
            entries, worker.task_arena, _cloudpickle
        )
        send_started = time.perf_counter()
        if not worker.send("run", blob, descriptors):
            return False
        now = time.perf_counter()
        self.transport.serialize_seconds += send_started - serialize_started
        self.transport.submit_seconds += now - send_started
        self.transport.payload_bytes += len(blob) + sum(
            descriptor[2] for descriptor in descriptors
        )
        return True

    def _drain(self, worker: _Worker, job: _Job) -> None:
        """Absorb everything a worker has sent, then check whether it is
        gone — in that order, so results a worker managed to send before
        dying are never lost."""
        while True:
            try:
                msg = worker.conn.recv() if worker.conn.poll() else None
            except (EOFError, OSError):
                msg = None
            if msg is None:
                break
            self._absorb(worker, msg, job)
        if worker.assigned and not worker.proc.is_alive():
            self._lose(
                worker,
                worker.assigned[0],
                f"exited with code {worker.proc.exitcode}",
                job,
            )

    def _absorb(self, worker: _Worker, msg: tuple, job: _Job) -> None:
        # Strict order: a reply is always the head's.
        worker.assigned.popleft()
        if msg[0] == "err":
            _tag, key, error, _duration = msg
            job.fail(key, error)
            return
        _tag, key, payload, descriptors, duration = msg
        buffers = [worker.reader.view(*d) for d in descriptors]
        unpack_started = time.perf_counter()
        job.results[key] = _own_tree(pickle.loads(payload, buffers=buffers))
        self.transport.serialize_seconds += (
            time.perf_counter() - unpack_started
        )
        self.transport.compute_seconds += duration
        self.transport.payload_bytes += len(payload) + sum(
            descriptor[2] for descriptor in descriptors
        )

    def _lose(self, worker: _Worker, key: int, how: str, job: _Job) -> None:
        """A worker is gone holding task ``key`` (in progress, or the
        head of a batch it could not take): blame that task and retire
        the worker.  The rest of its batch never started."""
        job.fail(
            key,
            WorkerDied(
                f"pool worker {how} before reporting a result for task {key}"
            ),
        )
        worker.assigned.clear()
        worker.retire()
        self._workers.remove(worker)

    def close(self) -> None:
        for worker in self._workers:
            worker.send("stop")
        for worker in self._workers:
            worker.retire()
        self._workers.clear()
        super().close()


# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
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
