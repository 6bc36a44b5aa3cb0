"""The pool's scheduling rules, driven through fake workers.

``PoolExecutor`` feeds batches to its workers, drains their replies and
applies the ordering, error and worker-loss rules.  These tests put a
fake in place of ``_Worker`` that forks nothing: it runs each batch in
the driver when it is sent and hands the replies back, in the wire
format, under the test's control — so the rules are exercised directly
instead of by killing real workers.  Every job runs one copy per task,
and a failed job drains what it dispatched before it raises, so
:class:`CheckedPool` checks after each ``run`` — returned or raised —
that no worker still holds work: that is what lets wire keys be plain
task indices.  One case kills a real worker.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import pickle
import signal
import weakref
from collections import deque

import pytest

from repro.engine import executor
from repro.engine.executor import (
    PoolExecutor,
    TransportProfile,
    WorkerDied,
    _Arena,
    _ArenaReader,
    _Job,
    _load_with_arena,
)


def _readable_fd(owner) -> int:
    """The read end of a pipe holding one unread byte: always readable,
    so the executor's wait on it returns at once."""
    fd, writer = os.pipe()
    os.write(writer, b"x")
    os.close(writer)
    weakref.finalize(owner, os.close, fd)
    return fd


class FakeConn:
    """The driver's end of a fake worker's pipe."""

    def __init__(self, worker: "FakeWorker") -> None:
        self.worker = worker
        self.fd = _readable_fd(self)

    def fileno(self) -> int:
        return self.fd

    def poll(self) -> bool:
        return self.worker.releasable()

    def recv(self) -> tuple:
        self.worker.delivered += 1
        return self.worker.outbox.popleft()


class FakeProc:
    def __init__(self) -> None:
        self.sentinel = _readable_fd(self)
        self.exitcode = None

    def is_alive(self) -> bool:
        return self.exitcode is None


class FakeWorker:
    """Stands in for ``_Worker``: runs a batch at ``send`` and queues the
    replies; ``conn.poll`` then releases them, withholds them
    (``held``), or the worker dies after ``dies_after`` replies."""

    def __init__(self, *, dies_after=None, refuse=False, held=lambda: False):
        self.dies_after = dies_after
        self.refuse = refuse
        self.held = held
        self.conn = FakeConn(self)
        self.proc = FakeProc()
        self.task_arena = _Arena()
        self.reader = _ArenaReader()
        self.assigned: deque[int] = deque()
        self.batches: list[list[int]] = []  # task indices per batch
        self.outbox: deque = deque()
        self.delivered = 0
        self.retired = False

    def send(self, *msg) -> bool:
        if self.refuse:
            return False
        if msg[0] == "stop":
            return True
        _tag, blob, descriptors = msg
        entries = _load_with_arena(blob, descriptors, self.reader)
        self.batches.append([key for key, _fn in entries])
        for key, fn in entries:
            try:
                reply = ("ok", key, pickle.dumps(fn()), [], 0.001)
            except Exception as exc:  # noqa: BLE001 - the "err" reply
                reply = ("err", key, exc, 0.001)
            self.outbox.append(reply)
        return True

    def releasable(self) -> bool:
        if self.held() or not self.outbox:
            return False
        if self.delivered == self.dies_after:
            self.outbox.clear()
            self.proc.exitcode = -9
            return False
        return True

    def retire(self) -> None:
        self.retired = True


class CheckedPool(PoolExecutor):
    """A pool over fakes that checks, after every job, that no worker
    still holds work."""

    def __init__(self, fakes, *, task_batch=0):
        super().__init__(len(fakes))
        self.fakes = list(fakes)
        self.task_batch = task_batch

    @property
    def lost(self) -> list[FakeWorker]:
        return [w for w in self.fakes if w.retired]

    def run(self, tasks):
        try:
            return super().run(tasks)
        finally:
            # One copy per task: a finished job, failed or not, leaves
            # no work behind.
            assert not any(w.assigned for w in self.fakes)


@pytest.fixture
def pool(monkeypatch):
    """``pool(fakes, task_batch=0)``: a :class:`CheckedPool` whose
    workers are ``fakes``, in order; it forks nothing."""
    made = []

    def make(fakes, *, task_batch=0):
        spare = list(fakes)
        monkeypatch.setattr(executor, "_Worker", lambda: spare.pop(0))
        made.append(CheckedPool(fakes, task_batch=task_batch))
        return made[-1]

    yield make
    for ex in made:
        ex.close()


def tasks(n):
    return [lambda i=i: i * 10 for i in range(n)]


class TestOrdering:
    def test_replies_out_of_channel_order_land_positionally(self, pool):
        late = FakeWorker()
        early = FakeWorker()
        late.held = lambda: bool(early.outbox) or early.delivered < 2
        ex = pool([late, early], task_batch=2)
        assert ex.run(tasks(4)) == [0, 10, 20, 30]
        assert late.batches[0] == [0, 1]
        assert early.batches[0] == [2, 3]
        assert ex.batches_sent == 2
        assert not late.assigned

    def test_adaptive_batch_gives_each_channel_two_rounds(self, pool):
        a, b = FakeWorker(), FakeWorker()
        ex = pool([a, b])  # task_batch=0: ceil(8 / (2 * 2))
        assert ex.run(tasks(8)) == [i * 10 for i in range(8)]
        assert [len(batch) for batch in a.batches + b.batches] == [2] * 4

    def test_a_busy_channel_gets_no_second_batch(self, pool):
        a, b = FakeWorker(), FakeWorker()
        a.held = b.held = lambda: True
        ex = pool([a, b], task_batch=1)
        ex._workers[:] = [a, b]
        job = _Job(tasks(5))
        ex._feed(job)
        ex._feed(job)
        assert a.batches == [[0]]
        assert b.batches == [[1]]
        assert list(job.pending) == [2, 3, 4]


class TestTaskError:
    def test_err_reply_stops_feeding_and_raises_after_drain(self, pool):
        def failing():
            raise ValueError("task 1 failed")

        a, b = FakeWorker(), FakeWorker()
        ex = pool([a, b], task_batch=2)
        work = tasks(8)
        work[1] = failing
        with pytest.raises(ValueError) as exc:
            ex.run(work)
        assert type(exc.value) is ValueError
        assert exc.value.args == ("task 1 failed",)
        assert not getattr(exc.value, "__notes__", None)
        # The in-flight batches drained; tasks 4-7 were never sent and
        # nothing was resent.
        assert a.batches == [[0, 1]] and b.batches == [[2, 3]]
        assert b.delivered == 2
        assert ex.batches_sent == 2 and ex.lost == []

    def test_lowest_indexed_failure_is_raised(self, pool):
        def failing(i):
            def task():
                raise ValueError(f"task {i} failed")
            return task

        a, b = FakeWorker(), FakeWorker()
        # Task 2's error arrives first; task 0's, in the batch still in
        # flight, arrives after it and wins.
        a.held = lambda: b.delivered < 2
        ex = pool([a, b], task_batch=2)
        work = tasks(4)
        work[0], work[2] = failing(0), failing(2)
        with pytest.raises(ValueError, match="task 0 failed"):
            ex.run(work)


class TestWorkerLoss:
    def test_lost_channel_raises_workerdied_after_others_drain(self, pool):
        doomed = FakeWorker(dies_after=1)  # reports task 0, dies in 1
        healthy = FakeWorker()
        healthy.held = lambda: not ex.lost
        ex = pool([doomed, healthy], task_batch=4)
        with pytest.raises(WorkerDied) as exc:
            ex.run(tasks(12))
        assert "pool worker exited with code -9" in str(exc.value)
        assert "task 1" in str(exc.value)
        assert doomed.batches == [[0, 1, 2, 3]]
        # The healthy worker's batch drained before the raise; nothing
        # was requeued onto it and tasks 8-11 were never sent.
        assert healthy.batches == [[4, 5, 6, 7]]
        assert healthy.delivered == 4
        assert ex.lost == [doomed] and ex._workers == [healthy]

    def test_every_channel_lost_raises_the_lowest_blamed_task(self, pool):
        a = FakeWorker(dies_after=1)  # blamed for task 1
        b = FakeWorker(dies_after=0)  # blamed for task 2
        ex = pool([a, b], task_batch=2)
        with pytest.raises(WorkerDied, match="task 1$"):
            ex.run(tasks(6))
        assert ex._workers == []

    def test_refused_send_raises_workerdied(self, pool):
        refusing = FakeWorker(refuse=True)
        healthy = FakeWorker()
        ex = pool([refusing, healthy], task_batch=2)
        with pytest.raises(WorkerDied, match="refused its batch .* task 0$"):
            ex.run(tasks(6))
        # The refusal stopped the feeding before the healthy worker got
        # a batch.
        assert healthy.batches == [] and refusing.batches == []
        assert ex.lost == [refusing]

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
    )
    def test_killed_idle_worker_refuses_its_batch_and_is_replaced(self):
        """A real worker SIGKILLed while idle cannot take the next batch:
        that job fails with ``WorkerDied``, and the job after it forks a
        replacement."""
        with PoolExecutor(2) as ex:
            assert ex.run(tasks(4)) == [0, 10, 20, 30]
            victim = ex._workers[1].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(WorkerDied, match="refused its batch"):
                ex.run(tasks(4))
            assert ex.run(tasks(4)) == [0, 10, 20, 30]
            assert ex.workers_forked == 3


class TestTransportProfile:
    def test_as_dict_and_reset_cover_every_field(self):
        names = [f.name for f in dataclasses.fields(TransportProfile)]
        profile = TransportProfile(**{name: 7 for name in names})
        assert list(profile.as_dict()) == names
        assert set(profile.as_dict().values()) == {7}
        profile.reset()
        assert profile == TransportProfile()
        assert not any(profile.as_dict().values())
