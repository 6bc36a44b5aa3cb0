"""The pool's dispatcher, driven through an in-memory fake channel.

``PoolExecutor`` is a scheduling state machine (``_Dispatcher``) over a
pipe transport (``_Channel``).  These tests substitute a transport that
forks nothing — a channel that runs each task in the driver when it is
sent and hands the replies back under the test's control — so the
ordering, error and worker-loss rules are exercised directly instead of
by killing real workers.  Every job runs one copy per task, and a
failed job drains what it dispatched before it raises, so
:class:`FakeDispatcher` checks after each ``run`` — returned or raised
— that no channel still holds work: that is what lets wire keys be
plain task indices.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import weakref
from collections import deque

import pytest

from repro.engine.executor import (
    TransportProfile,
    WorkerDied,
    _Channel,
    _Dispatcher,
    _Job,
    _Lost,
)


class FakeChannel(_Channel):
    """Runs a batch at ``send`` and queues the replies; ``poll`` then
    releases them, withholds them (``held``), or takes the channel down
    after ``dies_after`` replies."""

    label = "fake worker"

    def __init__(self, *, dies_after=None, refuse=False, held=lambda: False):
        super().__init__()
        self.dies_after = dies_after
        self.refuse = refuse
        self.held = held
        self.batches: list[list[int]] = []  # task indices per batch
        self.outbox: deque = deque()
        self.delivered = 0
        # The read end of a pipe holding one unread byte: always
        # readable, so the dispatcher's wait on this channel returns at
        # once.
        self.ready, writer = os.pipe()
        os.write(writer, b"x")
        os.close(writer)
        weakref.finalize(self, os.close, self.ready)

    def send(self, entries):
        if self.refuse:
            return False
        self.batches.append([key for key, _fn in entries])
        for key, fn in entries:
            try:
                reply = ("ok", key, (pickle.dumps(fn()), []), 0.001)
            except Exception as exc:  # noqa: BLE001 - the "err" reply
                reply = ("err", key, exc, 0.001)
            self.outbox.append(reply)
        return True

    def waitables(self):
        return [self.ready]

    def poll(self):
        if self.held() or not self.outbox:
            return None
        if self.delivered == self.dies_after:
            self.dies_after = None
            self.outbox.clear()
            raise _Lost("lost (unplugged)")
        self.delivered += 1
        return self.outbox.popleft()


class FakeDispatcher(_Dispatcher):
    name = "fake"

    def __init__(self, channels, *, task_batch=0):
        super().__init__(len(channels))
        self._channels = list(channels)
        self.task_batch = task_batch
        self.lost: list[FakeChannel] = []

    def _open_channels(self):
        pass

    def _channel_lost(self, channel):
        self._channels.remove(channel)
        self.lost.append(channel)

    def run(self, tasks):
        try:
            return super().run(tasks)
        finally:
            # One copy per task: a finished job, failed or not, leaves
            # no work behind.
            assert not any(c.assigned for c in self._channels + self.lost)


def tasks(n):
    return [lambda i=i: i * 10 for i in range(n)]


def job_of(n):
    return _Job(tasks(n))


class TestOrdering:
    def test_replies_out_of_channel_order_land_positionally(self):
        late = FakeChannel()
        early = FakeChannel()
        late.held = lambda: bool(early.outbox) or early.delivered < 2
        ex = FakeDispatcher([late, early], task_batch=2)
        assert ex.run(tasks(4)) == [0, 10, 20, 30]
        assert late.batches[0] == [0, 1]
        assert early.batches[0] == [2, 3]
        assert ex.batches_sent == 2
        assert not late.assigned

    def test_adaptive_batch_gives_each_channel_two_rounds(self):
        a, b = FakeChannel(), FakeChannel()
        ex = FakeDispatcher([a, b])  # task_batch=0: ceil(8 / (2 * 2))
        assert ex.run(tasks(8)) == [i * 10 for i in range(8)]
        assert [len(batch) for batch in a.batches + b.batches] == [2] * 4

    def test_a_busy_channel_gets_no_second_batch(self):
        a, b = FakeChannel(), FakeChannel()
        a.held = b.held = lambda: True
        ex = FakeDispatcher([a, b], task_batch=1)
        job = job_of(5)
        ex._feed(job)
        ex._feed(job)
        assert a.batches == [[0]]
        assert b.batches == [[1]]
        assert list(job.pending) == [2, 3, 4]


class TestTaskError:
    def test_err_reply_stops_feeding_and_raises_after_drain(self):
        boom = ValueError("task 1 failed")

        def failing():
            raise boom

        a, b = FakeChannel(), FakeChannel()
        ex = FakeDispatcher([a, b], task_batch=2)
        work = tasks(8)
        work[1] = failing
        with pytest.raises(ValueError) as exc:
            ex.run(work)
        assert exc.value is boom
        assert not getattr(boom, "__notes__", None)
        # The in-flight batches drained; tasks 4-7 were never sent and
        # nothing was resent.
        assert a.batches == [[0, 1]] and b.batches == [[2, 3]]
        assert b.delivered == 2
        assert ex.batches_sent == 2 and ex.lost == []

    def test_lowest_indexed_failure_is_raised(self):
        def failing(i):
            def task():
                raise ValueError(f"task {i} failed")
            return task

        a, b = FakeChannel(), FakeChannel()
        # Task 2's error arrives first; task 0's, in the batch still in
        # flight, arrives after it and wins.
        a.held = lambda: b.delivered < 2
        ex = FakeDispatcher([a, b], task_batch=2)
        work = tasks(4)
        work[0], work[2] = failing(0), failing(2)
        with pytest.raises(ValueError, match="task 0 failed"):
            ex.run(work)


class TestWorkerLoss:
    def test_lost_channel_raises_workerdied_after_others_drain(self):
        doomed = FakeChannel(dies_after=1)  # reports task 0, dies in 1
        healthy = FakeChannel()
        healthy.held = lambda: not ex.lost
        ex = FakeDispatcher([doomed, healthy], task_batch=4)
        with pytest.raises(WorkerDied) as exc:
            ex.run(tasks(12))
        assert "fake worker lost (unplugged)" in str(exc.value)
        assert "task 1" in str(exc.value)
        assert doomed.batches == [[0, 1, 2, 3]]
        # The healthy channel's batch drained before the raise; nothing
        # was requeued onto it and tasks 8-11 were never sent.
        assert healthy.batches == [[4, 5, 6, 7]]
        assert healthy.delivered == 4
        assert ex.lost == [doomed] and ex._channels == [healthy]

    def test_every_channel_lost_raises_the_lowest_blamed_task(self):
        a = FakeChannel(dies_after=1)  # blamed for task 1
        b = FakeChannel(dies_after=0)  # blamed for task 2
        ex = FakeDispatcher([a, b], task_batch=2)
        with pytest.raises(WorkerDied, match="task 1$"):
            ex.run(tasks(6))
        assert ex._channels == []

    def test_refused_send_raises_workerdied(self):
        refusing = FakeChannel(refuse=True)
        healthy = FakeChannel()
        ex = FakeDispatcher([refusing, healthy], task_batch=2)
        with pytest.raises(WorkerDied, match="refused its batch .* task 0$"):
            ex.run(tasks(6))
        # The refusal stopped the feeding before the healthy channel got
        # a batch.
        assert healthy.batches == [] and refusing.batches == []
        assert ex.lost == [refusing]


class TestTransportProfile:
    def test_as_dict_and_reset_cover_every_field(self):
        names = [f.name for f in dataclasses.fields(TransportProfile)]
        profile = TransportProfile(**{name: 7 for name in names})
        assert list(profile.as_dict()) == names
        assert set(profile.as_dict().values()) == {7}
        profile.reset()
        assert profile == TransportProfile()
        assert not any(profile.as_dict().values())
