"""The pool's dispatcher, driven through an in-memory fake channel.

``PoolExecutor`` is a scheduling state machine (``_Dispatcher``) over a
pipe transport (``_Channel``).  These tests substitute a transport that
forks nothing — a channel that runs each task in the driver when it is
sent and hands the replies back under the test's control — so the
ordering, blame-and-requeue and total-loss rules are exercised
directly instead of by killing real workers under a seeded fault plan.
Every job runs one copy per task, so :class:`FakeDispatcher` checks
after each ``run_outcomes`` that no channel still holds work: that is
what lets wire keys be plain task indices.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import weakref
from collections import deque

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

    def run_outcomes(self, tasks):
        outcomes = super().run_outcomes(tasks)
        # One copy per task: a finished job leaves no work behind.
        assert not any(c.assigned for c in self._channels + self.lost)
        return outcomes


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
        outcomes = ex.run_outcomes(tasks(4))
        assert late.batches[0] == [0, 1]
        assert early.batches[0] == [2, 3]
        assert [o.unwrap() for o in outcomes] == [0, 10, 20, 30]
        assert ex.batches_sent == 2
        assert not late.assigned

    def test_err_reply_mid_batch_sets_that_outcome_only(self):
        boom = ValueError("task 1 failed")

        def failing():
            raise boom

        a, b = FakeChannel(), FakeChannel()
        ex = FakeDispatcher([a, b], task_batch=3)
        work = tasks(6)
        work[1] = failing
        outcomes = ex.run_outcomes(work)
        assert outcomes[1].error is boom
        assert [o.unwrap() for i, o in enumerate(outcomes) if i != 1] == [
            0, 20, 30, 40, 50
        ]
        # the rest of the batch ran on the same channel, nothing resent
        assert a.batches == [[0, 1, 2]]
        assert ex.batches_sent == 2 and ex.lost == []

    def test_adaptive_batch_gives_each_channel_two_rounds(self):
        a, b = FakeChannel(), FakeChannel()
        ex = FakeDispatcher([a, b])  # task_batch=0: ceil(8 / (2 * 2))
        assert [o.unwrap() for o in ex.run_outcomes(tasks(8))] == [
            i * 10 for i in range(8)
        ]
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


class TestBlameAndRequeue:
    def test_lost_channel_blames_first_unreported_requeues_rest(self):
        doomed = FakeChannel(dies_after=1)  # reports task 0, dies in 1
        healthy = FakeChannel()
        healthy.held = lambda: not ex.lost
        ex = FakeDispatcher([doomed, healthy], task_batch=4)
        outcomes = ex.run_outcomes(tasks(8))
        assert doomed.batches[0] == [0, 1, 2, 3]
        died = [i for i, o in enumerate(outcomes) if not o.ok]
        assert died == [1]
        assert isinstance(outcomes[1].error, WorkerDied)
        assert "fake worker lost (unplugged)" in str(outcomes[1].error)
        assert "task 1" in str(outcomes[1].error)
        # k-1 = 2 unstarted tasks requeued, in order, behind no one.
        assert healthy.batches == [
            [4, 5, 6, 7], [2, 3]
        ]
        assert [o.value for i, o in enumerate(outcomes) if i != 1] == [
            0, 20, 30, 40, 50, 60, 70
        ]
        assert ex.lost == [doomed]

    def test_every_channel_lost_returns_workerdied_not_raises(self):
        a = FakeChannel(dies_after=1)
        b = FakeChannel(dies_after=0)
        ex = FakeDispatcher([a, b], task_batch=2)
        outcomes = ex.run_outcomes(tasks(6))
        assert outcomes[0].unwrap() == 0
        assert all(isinstance(o.error, WorkerDied) for o in outcomes[1:])
        assert "lost (unplugged)" in str(outcomes[1].error)  # blamed
        assert "every fake worker was lost" in str(outcomes[5].error)
        assert ex._channels == []

    def test_failed_send_requeues_the_batch_at_the_head(self):
        refusing = FakeChannel(refuse=True)
        healthy = FakeChannel()
        ex = FakeDispatcher([refusing, healthy], task_batch=2)
        outcomes = ex.run_outcomes(tasks(6))
        assert [o.unwrap() for o in outcomes] == [i * 10 for i in range(6)]
        # The refused batch [0, 1] is the first thing the next channel
        # gets — not pushed behind [2, 3].
        assert healthy.batches == [
            [0, 1], [2, 3], [4, 5]
        ]
        assert ex.lost == [refusing] and refusing.batches == []


class TestTransportProfile:
    def test_as_dict_and_reset_cover_every_field(self):
        names = [f.name for f in dataclasses.fields(TransportProfile)]
        profile = TransportProfile(**{name: 7 for name in names})
        assert list(profile.as_dict()) == names
        assert set(profile.as_dict().values()) == {7}
        profile.reset()
        assert profile == TransportProfile()
        assert not any(profile.as_dict().values())
