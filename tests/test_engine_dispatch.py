"""The pool's dispatcher, driven through an in-memory fake channel.

``PoolExecutor`` is a scheduling state machine (``_Dispatcher``) over a
pipe transport (``_Channel``).  These tests substitute a transport that
forks nothing — a channel that runs each task in the driver when it is
sent and hands the replies back under the test's control — so the
ordering, blame-and-requeue and speculation rules are exercised
directly instead of by killing real workers under a seeded fault plan.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import weakref
from collections import deque

from repro.engine.executor import (
    SpeculationPolicy,
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
        self.batches: list[list[tuple[int, bool]]] = []
        self.busy_at_send: list[bool] = []  # parallel to batches
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
        self.batches.append([(key, backup) for key, _fn, backup in entries])
        self.busy_at_send.append(bool(self.assigned))
        for key, fn, _backup in entries:
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


def tasks(n):
    return [lambda i=i: i * 10 for i in range(n)]


def keys(batch):
    """Task indices of a sent batch (wire keys are ``(serial, index)``)."""
    return [index for (_serial, index), _backup in batch]


def job_of(n, policy=None):
    return _Job(tasks(n), tasks(n), policy, None)


# Any straggling head task is backed up as soon as half the job is in.
EAGER = SpeculationPolicy(
    multiplier=0.0, min_runtime_seconds=0.0, poll_interval_seconds=0.0
)


class TestOrdering:
    def test_replies_out_of_channel_order_land_positionally(self):
        late = FakeChannel()
        early = FakeChannel()
        late.held = lambda: bool(early.outbox) or early.delivered < 2
        ex = FakeDispatcher([late, early], task_batch=2)
        outcomes = ex.run_outcomes(tasks(4))
        assert keys(late.batches[0]) == [0, 1]
        assert keys(early.batches[0]) == [2, 3]
        assert [o.unwrap() for o in outcomes] == [0, 10, 20, 30]
        assert ex.batches_sent == 2
        assert not late.assigned

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
        assert [keys(batch) for batch in a.batches] == [[0]]
        assert [keys(batch) for batch in b.batches] == [[1]]
        assert list(job.pending) == [2, 3, 4]


class TestBlameAndRequeue:
    def test_lost_channel_blames_first_unreported_requeues_rest(self):
        doomed = FakeChannel(dies_after=1)  # reports task 0, dies in 1
        healthy = FakeChannel()
        healthy.held = lambda: not ex.lost
        ex = FakeDispatcher([doomed, healthy], task_batch=4)
        outcomes = ex.run_outcomes(tasks(8))
        assert keys(doomed.batches[0]) == [0, 1, 2, 3]
        died = [i for i, o in enumerate(outcomes) if not o.ok]
        assert died == [1]
        assert isinstance(outcomes[1].error, WorkerDied)
        assert "fake worker lost (unplugged)" in str(outcomes[1].error)
        assert "task 1" in str(outcomes[1].error)
        # k-1 = 2 unstarted tasks requeued, in order, behind no one.
        assert [keys(batch) for batch in healthy.batches] == [
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
        assert [keys(batch) for batch in healthy.batches] == [
            [0, 1], [2, 3], [4, 5]
        ]
        assert ex.lost == [refusing] and refusing.batches == []


class TestSpeculation:
    def _straggling(self):
        """``slow`` sits on task 0 while ``fast`` finishes the rest."""
        slow, fast = FakeChannel(), FakeChannel()
        ex = FakeDispatcher([slow, fast], task_batch=1)
        return ex, slow, fast

    def test_backup_goes_to_an_idle_channel_once_per_key(self):
        ex, slow, fast = self._straggling()
        slow.held = lambda: True  # never reports: the backup must win
        speculated: list[int] = []
        outcomes = ex.run_outcomes(
            tasks(4),
            speculation=EAGER,
            speculative_tasks=[lambda i=i: i * 10 for i in range(4)],
            on_speculate=speculated.append,
        )
        assert [o.unwrap() for o in outcomes] == [0, 10, 20, 30]
        assert speculated == [0]
        backups = [b for b in fast.batches if b[0][1]]
        assert [keys(b) for b in backups] == [[0]]
        assert not fast.busy_at_send[fast.batches.index(backups[0])]

    def test_no_backup_while_every_channel_is_busy(self):
        a, b = FakeChannel(), FakeChannel()
        a.held = b.held = lambda: True
        ex = FakeDispatcher([a, b], task_batch=1)
        job = job_of(4, EAGER)
        job.durations = [0.001, 0.001]
        ex._feed(job)
        ex._maybe_speculate(job)
        assert ex.batches_sent == 2 and not job.speculated

    def test_lost_backup_after_original_errored_resolves_to_that_error(
        self,
    ):
        boom = ValueError("original failed")

        def original():
            raise boom

        released = [False]
        slow = FakeChannel(held=lambda: not released[0])
        backup_host = FakeChannel()
        ex = FakeDispatcher([slow, backup_host], task_batch=1)

        def backup():
            # The backup is now in flight: let the original's error out
            # and take the backup's channel down before it reports.
            released[0] = True
            backup_host.dies_after = backup_host.delivered
            return "never delivered"

        outcomes = ex.run_outcomes(
            [original, lambda: 1, lambda: 2],
            speculation=EAGER,
            speculative_tasks=[backup, lambda: 1, lambda: 2],
        )
        assert outcomes[0].error is boom  # not the backup's WorkerDied
        assert [o.unwrap() for o in outcomes[1:]] == [1, 2]
        assert ex.lost == [backup_host]

    def test_first_result_wins_and_loser_is_not_unpickled(self):
        ex, slow, fast = self._straggling()
        released = [False]
        slow.held = lambda: not released[0]

        def backup():
            released[0] = True  # both copies of task 0 now report
            return "backup"

        outcomes = ex.run_outcomes(
            [lambda: "original", lambda: 1, lambda: 2, lambda: 3],
            speculation=EAGER,
            speculative_tasks=[backup, None, None, None],
        )
        # slow is drained before fast each round, so the original wins.
        assert outcomes[0].unwrap() == "original"
        assert ex.transport.payload_bytes == sum(
            len(pickle.dumps(value)) for value in ("original", 1, 2, 3)
        )

    def test_late_loser_of_one_job_is_not_absorbed_by_the_next(self):
        """The first job returns while its losing original is still
        running on ``slow``; the reply must not be filed under the same
        index of the second job (whose task 0 is a different task), and
        ``slow`` must come back into service once it has reported."""
        ex, slow, fast = self._straggling()
        slow.held = lambda: True
        first = ex.run_outcomes(
            [lambda: "stale", lambda: 1, lambda: 2, lambda: 3],
            speculation=EAGER,
            speculative_tasks=[lambda: "backup", None, None, None],
        )
        assert [o.unwrap() for o in first] == ["backup", 1, 2, 3]
        assert len(slow.assigned) == 1  # the loser, still out
        slow.held = lambda: False
        second = ex.run_outcomes([lambda i=i: f"new-{i}" for i in range(4)])
        assert [o.unwrap() for o in second] == [
            "new-0", "new-1", "new-2", "new-3"
        ]
        assert not slow.assigned
        assert len(slow.batches) > 1  # back in rotation after the drop

    def test_death_under_a_stale_loser_blames_nothing_in_the_next_job(self):
        # ``slow`` still holds the first job's loser when the second job
        # starts, so it is busy and gets none of the second job; it then
        # dies with the loser in progress — nothing of the second job
        # was there to blame or requeue.
        slow, fast = FakeChannel(), FakeChannel()
        ex = FakeDispatcher([slow, fast], task_batch=1)
        slow.held = lambda: True
        ex.run_outcomes(
            tasks(2), speculation=EAGER, speculative_tasks=tasks(2)
        )
        assert len(slow.assigned) == 1
        slow.held = lambda: False
        slow.dies_after = slow.delivered
        second = ex.run_outcomes(tasks(4))
        assert len(slow.batches) == 1  # the loser's only
        assert [o.unwrap() for o in second] == [0, 10, 20, 30]
        assert ex.lost == [slow]


class TestTransportProfile:
    def test_as_dict_and_reset_cover_every_field(self):
        names = [f.name for f in dataclasses.fields(TransportProfile)]
        profile = TransportProfile(**{name: 7 for name in names})
        assert list(profile.as_dict()) == names
        assert set(profile.as_dict().values()) == {7}
        profile.reset()
        assert profile == TransportProfile()
        assert not any(profile.as_dict().values())
