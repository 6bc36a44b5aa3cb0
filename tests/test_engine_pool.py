"""Persistent worker pool and zero-copy transport.

Two contracts under test:

* **Pool lifecycle** — workers are forked once and reused across
  batches (the shared-memory arenas are recycled, not re-created), a
  worker that dies mid-batch fails its job with ``WorkerDied`` and is
  replaced by a fresh fork for the next job, a task error reaches the
  caller as itself, and ``close()`` is idempotent; a worker whose
  driver is killed exits.
* **Transport metering** — every backend reports a wall-clock overhead
  breakdown (submit/serialize/ipc/compute) without touching the
  simulated series.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    ClusterContext,
    PoolExecutor,
    RemoteTaskError,
    WorkerDied,
)

from .conftest import process_table

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="pool backend needs the fork start method",
)


def _ctx(backend="serial", **kw):
    kw.setdefault("n_nodes", 2)
    kw.setdefault("executor_cores", 2)
    kw.setdefault("local_workers", 2)
    return ClusterContext(executor=backend, **kw)


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_workers_persist_and_arenas_recycle(self):
        """Three result-bearing batches reuse the same forked workers and
        the same shared-memory segments — no per-task fork, no segment
        churn."""
        big = np.arange(50_000, dtype=np.int64)  # 400 KB: out-of-band
        with PoolExecutor(2) as ex:
            for round_no in range(3):
                out = ex.run(
                    [lambda k=k: big + k for k in range(4 * round_no, 4 * round_no + 4)]
                )
                for j, arr in enumerate(out):
                    assert np.array_equal(arr, big + 4 * round_no + j)
                    assert arr.flags.owndata  # survives arena recycling
            assert ex.workers_forked == 2
            assert ex.batches_sent >= 3
            stats = ex.arena_stats()
        # Grow-only reuse: each worker ever created at most 2 task
        # segments (initial + one growth) and the driver maps at most 2
        # result segments per worker.
        assert all(n <= 2 for n in stats["task_segments"])
        assert all(n <= 2 for n in stats["result_segments"])

    def test_worker_death_mid_batch_recovered(self):
        """A task that really ``os._exit``s takes down its pooled worker:
        the job fails with WorkerDied naming that task, the dead worker
        is retired, and the same executor runs the next job on a fresh
        fork."""
        driver = os.getpid()

        def dies():
            if os.getpid() != driver:
                os._exit(9)
            return -1

        with PoolExecutor(2) as ex:
            ex.task_batch = 2  # two-task batches: the death strands a task
            work = [lambda i=i: np.full(6, i) for i in range(4)]
            work[1] = dies
            with pytest.raises(WorkerDied, match="code 9 .* task 1$"):
                ex.run(work)
            assert len(ex._channels) == 1
            out = ex.run([lambda i=i: np.full(6, i) for i in range(4)])
            assert ex.workers_forked == 3
        for i in range(4):
            assert np.array_equal(out[i], np.full(6, i))

    def test_error_transport(self):
        def bad():
            raise KeyError("from the worker")

        with PoolExecutor(2) as ex:
            with pytest.raises(KeyError, match="from the worker") as exc:
                ex.run([bad, lambda: 7, lambda: 8])
            assert not getattr(exc.value, "__notes__", None)
            # A task error kills no worker: the next job reuses both.
            assert ex.run([lambda: 7, lambda: 8]) == [7, 8]
            assert ex.workers_forked == 2

    def test_unpicklable_task_leaves_no_reply_to_the_next_job(self):
        """A batch that cannot be pickled fails its job only after the
        batch already sent has replied; raising at once left that reply
        in the pipe, where the next job read it as its own task 0."""
        lock = threading.Lock()
        with PoolExecutor(2) as ex:
            ex.task_batch = 1
            with pytest.raises(TypeError, match="lock"):
                ex.run([lambda: (time.sleep(0.5), "old")[1], lambda: lock])
            assert not any(worker.assigned for worker in ex._channels)
            assert ex.run([lambda: "new-0", lambda: "new-1"]) == [
                "new-0", "new-1"
            ]

    def test_results_in_task_order_with_batching(self):
        with PoolExecutor(2) as ex:
            ex.task_batch = 2
            out = ex.run(
                [
                    (lambda n=n: int(np.arange(n).sum()))
                    for n in (80_000, 10, 40_000, 1, 500, 9)
                ]
            )
        assert out == [
            sum(range(n)) for n in (80_000, 10, 40_000, 1, 500, 9)
        ]

    def test_worker_exits_when_its_driver_is_killed(self, tmp_path):
        """A pool worker whose driver is SIGKILLed (no ``retire()``, no
        "stop") reads EOF and exits.  It would block in ``recv`` forever,
        reparented to init, if it still held the driver's end of its own
        pipe: ``_pipe_child_main`` closes that inherited copy."""
        # The pid travels by file: a captured stdout would be one more
        # pipe the orphan holds open.
        script = (
            "import os, signal, sys\n"
            "from repro.engine.executor import _PipeChild, _pool_worker_main\n"
            "child = _PipeChild(_pool_worker_main)\n"
            "open(sys.argv[1], 'w').write(str(child.proc.pid))\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        pid_file = tmp_path / "worker.pid"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        driver = subprocess.run(
            [sys.executable, "-c", script, str(pid_file)], env=env,
            timeout=60, stdin=subprocess.DEVNULL,
        )
        assert driver.returncode == -signal.SIGKILL
        worker = int(pid_file.read_text())

        def running():
            row = process_table().get(worker)
            return row is not None and row[1] != "Z"

        try:
            deadline = time.monotonic() + 2.0
            while running() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running()
        finally:
            if running():
                os.kill(worker, signal.SIGKILL)

    def test_close_idempotent(self):
        ex = PoolExecutor(2)
        ex.run([lambda: 1, lambda: 2])
        ex.close()
        ex.close()
        assert ex.run([lambda: 3]) == [3]  # single task: inline fallback


class TestWorkerDeath:
    def test_child_really_dies_and_is_observed(self):
        """A task takes down the actual worker process; the driver reads
        the exit code off the process sentinel and raises WorkerDied
        for that task once its sibling's batch has drained."""
        driver = os.getpid()

        def dies():
            if os.getpid() != driver:
                os._exit(73)
            return -1

        with PoolExecutor(2) as ex:
            with pytest.raises(
                WorkerDied, match="pool worker exited with code 73 .* task 0$"
            ):
                ex.run([dies, lambda: np.arange(3)])
            assert not any(worker.assigned for worker in ex._channels)

    def test_unpicklable_child_error_degrades_to_text(self):
        class Weird(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        def bad():
            raise Weird("worker-side detail")

        with PoolExecutor(2) as ex:
            with pytest.raises(RemoteTaskError, match="Weird") as exc:
                ex.run([bad, lambda: 1])
        assert "worker-side detail" in str(exc.value)


# ----------------------------------------------------------------------
# Transport metering
# ----------------------------------------------------------------------
class TestTransportMetering:
    # Exactly the fields benchmarks/e2e/workloads.py reads.
    EXPECTED_KEYS = {
        "submit_seconds", "serialize_seconds", "ipc_wait_seconds",
        "compute_seconds", "payload_bytes",
    }

    def test_serial_profile(self):
        with _ctx("serial") as ctx:
            ctx.parallelize([np.arange(4000)]).map_partitions(
                lambda cols, i: (np.sort(cols[0])[::-1].copy(),)
            ).collect()
            profile = ctx.metrics.transport_breakdown()
        assert set(profile) == self.EXPECTED_KEYS
        assert profile["compute_seconds"] > 0
        assert profile["ipc_wait_seconds"] == 0.0

    def test_pool_profile_counts_ipc_and_payload(self):
        big = np.arange(60_000, dtype=np.int64)
        with PoolExecutor(2) as ex:
            ex.run([lambda k=k: big + k for k in range(4)])
            profile = ex.transport.as_dict()
        assert set(profile) == self.EXPECTED_KEYS
        assert profile["compute_seconds"] > 0
        assert profile["ipc_wait_seconds"] > 0
        assert profile["serialize_seconds"] > 0
        assert profile["payload_bytes"] >= 4 * big.nbytes

    def test_profile_resets_with_metrics(self):
        with _ctx("serial") as ctx:
            ctx.parallelize([np.arange(100)]).map_partitions(
                lambda cols, i: (cols[0] * 2,)
            ).collect()
            assert ctx.metrics.transport_breakdown()["compute_seconds"] > 0
            ctx.reset_metrics()
            assert (
                ctx.metrics.transport_breakdown()["compute_seconds"] == 0.0
            )

    def test_detached_metrics_report_zeros(self):
        from repro.engine import SimulationMetrics

        m = SimulationMetrics(n_nodes=1)
        assert set(m.transport_breakdown()) == self.EXPECTED_KEYS
        assert not any(m.transport_breakdown().values())


# ----------------------------------------------------------------------
# Shared-memory hygiene: close() must leave no arena segments behind
# and the whole lifecycle must be silent under warnings-as-errors.
# ----------------------------------------------------------------------
_SHM_HYGIENE_SCRIPT = """
import gc, os
import numpy as np
from repro.engine.executor import PoolExecutor, WorkerDied

shm_dir = "/dev/shm"
before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else None

big = np.arange(200_000, dtype=np.int64)
driver = os.getpid()

def work(k):
    # Every odd task kills its worker mid-batch, right after the even
    # one parked its result in the worker's arena: killed workers leave
    # result-arena segments only the driver can unlink.
    if k % 2 == 1 and os.getpid() != driver:
        os._exit(9)
    return big + k

ex = PoolExecutor(2)
for _ in range(2):
    try:
        ex.run([(lambda k=k: work(k)) for k in range(8)])
    except WorkerDied:
        pass
    else:
        raise AssertionError("a worker died and its job succeeded")
assert ex.workers_forked > 2
ex.close()
gc.collect()

if before is not None:
    leaked = set(os.listdir(shm_dir)) - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"
print("HYGIENE-OK")
"""


class TestShmHygiene:
    def test_pool_lifecycle_is_resourcewarning_free(self, tmp_path):
        """Run a kill-heavy pool lifecycle in a fresh interpreter with
        ResourceWarning promoted to an error: close() must unlink every
        recycled arena segment (even those of killed workers) and leave
        no unclosed fds for -X dev to complain about."""
        script = tmp_path / "shm_hygiene.py"
        script.write_text(_SHM_HYGIENE_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        src = os.path.abspath(src)
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        proc = subprocess.run(
            [
                sys.executable, "-X", "dev",
                "-W", "error::ResourceWarning",
                str(script),
            ],
            capture_output=True, text=True, timeout=180, env=env,
        )
        output = proc.stdout + proc.stderr
        assert proc.returncode == 0, output
        assert "HYGIENE-OK" in output
        assert "ResourceWarning" not in output
