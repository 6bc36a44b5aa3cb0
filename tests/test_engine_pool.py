"""Persistent worker pool, zero-copy transport, adaptive coalescing.

Three contracts under test:

* **Pool lifecycle** — workers are forked once and reused across
  batches (the shared-memory arenas are recycled, not re-created), a
  worker killed mid-batch is respawned and its unfinished work retried
  through the ordinary :func:`run_with_recovery` machinery, and
  ``close()`` is idempotent; a worker whose driver is killed exits.
* **Coalescing is invisible to the simulated cluster** — merging small
  partitions into fewer physical dispatches (and running empty chains
  inline in the driver) changes ``tasks_dispatched`` only; datasets,
  stage records, makespans and memory meters are byte-identical under
  any ``target_partition_bytes`` x backend x memory-budget combination.
* **Transport metering** — every backend reports a wall-clock overhead
  breakdown (submit/serialize/ipc/compute) without touching the
  simulated series.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import PGPBA, PGSK
from repro.engine import (
    ClusterContext,
    FaultPlan,
    PoolExecutor,
    RecoveryStats,
    make_executor,
    run_with_recovery,
)
from repro.engine.partitioner import chunk_weights, split_array

from .conftest import process_table

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="pool backend needs the fork start method",
)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def stage_structure(ctx):
    """Everything about the simulated stages except the measured times."""
    return [
        (r.stage, r.partition, r.node, r.bytes_out)
        for r in ctx.metrics.tasks
    ]


def _ctx(backend="serial", **kw):
    kw.setdefault("n_nodes", 2)
    kw.setdefault("executor_cores", 2)
    kw.setdefault("local_workers", 2)
    return ClusterContext(executor=backend, **kw)


# ----------------------------------------------------------------------
# chunk_weights: the deterministic coalescer kernel
# ----------------------------------------------------------------------
class TestChunkWeights:
    def test_groups_are_contiguous_and_cover(self):
        groups = chunk_weights([5, 1, 1, 9, 2, 2], target=8)
        flat = [i for g in groups for i in g]
        assert flat == list(range(6))
        assert all(g for g in groups)

    def test_small_partitions_merge_toward_target(self):
        groups = chunk_weights([1] * 64, target=16)
        assert len(groups) == 4
        assert {len(g) for g in groups} == {16}

    def test_min_chunks_floor(self):
        # Plenty of data in one target's worth: the floor still forces
        # at least 8 chunks so small clusters keep their parallelism.
        groups = chunk_weights([1] * 64, target=1000, min_chunks=8)
        assert len(groups) == 8

    def test_never_more_chunks_than_weights(self):
        assert chunk_weights([3, 3], target=1, min_chunks=8) == [[0], [1]]

    def test_deterministic(self):
        w = [7, 0, 3, 12, 1, 1, 1, 5, 0, 2]
        assert chunk_weights(w, target=6) == chunk_weights(w, target=6)

    def test_large_partitions_stay_separate(self):
        groups = chunk_weights([100, 100, 100, 100], target=10, min_chunks=1)
        assert groups == [[0], [1], [2], [3]]


# ----------------------------------------------------------------------
# Knob resolution: flag > env > default
# ----------------------------------------------------------------------
class TestKnobResolution:
    # Through the constructors; the per-row precedence table is
    # tests/test_config.py.
    def test_target_partition_bytes_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TARGET_PARTITION_BYTES", raising=False)
        assert _ctx().target_partition_bytes == 4 << 20

    def test_target_partition_bytes_env_and_arg(self, monkeypatch):
        monkeypatch.setenv("REPRO_TARGET_PARTITION_BYTES", "256KB")
        assert _ctx().target_partition_bytes == 256 * 1024
        # An explicit argument beats the environment.
        for arg, expected in (("1MB", 1 << 20), (4096, 4096)):
            ctx = _ctx(target_partition_bytes=arg)
            assert ctx.target_partition_bytes == expected

    @pytest.mark.parametrize("token", ["off", "none", "0", "disabled"])
    def test_off_tokens_disable(self, token):
        assert _ctx(target_partition_bytes=token).target_partition_bytes == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="REPRO_TARGET_PARTITION_BYTES"):
            _ctx(target_partition_bytes=-1)

    def test_context_threads_the_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_TARGET_PARTITION_BYTES", raising=False)
        with _ctx("serial", target_partition_bytes="64KB") as ctx:
            assert ctx.target_partition_bytes == 64 * 1024
        monkeypatch.setenv("REPRO_TARGET_PARTITION_BYTES", "off")
        with _ctx("serial") as ctx:
            assert ctx.target_partition_bytes == 0


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
            assert ex.workers_respawned == 0
            assert ex.batches_sent >= 3
            stats = ex.arena_stats()
        # Grow-only reuse: each worker ever created at most 2 task
        # segments (initial + one growth) and the driver maps at most 2
        # result segments per worker.
        assert all(n <= 2 for n in stats["task_segments"])
        assert all(n <= 2 for n in stats["result_segments"])

    def test_worker_death_mid_batch_recovered(self):
        """An injected kill takes down a real pooled worker; the driver
        blames exactly the killed task, respawns the worker, and the
        retry round completes bit-identically."""
        plan = FaultPlan(seed=1, p_kill=1.0, max_failures_per_task=1)
        with PoolExecutor(2) as ex:
            ex.task_batch = 2  # two-task batches: a kill strands a task
            stats = RecoveryStats()
            out = run_with_recovery(
                ex,
                [lambda i=i: np.full(6, i) for i in range(4)],
                fault_plan=plan,
                backoff_seconds=0.0,
                stats=stats,
            )
            assert ex.workers_respawned >= 1
        for i in range(4):
            assert np.array_equal(out[i], np.full(6, i))
        assert stats.tasks_failed == 4
        assert stats.tasks_retried == 4

    def test_error_transport(self):
        def bad():
            raise KeyError("from the worker")

        with PoolExecutor(2) as ex:
            outcomes = ex.run_outcomes([bad, lambda: 7, lambda: 8])
        assert not outcomes[0].ok
        assert "from the worker" in str(outcomes[0].error)
        assert outcomes[1].value == 7 and outcomes[2].value == 8

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


# ----------------------------------------------------------------------
# Adaptive coalescing: fewer dispatches, identical simulation
# ----------------------------------------------------------------------
class TestCoalescing:
    def _chain(self, ctx):
        rdd = ctx.parallelize(
            [np.arange(64_000, dtype=np.int64)], n_partitions=64
        )
        return rdd.map_partitions(
            lambda cols, i: (cols[0] * 3 + 1,), stage="xform"
        ).collect()

    def test_dispatch_reduced_4x_simulation_unchanged(self):
        with _ctx("serial", target_partition_bytes=0) as ref_ctx:
            ref = self._chain(ref_ctx)
            ref_structure = stage_structure(ref_ctx)
            ref_tasks = ref_ctx.metrics.n_tasks
        # 64 partitions x 8 KB against a 64 KB grain: 8 physical tasks.
        with _ctx("serial", target_partition_bytes="64KiB") as ctx:
            out = self._chain(ctx)
            m = ctx.metrics
            assert digest(out) == digest(ref)
            # Simulated side: byte-identical stage records.
            assert m.n_tasks == ref_tasks
            assert stage_structure(ctx) == ref_structure
            # Physical side: >= 4x fewer executor dispatches.
            assert m.tasks_emitted > 0
            assert m.tasks_dispatched * 4 <= m.tasks_emitted
            assert m.dispatch_ratio >= 4.0

    def test_empty_partitions_pruned_not_scheduled(self):
        """Regression: split_array pads short inputs with empty
        partitions (its documented contract) — those chains must run
        inline in the driver, not occupy executor dispatch slots."""
        parts = split_array(np.arange(3, dtype=np.int64), 16)
        assert len(parts) == 16  # the padding contract this guards

        def build(ctx):
            # generate() keeps all 16 real partitions, 13 of them empty
            # (parallelize clamps to the element count, generate cannot:
            # the counts are the data).
            rdd = ctx.generate(
                3,
                lambda count, pidx: (
                    np.full(count, pidx, dtype=np.int64),
                ),
                n_partitions=16,
            )
            return rdd.map_partitions(
                lambda cols, i: (cols[0] + 1,), stage="bump"
            ).collect()

        with _ctx("serial", target_partition_bytes=0) as ref_ctx:
            ref = build(ref_ctx)
            ref_structure = stage_structure(ref_ctx)
        with _ctx("serial", target_partition_bytes="1MB") as ctx:
            out = build(ctx)
            m = ctx.metrics
            assert digest(out) == digest(ref)
            assert stage_structure(ctx) == ref_structure
            assert m.tasks_inlined > 0  # the 13 empty chains
            assert m.tasks_dispatched < m.tasks_emitted

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    @pytest.mark.parametrize("target", [0, "256KB"])
    def test_chain_digest_matrix(self, backend, target):
        """Coalescing x backend: one digest."""
        def run(name, tgt):
            with _ctx(name, target_partition_bytes=tgt) as ctx:
                rdd = ctx.parallelize(
                    [np.arange(5000) % 701, np.arange(5000) % 499]
                )
                out = (
                    rdd.sample(0.5, seed=3)
                    .distinct(key_columns=(0, 1))
                    .repartition(3)
                    .collect()
                )
                return digest(out), stage_structure(ctx)

        ref_digest, ref_structure = run("serial", 0)
        got_digest, got_structure = run(backend, target)
        assert got_digest == ref_digest
        assert got_structure == ref_structure

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    @pytest.mark.parametrize("target", [0, "256KB"])
    def test_pgpba_digest_matrix(self, backend, target, seed_graph,
                                 seed_analysis):
        def run(name, tgt):
            with _ctx(name, target_partition_bytes=tgt) as ctx:
                res = PGPBA(fraction=0.5, seed=5).generate(
                    seed_graph, seed_analysis,
                    4 * seed_graph.n_edges, context=ctx,
                )
                cols = [res.graph.src, res.graph.dst] + [
                    res.graph.edge_properties[k]
                    for k in sorted(res.graph.edge_properties)
                ]
                return digest(cols), stage_structure(ctx)

        ref_digest, ref_structure = run("serial", 0)
        got_digest, got_structure = run(backend, target)
        assert got_digest == ref_digest
        assert got_structure == ref_structure

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    @pytest.mark.parametrize("target", [0, "256KB"])
    def test_pgsk_digest_matrix(self, backend, target, seed_graph,
                                seed_analysis):
        gen = PGSK(seed=5, kronfit_iterations=4, kronfit_swaps=10)
        initiator = gen.fit_initiator(seed_graph)

        def run(name, tgt):
            with _ctx(name, target_partition_bytes=tgt) as ctx:
                res = gen.generate(
                    seed_graph, seed_analysis, 2 * seed_graph.n_edges,
                    context=ctx, initiator=initiator,
                )
                cols = [res.graph.src, res.graph.dst] + [
                    res.graph.edge_properties[k]
                    for k in sorted(res.graph.edge_properties)
                ]
                return digest(cols), stage_structure(ctx)

        ref_digest, ref_structure = run("serial", 0)
        got_digest, got_structure = run(backend, target)
        assert got_digest == ref_digest
        assert got_structure == ref_structure

    def test_coalescing_under_faults_conserves_recovery(self):
        """Fault coordinates are per physical dispatch, so coalesced runs
        still recover bit-identically and the recompute meter balances."""
        plan = FaultPlan(
            seed=13, p_exception=0.4, max_failures_per_task=2,
        )
        with _ctx(
            "serial", target_partition_bytes=0, retry_backoff_seconds=0.0
        ) as ref_ctx:
            rdd = ref_ctx.parallelize(
                [np.arange(32_000, dtype=np.int64)], n_partitions=32
            )
            ref = rdd.map_partitions(
                lambda cols, i: (cols[0] % 97,), stage="mod"
            ).collect()
        with _ctx(
            "serial", target_partition_bytes="64KiB",
            fault_plan=plan, retry_backoff_seconds=0.0,
        ) as ctx:
            rdd = ctx.parallelize(
                [np.arange(32_000, dtype=np.int64)], n_partitions=32
            )
            out = rdd.map_partitions(
                lambda cols, i: (cols[0] % 97,), stage="mod"
            ).collect()
            m = ctx.metrics
        assert digest(out) == digest(ref)
        assert m.tasks_failed > 0
        assert m.tasks_retried == m.tasks_failed
        assert m.recovery_recompute_bytes > 0


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
        assert m.dispatch_ratio == 1.0


# ----------------------------------------------------------------------
# Shared-memory hygiene: close() must leave no arena segments behind
# and the whole lifecycle must be silent under warnings-as-errors.
# ----------------------------------------------------------------------
_SHM_HYGIENE_SCRIPT = """
import gc, os
import numpy as np
from repro.engine.executor import PoolExecutor

shm_dir = "/dev/shm"
before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else None

big = np.arange(200_000, dtype=np.int64)
driver = os.getpid()

def work(k):
    # Half the tasks kill their worker mid-batch: killed workers leave
    # result-arena segments only the driver can unlink.
    if k % 2 == 0 and os.getpid() != driver:
        os._exit(9)
    return big + k

ex = PoolExecutor(2)
for _ in range(2):
    ex.run_outcomes([(lambda k=k: work(k)) for k in range(8)])
assert ex.workers_respawned > 0
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
