"""Executor backends: determinism, failure, lifecycle, the distinct()
exchange, metadata caches.

The contract under test: every backend (serial / threads / pool)
produces bit-identical datasets and identical simulated-cluster
accounting for fixed seeds, because RNG streams are keyed by partition
index and per-task costs are measured inside the tasks; a task that
raises runs once and its error reaches the caller as itself; and every
executor releases its threads or worker processes on ``close()``.
"""

import hashlib
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.core import PGPBA, PGSK
from repro import config
from repro.engine import (
    ClusterContext,
    PoolExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_backends,
    make_executor,
)
from repro.engine.executor import _reap_leaked_children, default_workers
from repro.engine.rdd import _unique_pair_index

BACKENDS = available_backends()


def _ctx(backend: str, **kw) -> ClusterContext:
    kw.setdefault("n_nodes", 2)
    kw.setdefault("executor_cores", 2)
    return ClusterContext(executor=backend, local_workers=4, **kw)


@pytest.fixture
def serial_ctx():
    with _ctx("serial") as ctx:
        yield ctx


class TestExecutorBasics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_task_order(self, backend):
        ex = make_executor(backend, 4)
        # Heavier early tasks finish last on a pool; order must hold.
        tasks = [
            (lambda n=n: int(np.arange(n).sum()))
            for n in (100_000, 10, 50_000, 1)
        ]
        try:
            assert ex.run(tasks) == [
                sum(range(100_000)), sum(range(10)), sum(range(50_000)), 0
            ]
        finally:
            ex.close()

    def test_backend_registry(self, monkeypatch):
        assert BACKENDS == ("serial", "threads", "pool")
        # Unknown names — including the removed fork-per-task and socket
        # backends — are rejected with the valid choices spelled out.
        choices = "serial, threads, pool"
        for name in ("bogus", "processes", "cluster"):
            with pytest.raises(ValueError, match=choices):
                make_executor(name)
        with pytest.raises(ValueError, match=f"{choices}, got 'cluster'"):
            ClusterContext(executor="cluster")
        monkeypatch.setenv("REPRO_EXECUTOR", "processes")
        with pytest.raises(ValueError, match=choices):
            config.resolve("executor")
        with pytest.raises(ValueError):
            make_executor("serial", 0)

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(make_executor(), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        # An explicit argument beats the environment.
        assert isinstance(make_executor("serial"), SerialExecutor)
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "3")
        ex = make_executor()
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 3
        ex.close()
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_LOCAL_WORKERS"):
            make_executor()

    def test_context_accepts_instance_and_closes(self):
        ex = SerialExecutor(2)
        with ClusterContext(n_nodes=1, executor=ex) as ctx:
            assert ctx.executor is ex

    def test_process_backend_large_array_roundtrip(self):
        """Arrays above the shared-memory threshold survive the arena
        round-trip intact (and land driver-owned)."""
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("fork unavailable")
        big = np.arange(200_000, dtype=np.int64)
        with PoolExecutor(2) as ex:
            outs = ex.run([lambda: (big * 2, 1.5), lambda: (big + 1, 0.5)])
        assert np.array_equal(outs[0][0], big * 2)
        assert np.array_equal(outs[1][0], big + 1)
        assert outs[0][1] == 1.5 and outs[1][1] == 0.5
        assert outs[0][0].flags.owndata


class TestTaskFailure:
    """A task error surfaces once: nothing is retried, on any backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raising_task_runs_once(self, backend, tmp_path):
        # Counted in a file: pool tasks run in other processes.
        calls = tmp_path / "calls"

        def fn(cols, pidx):
            if pidx == 0:
                with open(calls, "a") as log:
                    log.write("x")
                raise ValueError("partition 0 is bad")
            return cols

        with _ctx(backend) as ctx:
            rdd = ctx.parallelize([np.arange(400)], n_partitions=4)
            with pytest.raises(ValueError, match="partition 0 is bad") as exc:
                rdd.map_partitions(fn).collect()
        assert calls.read_text() == "x"
        assert not getattr(exc.value, "__notes__", None)
        assert type(exc.value) is ValueError
        assert ctx.metrics.tasks_failed == ctx.metrics.tasks_retried == 0


class TestExecutorLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_is_idempotent(self, backend):
        ex = make_executor(backend, 2)
        ex.run([lambda: 1, lambda: 2])
        ex.close()
        ex.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_manager(self, backend):
        with make_executor(backend, 2) as ex:
            assert ex.run([lambda: 5])[0] == 5
        if backend == "threads":
            assert ex._pool is None

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
    )
    def test_close_reaps_live_children(self):
        """close() stops idle workers and terminates one stuck mid-task."""
        ex = PoolExecutor(2)
        ex.run([lambda: 1, lambda: 2])
        busy, idle = (worker.child.proc for worker in ex._channels)
        assert ex._channels[0].send([(0, lambda: time.sleep(60))])
        assert busy.is_alive() and idle.is_alive()
        ex.close()
        assert not busy.is_alive() and not idle.is_alive()

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
    )
    def test_atexit_reaper_kills_orphans(self):
        ex = PoolExecutor(2)
        ex.run([lambda: 1, lambda: 2])
        procs = [worker.child.proc for worker in ex._channels]
        assert all(proc.is_alive() for proc in procs)
        _reap_leaked_children()
        assert not any(proc.is_alive() for proc in procs)

    def test_resolve_workers_reports_offender(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "lots")
        with pytest.raises(ValueError, match="'lots'"):
            make_executor("threads")
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "0")
        with pytest.raises(ValueError, match="'0'"):
            make_executor("threads")
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "   ")
        assert make_executor("threads").workers == default_workers()
        monkeypatch.delenv("REPRO_LOCAL_WORKERS")
        assert make_executor("threads", 4).workers == 4
        assert make_executor("serial").workers == default_workers()


class TestBackendEquivalence:
    """serial == threads == pool, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rdd_pipeline_matches_serial(self, backend):
        def run(name):
            ctx = _ctx(name)
            rdd = ctx.parallelize(
                [np.arange(5000) % 701, np.arange(5000) % 499]
            )
            out = (
                rdd.sample(0.5, seed=3)
                .distinct(key_columns=(0, 1))
                .repartition(3)
                .collect()
            )
            ctx.close()
            return out, ctx.metrics

        ref, ref_metrics = run("serial")
        got, got_metrics = run(backend)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)
        assert got_metrics.n_tasks == ref_metrics.n_tasks
        assert [t.stage for t in got_metrics.tasks] == [
            t.stage for t in ref_metrics.tasks
        ]
        assert [t.bytes_out for t in got_metrics.tasks] == [
            t.bytes_out for t in ref_metrics.tasks
        ]
        assert [t.node for t in got_metrics.tasks] == [
            t.node for t in ref_metrics.tasks
        ]
        assert np.array_equal(
            got_metrics.node_peak_bytes, ref_metrics.node_peak_bytes
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pgpba_bit_identical(self, backend, seed_graph, seed_analysis):
        def run(name):
            with _ctx(name) as ctx:
                res = PGPBA(fraction=0.5, seed=5).generate(
                    seed_graph, seed_analysis,
                    4 * seed_graph.n_edges, context=ctx,
                )
            return res, ctx.metrics.n_tasks

        ref, ref_tasks = run("serial")
        got, got_tasks = run(backend)
        assert np.array_equal(got.graph.src, ref.graph.src)
        assert np.array_equal(got.graph.dst, ref.graph.dst)
        assert set(got.graph.edge_properties) == set(
            ref.graph.edge_properties
        )
        for name, col in ref.graph.edge_properties.items():
            assert np.array_equal(got.graph.edge_properties[name], col)
        assert got_tasks == ref_tasks
        assert got.extra["executor"] == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pgsk_bit_identical(self, backend, seed_graph, seed_analysis):
        gen = PGSK(seed=5, kronfit_iterations=4, kronfit_swaps=10)
        initiator = gen.fit_initiator(seed_graph)

        def run(name):
            with _ctx(name) as ctx:
                return gen.generate(
                    seed_graph, seed_analysis, 2 * seed_graph.n_edges,
                    context=ctx, initiator=initiator,
                )

        ref = run("serial")
        got = run(backend)
        assert np.array_equal(got.graph.src, ref.graph.src)
        assert np.array_equal(got.graph.dst, ref.graph.dst)
        for name, col in ref.graph.edge_properties.items():
            assert np.array_equal(got.graph.edge_properties[name], col)


class TestGeneratorDigestMatrix:
    """The backend never changes generator output or the simulated
    stage structure."""

    @pytest.mark.parametrize("algo", [PGPBA, PGSK])
    def test_digests_invariant(self, algo, seed_graph, seed_analysis):
        def run(backend):
            with ClusterContext(n_nodes=4, executor=backend) as ctx:
                g = algo(seed=3).generate(
                    seed_graph, seed_analysis, 2_000, context=ctx
                ).graph
                stages = [
                    (t.stage, t.partition, t.bytes_out)
                    for t in ctx.metrics.tasks
                ]
            h = hashlib.sha256()
            for col in (g.src, g.dst) + tuple(
                g.edge_properties[k] for k in sorted(g.edge_properties)
            ):
                h.update(np.ascontiguousarray(col).tobytes())
            return h.hexdigest(), stages

        base = run("serial")
        for backend in BACKENDS:
            assert run(backend) == base, backend


class TestExchangeShuffle:
    def test_shuffles_keep_exact_distinct_row_set(self, serial_ctx):
        """The exchange keeps exactly the distinct row set for
        multi-column keys spanning partitions."""
        rng = np.random.default_rng(9)
        src = rng.integers(0, 200, size=4000, dtype=np.int64)
        dst = rng.integers(0, 200, size=4000, dtype=np.int64)
        tag = rng.integers(0, 10, size=4000, dtype=np.int64)
        expected = set(zip(src.tolist(), dst.tolist()))
        out = serial_ctx.parallelize([src, dst, tag]).distinct(
            key_columns=(0, 1)
        ).collect()
        assert out[0].size == len(expected)
        assert set(zip(out[0].tolist(), out[1].tolist())) == expected

    def test_invalid_shuffle_mode(self, serial_ctx):
        """There is one exchange: no argument picks another."""
        ctx = serial_ctx
        with pytest.raises(TypeError, match="shuffle"):
            ctx.parallelize([np.arange(4)]).distinct(shuffle="exchange")
        with pytest.raises(TypeError, match="shuffle"):
            _ctx("serial", shuffle="exchange")

    def test_exchange_balances_partitions(self, serial_ctx):
        """The hash spreads contiguous ids over all reducers instead of
        landing them in one."""
        ctx = serial_ctx
        rdd = ctx.parallelize([np.arange(8000, dtype=np.int64)])
        out = rdd.distinct()
        sizes = out.partition_sizes()
        assert out.count() == 8000
        assert (sizes > 0).all()

    def test_repartition_matches_array_split(self, serial_ctx):
        ctx = serial_ctx
        data = np.arange(101, dtype=np.int64) * 3
        rdd = ctx.parallelize([data], n_partitions=4)
        parts = rdd.repartition(3)
        expected = np.array_split(data, 3)
        assert parts.n_partitions == len(expected)
        for i, want in enumerate(expected):
            assert np.array_equal(parts._partition(i)[0], want)


class TestLargeIdKeys:
    """Regression: a*span+b row keying silently wrapped int64 for vertex
    ids near 2^32 with large spans, merging distinct rows."""

    def test_colliding_pairs_under_old_packing_stay_distinct(
        self, serial_ctx
    ):
        # Old scheme: span = b.max()+1 = 2^32+1;
        # key(2^32, 0) = 2^32 * (2^32+1) == 2^32 (mod 2^64) == key(0, 2^32)
        big = np.int64(2**32)
        a = np.array([big, 0, big], dtype=np.int64)
        b = np.array([0, big, 0], dtype=np.int64)
        idx = _unique_pair_index(a, b)
        assert sorted(idx.tolist()) == [0, 1]

        ctx = serial_ctx
        out = ctx.parallelize([a, b]).distinct(key_columns=(0, 1)).collect()
        pairs = set(zip(out[0].tolist(), out[1].tolist()))
        assert pairs == {(int(big), 0), (0, int(big))}

    def test_true_duplicates_at_large_ids_removed(self, serial_ctx):
        a = np.array([2**62, 2**62, 2**40], dtype=np.int64)
        b = np.array([2**61, 2**61, 2**39], dtype=np.int64)
        ctx = serial_ctx
        out = ctx.parallelize([a, b]).distinct(key_columns=(0, 1)).collect()
        assert out[0].size == 2

    def test_small_id_fast_path_unchanged(self):
        a = np.array([1, 2, 1, 3], dtype=np.int64)
        b = np.array([9, 9, 9, 7], dtype=np.int64)
        idx = _unique_pair_index(a, b)
        assert sorted(idx.tolist()) == [0, 1, 3]

    def test_negative_ids_fall_back_exactly(self):
        a = np.array([-1, -1, 0], dtype=np.int64)
        b = np.array([5, 5, 5], dtype=np.int64)
        idx = _unique_pair_index(a, b)
        assert sorted(idx.tolist()) == [0, 2]


class TestMetadataCache:
    def test_metadata_computed_once_and_read_only(self, serial_ctx):
        ctx = serial_ctx
        rdd = ctx.parallelize([np.arange(1000)])
        sizes = rdd.partition_sizes()
        assert rdd.partition_sizes() is sizes  # cached, not re-scanned
        assert rdd.partition_bytes() is rdd.partition_bytes()
        assert rdd.count() == 1000
        assert not sizes.flags.writeable
        with pytest.raises(ValueError):
            sizes[0] = 7

    def test_cache_consistency_after_transforms(self, serial_ctx):
        ctx = serial_ctx
        rdd = ctx.parallelize([np.arange(100)])
        doubled = rdd.map_partitions(
            lambda cols, i: (np.repeat(cols[0], 2),)
        )
        assert doubled.count() == 200
        assert doubled.partition_bytes().sum() == 2 * (
            rdd.partition_bytes().sum()
        )


class TestWorkerCountIndependence:
    """Worker count changes wall-clock only, never results or metrics."""

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_thread_worker_count_invariant(self, workers):
        def run(w):
            ctx = ClusterContext(
                n_nodes=2, executor_cores=2,
                executor="threads", local_workers=w,
            )
            out = ctx.parallelize([np.arange(3000)]).sample(
                0.3, seed=1
            ).distinct().collect()
            ctx.close()
            return out, ctx.metrics.n_tasks

        ref, ref_tasks = run(1)
        got, got_tasks = run(workers)
        assert np.array_equal(got[0], ref[0])
        assert got_tasks == ref_tasks


@pytest.mark.skipif(
    os.environ.get("REPRO_EXECUTOR", "") != "",
    reason="REPRO_EXECUTOR already pinned in this environment",
)
class TestDefaultBackend:
    def test_default_is_serial(self):
        ctx = ClusterContext(n_nodes=1)
        assert ctx.executor.name == "serial"
