"""Disk-backed block storage: budgeted spill, levels, checkpoints.

The contract under test — the storage subsystem's invariant: for any
memory budget (including "everything spills") and any storage level, on
any executor backend, every pipeline produces the byte-identical dataset
and the identical simulated stage structure as the unlimited in-memory
run.  The budget moves bytes between tiers; it never changes results.

Layers covered:

* ``parse_size`` / the ``memory_budget`` and ``spill_dir`` settings:
  the env/argument precedence knobs;
* ``BlockStore``: put/get round-trips, LRU eviction + transparent
  reload, level semantics (pinned / evictable / stream-through),
  reference counting, durable checkpoint blocks, tier accounting;
* ``ArrayRDD.persist(level)`` / ``unpersist`` / ``checkpoint``, the
  ``persisted_bytes`` drift regression, and GC-based release;
* the budget x backend x level digest matrix for raw pipelines and the
  PGPBA / PGSK generators;
* checkpoint-vs-persist recovery accounting under a fault plan: the
  checkpointed anchor charges zero bytes to
  ``recovery_recompute_bytes``, so it is strictly cheaper.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.config import parse_size
from repro.core import PGPBA, PGSK
from repro.engine import (
    BlockId,
    BlockStore,
    ClusterContext,
    FaultPlan,
    StorageLevel,
    available_backends,
)
from repro.engine.storage import BlockWriter, SpilledBlockHandle
from repro.engine.storage.blocks import load_block_file, write_block_file

BACKENDS = tuple(available_backends())


def _digest(cols) -> str:
    h = hashlib.sha256()
    for c in cols:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _cols(n: int, seed: int = 0) -> tuple:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << 30, size=n, dtype=np.int64),)


# ----------------------------------------------------------------------
class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4096", 4096),
            ("1kb", 1024),
            ("8MB", 8 * 2**20),
            ("8MiB", 8 * 2**20),
            ("  64 mb ", 64 * 2**20),
            ("1.5GB", int(1.5 * 2**30)),
            ("2TiB", 2 * 2**40),
            ("512B", 512),
            ("3K", 3 * 1024),
        ],
    )
    def test_sizes(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "MB", "-5MB", "8 peta", "1..5MB"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


class TestResolvers:
    """The store's three settings, read through its constructor (the
    per-row precedence table is tests/test_config.py)."""

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "8MB")
        assert BlockStore("64MB").memory_budget_bytes == 64 * 2**20
        assert BlockStore(4096).memory_budget_bytes == 4096

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "8MB")
        assert BlockStore().memory_budget_bytes == 8 * 2**20
        monkeypatch.delenv("REPRO_MEMORY_BUDGET")
        assert BlockStore().memory_budget_bytes is None

    @pytest.mark.parametrize("token", ["none", "off", "unlimited", "inf", ""])
    def test_unlimited_tokens(self, token, monkeypatch):
        # An explicit token, the blank one included, lifts a budget the
        # environment sets.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "8MB")
        assert BlockStore(token).memory_budget_bytes is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="REPRO_MEMORY_BUDGET"):
            BlockStore(-1)

    def test_spill_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "env"))
        assert BlockStore(spill_dir=tmp_path / "arg").spill_base == str(
            tmp_path / "arg"
        )
        assert BlockStore().spill_base == str(tmp_path / "env")
        monkeypatch.delenv("REPRO_SPILL_DIR")
        assert BlockStore().spill_base is None

    def test_context_reads_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1kb")
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spills"))
        with ClusterContext(n_nodes=1) as ctx:
            assert ctx.storage.memory_budget_bytes == 1024
            assert ctx.storage.spill_base == str(tmp_path / "spills")
            ctx.parallelize([np.arange(4096)]).count()
            assert str(ctx.storage.spill_dir).startswith(
                str(tmp_path / "spills")
            )


class TestStorageLevel:
    def test_coerce(self):
        assert StorageLevel.coerce("disk_only") is StorageLevel.DISK_ONLY
        assert (
            StorageLevel.coerce(" Memory_And_Disk ")
            is StorageLevel.MEMORY_AND_DISK
        )
        assert (
            StorageLevel.coerce(StorageLevel.MEMORY_ONLY)
            is StorageLevel.MEMORY_ONLY
        )

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown storage level"):
            StorageLevel.coerce("ram_and_tape")


# ----------------------------------------------------------------------
class TestBlockStore:
    def _store(self, tmp_path, budget=None) -> BlockStore:
        return BlockStore(memory_budget_bytes=budget, spill_dir=str(tmp_path))

    def test_put_get_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        cols = _cols(100)
        store.put(BlockId(0, 0), cols)
        got = store.get(BlockId(0, 0))
        np.testing.assert_array_equal(got[0], cols[0])
        assert store.stats.memory_bytes == cols[0].nbytes
        assert store.stats.disk_bytes == 0
        store.close()

    def test_duplicate_put_rejected(self, tmp_path):
        store = self._store(tmp_path)
        store.put(BlockId(0, 0), _cols(10))
        with pytest.raises(ValueError, match="duplicate block"):
            store.put(BlockId(0, 0), _cols(10))
        store.close()

    def test_lru_eviction_and_reload(self, tmp_path):
        # Budget holds exactly two 800-byte blocks.
        store = self._store(tmp_path, budget=1700)
        a, b, c = _cols(100, 1), _cols(100, 2), _cols(100, 3)
        store.put(BlockId(0, 0), a)
        store.put(BlockId(0, 1), b)
        store.put(BlockId(0, 2), c)
        # The least recently used block (a) was spilled.
        assert store.stats.spill_count == 1
        assert store.stats.memory_bytes == 1600
        assert store.stats.disk_logical_bytes == 800
        assert store.meta(BlockId(0, 0)).columns is None
        # Reloading a is transparent and evicts the new LRU (b).
        got = store.get(BlockId(0, 0))
        np.testing.assert_array_equal(got[0], a[0])
        assert store.stats.reload_count == 1
        assert store.meta(BlockId(0, 1)).columns is None
        # Every block still reads back byte-identical.
        for bid, cols in ((BlockId(0, 1), b), (BlockId(0, 2), c)):
            np.testing.assert_array_equal(store.get(bid)[0], cols[0])
        store.close()

    def test_spill_does_not_rewrite_clean_file(self, tmp_path):
        store = self._store(tmp_path, budget=800)
        store.put(BlockId(0, 0), _cols(100, 1))
        store.put(BlockId(0, 1), _cols(100, 2))  # evicts block 0
        assert store.stats.spill_count == 1
        store.get(BlockId(0, 0))  # reload; evicts block 1
        store.get(BlockId(0, 1))  # reload; evicts block 0 again
        # Block 0's file is still on disk and clean: no second write.
        assert store.stats.spill_count == 2
        store.close()

    def test_memory_only_is_pinned(self, tmp_path):
        store = self._store(tmp_path, budget=1)
        store.put(BlockId(0, 0), _cols(100, 1), level=StorageLevel.MEMORY_ONLY)
        store.put(BlockId(0, 1), _cols(100, 2))
        # The evictable block spilled; the pinned one stayed resident
        # even though the store is far over budget.
        assert store.meta(BlockId(0, 0)).columns is not None
        assert store.meta(BlockId(0, 1)).columns is None
        store.close()

    def test_disk_only_streams_through(self, tmp_path):
        store = self._store(tmp_path)
        cols = _cols(100)
        store.put(BlockId(0, 0), cols, level=StorageLevel.DISK_ONLY)
        assert store.stats.memory_bytes == 0
        assert store.stats.disk_logical_bytes == cols[0].nbytes
        for expected_reloads in (1, 2):
            got = store.get(BlockId(0, 0))
            np.testing.assert_array_equal(got[0], cols[0])
            assert store.stats.reload_count == expected_reloads
        assert store.stats.memory_bytes == 0  # never cached
        store.close()

    def test_refcounting_frees_at_zero(self, tmp_path):
        store = self._store(tmp_path, budget=0)
        store.put(BlockId(0, 0), _cols(100))
        path = store.meta(BlockId(0, 0)).path
        assert path is not None and os.path.exists(path)
        store.share(BlockId(0, 0))
        store.release(BlockId(0, 0))
        assert store.n_blocks == 1  # one reference left
        store.release(BlockId(0, 0))
        assert store.n_blocks == 0
        assert not os.path.exists(path)
        assert store.stats.memory_bytes == 0
        assert store.stats.disk_bytes == 0
        store.release(BlockId(0, 0))  # idempotent
        store.close()

    def test_adopt_task_written_block(self, tmp_path):
        store = self._store(tmp_path, budget=0)
        writer = store.block_writer()
        assert isinstance(pickle.loads(pickle.dumps(writer)), BlockWriter)
        cols = _cols(50)
        handle = writer.write(BlockId(7, 3).filename, cols)
        assert isinstance(handle, SpilledBlockHandle)
        spills_before = store.stats.spill_count
        store.adopt(BlockId(7, 3), handle)
        assert store.stats.spill_count == spills_before + 1
        np.testing.assert_array_equal(store.get(BlockId(7, 3))[0], cols[0])
        store.close()

    def test_checkpoint_block_is_durable(self, tmp_path):
        store = self._store(tmp_path)
        cols = _cols(100)
        store.put(BlockId(0, 0), cols)
        path = store.checkpoint_block(BlockId(0, 0))
        entry = store.meta(BlockId(0, 0))
        assert os.sep + "checkpoints" + os.sep in path
        assert entry.durable and entry.level is StorageLevel.DISK_ONLY
        assert entry.columns is None  # reads go through the file
        np.testing.assert_array_equal(store.get(BlockId(0, 0))[0], cols[0])
        # Re-checkpointing and re-levelling are no-ops on durable blocks.
        assert store.checkpoint_block(BlockId(0, 0)) == path
        store.set_level(BlockId(0, 0), StorageLevel.MEMORY_ONLY)
        assert store.meta(BlockId(0, 0)).level is StorageLevel.DISK_ONLY
        store.close()

    def test_block_file_roundtrip_bit_exact(self, tmp_path):
        cols = (
            np.arange(100, dtype=np.int64),
            np.linspace(0, 1, 100),
            np.arange(100, dtype=np.uint16),
        )
        path = str(tmp_path / "block.blk")
        handle = write_block_file(path, cols)
        assert handle.rows == 100 and handle.n_columns == 3
        loaded = load_block_file(path)
        assert len(loaded) == 3
        for got, want in zip(loaded, cols):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_close_removes_session_dir(self, tmp_path):
        store = self._store(tmp_path, budget=0)
        store.put(BlockId(0, 0), _cols(10))
        session = store.spill_dir
        assert session is not None and session.exists()
        store.close()
        assert not session.exists()
        store.close()  # idempotent


# ----------------------------------------------------------------------
class TestPersistLevels:
    def test_disk_only_persist_collects_identically(self):
        ref = None
        for level in (None, "disk_only", "memory_only"):
            with ClusterContext(n_nodes=2, executor_cores=4) as ctx:
                rdd = ctx.parallelize([np.arange(10_000) % 97])
                rdd = rdd.map_partitions(
                    lambda c, p: (c[0] * 3 + 1,), stage="t"
                ).persist(level)
                out = _digest(rdd.collect())
                if level == "disk_only":
                    assert ctx.metrics.storage_disk_bytes > 0
            ref = ref or out
            assert out == ref

    def test_double_persist_accounting_is_idempotent(self):
        """Regression: repeated persist()/unpersist() must never drift
        ``persisted_bytes``."""
        with ClusterContext(n_nodes=1) as ctx:
            rdd = ctx.parallelize([np.arange(50_000)]).persist()
            rdd.count()
            nbytes = ctx.metrics.persisted_bytes
            assert nbytes > 0
            rdd.persist()
            rdd.persist("memory_only")
            rdd.persist("memory_and_disk")
            assert ctx.metrics.persisted_bytes == nbytes
            rdd.unpersist()
            assert ctx.metrics.persisted_bytes == 0
            rdd.unpersist()
            assert ctx.metrics.persisted_bytes == 0
            rdd.persist()
            assert ctx.metrics.persisted_bytes == nbytes
            assert ctx.metrics.peak_persisted_bytes == nbytes

    def test_gc_releases_persist_accounting_and_blocks(self):
        """Regression: a persisted RDD that is garbage collected without
        ``unpersist()`` must not leak meter bytes or store blocks."""
        with ClusterContext(n_nodes=1) as ctx:
            rdd = ctx.parallelize([np.arange(10_000)]).persist()
            rdd.count()
            assert ctx.metrics.persisted_bytes > 0
            assert ctx.storage.n_blocks > 0
            del rdd
            gc.collect()
            assert ctx.metrics.persisted_bytes == 0
            assert ctx.storage.n_blocks == 0

    def test_metrics_surface_storage_stats(self):
        with ClusterContext(n_nodes=1, memory_budget_bytes=1) as ctx:
            rdd = ctx.parallelize([np.arange(100_000)])
            rdd = rdd.map_partitions(lambda c, p: (c[0] + 1,), stage="t")
            rdd.collect()
            m = ctx.metrics
            assert m.storage_spill_count > 0
            assert m.storage_reload_count > 0
            assert m.storage_disk_high_water_bytes > 0
            assert m.storage_disk_bytes == ctx.storage.stats.disk_bytes
            ctx.reset_metrics()  # stays attached to the same store
            assert (
                ctx.metrics.storage_disk_bytes == ctx.storage.stats.disk_bytes
            )

    def test_checkpoint_truncates_to_durable_blocks(self):
        with ClusterContext(n_nodes=2, executor_cores=4) as ctx:
            rdd = ctx.parallelize([np.arange(20_000)])
            rdd = rdd.map_partitions(
                lambda c, p: (c[0] * 7,), stage="t"
            ).persist()
            before = _digest(rdd.collect())
            rdd.checkpoint()
            assert rdd.is_checkpointed
            store = ctx.storage
            for block_id in rdd._blocks:
                entry = store.meta(block_id)
                assert entry.durable
                assert os.sep + "checkpoints" + os.sep in entry.path
            assert _digest(rdd.collect()) == before
            # Downstream work reads through the checkpoint files.
            out = rdd.map_partitions(lambda c, p: (c[0] + 1,), stage="u")
            np.testing.assert_array_equal(
                out.collect()[0], np.arange(20_000) * 7 + 1
            )


# ----------------------------------------------------------------------
def _chain_collect(ctx, rows: int = 60_000):
    """A growth-shaped pipeline exercising fusion, shuffle and
    repartition; returns collected columns."""
    rng = np.random.default_rng(7)
    src = rng.integers(0, rows // 3, size=rows, dtype=np.int64)
    dst = rng.integers(0, rows // 3, size=rows, dtype=np.int64)
    base = ctx.parallelize([src, dst])
    grown = base.map_partitions(
        lambda c, p: (np.repeat(c[0], 3), np.repeat(c[1], 3)),
        stage="t:grow",
    )
    mixed = grown.map_partitions(
        lambda c, p: (c[0] * 5 + p, c[0] ^ c[1]), stage="t:mix"
    )
    dis = mixed.distinct(key_columns=(0, 1), stage="t:distinct")
    rep = dis.repartition(max(2, dis.n_partitions // 2))
    return rep.collect()


def _stage_structure(ctx):
    return [
        (r.stage, r.partition, r.node, r.bytes_out)
        for r in ctx.metrics.tasks
    ]


class TestBudgetDigestMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("budget", [None, 1, "64KB"])
    def test_chain_identical_under_any_budget(self, backend, budget):
        with ClusterContext(
            n_nodes=2, executor_cores=4, executor=backend, local_workers=2,
            memory_budget_bytes=budget,
        ) as ctx:
            cols = _chain_collect(ctx)
            structure = _stage_structure(ctx)
            if budget is not None:
                assert ctx.metrics.storage_spill_count > 0
                # Shuffle segments are deleted once consumed.
                assert ctx.storage._shuffle_disk_bytes == 0
        if not hasattr(type(self), "_ref"):
            type(self)._ref = (_digest(cols), structure)
        ref_digest, ref_structure = type(self)._ref
        assert _digest(cols) == ref_digest
        assert structure == ref_structure

    def test_budgeted_peak_memory_below_unlimited(self):
        """What the budget is for, at grow/distinct scale: 5x10^5 pair
        rows generated per partition (the driver never builds the
        input), doubled, then deduplicated.  Unlimited, the driver holds
        the grown dataset; under a 4 MiB budget the overflow lands on
        disk and the traced peak stays under the budget (measured 8.9x
        apart).  The RDD is digested one partition at a time —
        collecting it would re-materialise what the budget keeps out.
        Serial, because tracemalloc only sees this process."""
        rows, budget = 500_000, 4 << 20

        def make(count, pidx):
            rng = np.random.default_rng((41, pidx))
            return (
                rng.integers(0, rows // 4, size=count, dtype=np.int64),
                rng.integers(0, rows // 4, size=count, dtype=np.int64),
            )

        def run(budget_bytes):
            # "none", not None: the spill CI job sets an ambient budget.
            with ClusterContext(
                n_nodes=4, executor="serial",
                memory_budget_bytes=budget_bytes,
                target_partition_bytes="4MB", fault_plan=FaultPlan(),
            ) as ctx:
                tracemalloc.start()
                try:
                    out = (
                        ctx.generate(rows, make, stage="make")
                        .map_partitions(
                            lambda c, p: (np.repeat(c[0], 2),
                                          np.repeat(c[1], 2)),
                            stage="grow",
                        )
                        .distinct(key_columns=(0, 1), stage="dedup")
                    )
                    out.count()
                    _, peak_bytes = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                h = hashlib.sha256()
                for i in range(out.n_partitions):
                    for col in out._partition(i):
                        h.update(np.ascontiguousarray(col).tobytes())
                m = ctx.metrics
                return (
                    (h.hexdigest(), _stage_structure(ctx)), peak_bytes,
                    m.storage_spill_count, m.storage_disk_high_water_bytes,
                )

        reference, unlimited_peak, spills, disk = run("none")
        assert spills == 0 and disk == 0
        result, budgeted_peak, spills, disk = run(budget)
        assert result == reference
        assert spills > 0 and disk > 0
        assert budgeted_peak < budget, budgeted_peak
        assert unlimited_peak >= 3 * budgeted_peak, (
            unlimited_peak, budgeted_peak
        )

    @pytest.mark.parametrize(
        "budget,level",
        [(None, "memory_and_disk"), ("4KB", "memory_and_disk"),
         (None, "disk_only")],
    )
    def test_pgpba_identical_under_any_budget(
        self, seed_graph, seed_analysis, budget, level
    ):
        with ClusterContext(
            n_nodes=2, executor_cores=4, memory_budget_bytes=budget
        ) as ctx:
            result = PGPBA(
                fraction=2.0, seed=11, storage_level=level
            ).generate(
                seed_graph, seed_analysis, 4 * seed_graph.n_edges,
                context=ctx,
            )
            digest = _digest(
                (result.graph.src, result.graph.dst)
                + tuple(
                    result.graph.edge_properties[k]
                    for k in sorted(result.graph.edge_properties)
                )
            )
        if not hasattr(type(self), "_pgpba_ref"):
            type(self)._pgpba_ref = digest
        assert digest == type(self)._pgpba_ref

    @pytest.mark.parametrize(
        "budget,level",
        [(None, "memory_and_disk"), ("4KB", "memory_and_disk"),
         (None, "disk_only")],
    )
    def test_pgsk_identical_under_any_budget(
        self, seed_graph, seed_analysis, budget, level
    ):
        pgsk = PGSK(
            seed=11, kronfit_iterations=4, kronfit_swaps=10,
            storage_level=level,
        )
        initiator = pgsk.fit_initiator(seed_graph)
        with ClusterContext(
            n_nodes=2, executor_cores=4, memory_budget_bytes=budget
        ) as ctx:
            result = pgsk.generate(
                seed_graph, seed_analysis, 2 * seed_graph.n_edges,
                context=ctx, initiator=initiator,
            )
            digest = _digest(
                (result.graph.src, result.graph.dst)
                + tuple(
                    result.graph.edge_properties[k]
                    for k in sorted(result.graph.edge_properties)
                )
            )
        if not hasattr(type(self), "_pgsk_ref"):
            type(self)._pgsk_ref = digest
        assert digest == type(self)._pgsk_ref


# ----------------------------------------------------------------------
class TestCheckpointRecovery:
    def _run(self, checkpoint: bool):
        plan = FaultPlan(
            seed=5, p_exception=0.4, max_failures_per_task=2
        )
        with ClusterContext(
            n_nodes=2, executor_cores=4, executor="serial",
            fault_plan=plan, retry_backoff_seconds=0.0,
        ) as ctx:
            rng = np.random.default_rng(3)
            src = rng.integers(0, 1000, size=40_000, dtype=np.int64)
            base = ctx.parallelize([src]).persist()
            base.count()
            if checkpoint:
                base.checkpoint()
            out = base.map_partitions(
                lambda c, p: (c[0] * 2 + 1,), stage="x"
            ).map_partitions(lambda c, p: (c[0] ^ 7,), stage="y")
            cols = out.collect()
            assert ctx.metrics.tasks_failed > 0
            return (
                _digest(cols),
                _stage_structure(ctx),
                ctx.metrics.recovery_recompute_bytes,
            )

    def test_checkpoint_strictly_cheaper_to_recover(self):
        """The acceptance assertion: under the same fault plan, the
        checkpointed pipeline recomputes strictly fewer bytes than the
        persist()-only one — a lost task re-reads the durable anchor
        instead of re-charging its bytes — while producing the identical
        dataset and simulated stage structure."""
        persist_digest, persist_stages, persist_bytes = self._run(False)
        ckpt_digest, ckpt_stages, ckpt_bytes = self._run(True)
        assert ckpt_digest == persist_digest
        assert ckpt_stages == persist_stages
        assert persist_bytes > 0
        assert ckpt_bytes < persist_bytes

    def test_chain_recovers_identically_under_budget_and_faults(self):
        """Fault recovery composes with the spill path: a fully budgeted
        run under an aggressive plan still produces the byte-identical
        dataset as the clean unlimited run."""
        ref = None
        for budget, plan in (
            (None, None),
            (1, FaultPlan(seed=9, p_exception=0.3, max_failures_per_task=2)),
        ):
            with ClusterContext(
                n_nodes=2, executor_cores=4, memory_budget_bytes=budget,
                fault_plan=plan, retry_backoff_seconds=0.0,
            ) as ctx:
                digest = _digest(_chain_collect(ctx, rows=20_000))
                structure = _stage_structure(ctx)
                if plan is not None:
                    assert ctx.metrics.tasks_failed > 0
            if ref is None:
                ref = (digest, structure)
            assert (digest, structure) == ref
