"""In-memory block storage and ``persist()`` accounting.

Layers covered:

* ``parse_size``: the byte-size text the engine's size settings accept;
* ``BlockStore``: put/get round-trips, duplicate ids, reference
  counting;
* ``ArrayRDD.persist()`` / ``unpersist``: the ``persisted_bytes`` drift
  regression and GC-based release;
* the removed out-of-core surface: a storage level is no argument of
  ``persist()`` and the context takes no budget or spill directory.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.bench import default_cluster
from repro.config import parse_size
from repro.engine import BlockId, BlockStore, ClusterContext


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


class TestBlockStore:
    def test_put_get_roundtrip(self):
        store = BlockStore()
        cols = _cols(100)
        store.put(BlockId(0, 0), cols)
        got = store.get(BlockId(0, 0))
        np.testing.assert_array_equal(got[0], cols[0])
        meta = store.meta(BlockId(0, 0))
        assert (meta.rows, meta.nbytes, meta.n_columns) == (
            100, cols[0].nbytes, 1
        )
        assert store.task_ref(BlockId(0, 0)).load() is got
        store.close()

    def test_duplicate_put_rejected(self):
        store = BlockStore()
        store.put(BlockId(0, 0), _cols(10))
        with pytest.raises(ValueError, match="duplicate block"):
            store.put(BlockId(0, 0), _cols(10))
        store.close()

    def test_refcounting_frees_at_zero(self):
        store = BlockStore()
        store.put(BlockId(0, 0), _cols(100))
        store.share(BlockId(0, 0))
        store.release(BlockId(0, 0))
        assert store.n_blocks == 1  # one reference left
        store.release(BlockId(0, 0))
        assert store.n_blocks == 0
        with pytest.raises(KeyError):
            store.get(BlockId(0, 0))
        store.release(BlockId(0, 0))  # idempotent
        store.close()
        store.close()  # idempotent


# ----------------------------------------------------------------------
class TestPersist:
    def test_double_persist_accounting_is_idempotent(self):
        """Regression: repeated persist()/unpersist() must never drift
        ``persisted_bytes``."""
        with ClusterContext(n_nodes=1) as ctx:
            rdd = ctx.parallelize([np.arange(50_000)]).persist()
            rdd.count()
            nbytes = ctx.metrics.persisted_bytes
            assert nbytes > 0
            rdd.persist()
            rdd.persist()
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


# ----------------------------------------------------------------------
class TestRemovedOutOfCore:
    """Storage levels, budgets and spill directories are gone: a removed
    keyword is a ``TypeError``, never silently ignored."""

    def test_persist_takes_no_level(self):
        with ClusterContext(n_nodes=1) as ctx:
            with pytest.raises(TypeError):
                ctx.parallelize([np.arange(10)]).persist("disk_only")

    @pytest.mark.parametrize(
        "kwargs", [{"memory_budget_bytes": "8MB"}, {"spill_dir": "/tmp"}]
    )
    def test_context_takes_no_budget(self, kwargs):
        with pytest.raises(TypeError):
            ClusterContext(n_nodes=1, **kwargs)
        with pytest.raises(TypeError):
            default_cluster(**kwargs)

    def test_no_streamed_ops(self):
        with ClusterContext(n_nodes=1) as ctx:
            rdd = ctx.parallelize([np.arange(10)])
            with pytest.raises(TypeError):
                rdd.map_partitions(lambda c, p: c, stream=True)
            with pytest.raises(TypeError):
                ctx.generate(
                    10, lambda n, p: (np.arange(n),), stream=True
                )
