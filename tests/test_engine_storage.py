"""Partitions held by their RDD, and ``persist()`` accounting.

Layers covered:

* a materialized ``ArrayRDD`` holds its partitions: size metadata reads
  the arrays, a ``union`` passthrough shares the anchor's column tuple,
  and the arrays are freed with the last RDD that holds them;
* ``ArrayRDD.persist()`` / ``unpersist``: the ``persisted_bytes`` drift
  regression and GC-based release;
* the removed out-of-core surface: a storage level is no argument of
  ``persist()`` and the context takes no budget, spill directory,
  fusion switch or partition-byte target.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.bench import default_cluster
from repro.engine import ClusterContext


# ----------------------------------------------------------------------
class TestPartitions:
    def test_metadata_reads_the_arrays(self):
        with ClusterContext(n_nodes=1) as ctx:
            rdd = ctx.parallelize(
                [np.arange(100), np.arange(100, dtype=np.int32)],
                n_partitions=3,
            )
            parts = rdd._force()
            assert rdd.partition_sizes().tolist() == [34, 33, 33]
            assert rdd.partition_bytes().tolist() == [
                sum(c.nbytes for c in p) for p in parts
            ]
            assert rdd.count() == 100 and rdd.n_columns == 2

    def test_union_passthrough_shares_the_anchor_tuple(self):
        with ClusterContext(n_nodes=1) as ctx:
            a = ctx.parallelize([np.arange(10)], n_partitions=2)
            b = a.map_partitions(lambda cols, i: (cols[0] + 1,))
            both = a.union(b)
            parts = both._force()
            assert parts[0] is a._force()[0]
            assert parts[1] is a._force()[1]
            assert parts[2] is not a._force()[0]
            assert both.collect()[0].tolist() == [*range(10), *range(1, 11)]

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
        ``unpersist()`` must not leak meter bytes or its partitions."""
        with ClusterContext(n_nodes=1) as ctx:
            rdd = ctx.parallelize([np.arange(10_000)]).persist()
            rdd.count()
            assert ctx.metrics.persisted_bytes > 0
            column = weakref.ref(rdd._force()[0][0])
            del rdd
            gc.collect()
            assert ctx.metrics.persisted_bytes == 0
            assert column() is None


# ----------------------------------------------------------------------
class TestRemovedOutOfCore:
    """Storage levels, budgets and spill directories are gone, as are the
    fault plan, the retry budget, the fusion switch and the partition
    coalescing target: a removed keyword is a ``TypeError``, never
    silently ignored."""

    def test_persist_takes_no_level(self):
        with ClusterContext(n_nodes=1) as ctx:
            with pytest.raises(TypeError):
                ctx.parallelize([np.arange(10)]).persist("disk_only")

    @pytest.mark.parametrize(
        "kwargs",
        [{"memory_budget_bytes": "8MB"}, {"spill_dir": "/tmp"},
         {"fault_plan": {"seed": 1}}, {"max_task_retries": 3},
         {"retry_backoff_seconds": 0.0}, {"fusion": False},
         {"target_partition_bytes": "4MB"}],
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
