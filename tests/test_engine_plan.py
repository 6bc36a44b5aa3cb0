"""Lazy lineage DAG, stage fusion and persist() caching.

The contract under test: fusion changes *how* partition tasks run (one
fused task per partition instead of one task per transformation) but not
*what* the engine computes or reports — datasets, simulated stage
records, node assignment and byte accounting are bit-identical between
the fused plan and the eager reference, on every executor backend.  The
eager reference is built here, by :func:`eager`: it forces every
transformation as soon as it is built.
"""

from __future__ import annotations

import contextlib
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import PGPBA, PGSK
from repro.engine import ClusterContext
from repro.engine.executor import SerialExecutor
from repro.engine.rdd import ArrayRDD


class CountingExecutor(SerialExecutor):
    """Serial backend that counts dispatched batches and tasks."""

    name = "counting"

    def __init__(self) -> None:
        super().__init__(workers=1)
        self.batches = 0
        self.tasks = 0

    def run(self, tasks):
        self.batches += 1
        self.tasks += len(tasks)
        return super().run(tasks)


def counting_ctx(**kwargs):
    ex = CountingExecutor()
    ctx = ClusterContext(n_nodes=2, executor=ex, **kwargs)
    return ctx, ex


def stage_structure(ctx):
    """Everything about the simulated stages except the measured times."""
    return [
        (r.stage, r.partition, r.node, r.bytes_out)
        for r in ctx.metrics.tasks
    ]


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _forced(transformation):
    def run(self, *args, **kwargs):
        out = transformation(self, *args, **kwargs)
        out._force()
        return out

    return run


@contextlib.contextmanager
def eager(on: bool = True):
    """While active (and ``on``), every ``map_partitions`` and ``union``
    forces its result at once, so no chain grows beyond one operator:
    the eager reference the fused plan is compared with.  ``sample``,
    ``generate`` and the map side of ``distinct`` go through
    ``map_partitions``."""
    with pytest.MonkeyPatch.context() as patch:
        if on:
            for name in ("map_partitions", "union"):
                patch.setattr(
                    ArrayRDD, name, _forced(getattr(ArrayRDD, name))
                )
        yield


# ----------------------------------------------------------------------
# laziness + fusion mechanics
# ----------------------------------------------------------------------
class TestLaziness:
    def test_transformations_record_nothing(self):
        ctx, ex = counting_ctx()
        rdd = ctx.parallelize([np.arange(100), np.arange(100)])
        mapped = rdd.map_partitions(
            lambda cols, p: tuple(c * 2 for c in cols), stage="double"
        )
        sampled = mapped.sample(0.5, seed=3)
        merged = sampled.union(mapped)
        assert ctx.metrics.n_tasks == 0
        assert ex.batches == 0
        assert not mapped.is_materialized
        assert not merged.is_materialized
        ctx.close()

    def test_action_forces_and_records(self):
        ctx, ex = counting_ctx()
        rdd = ctx.parallelize([np.arange(100)])
        mapped = rdd.map_partitions(
            lambda cols, p: (cols[0] + 1,), stage="inc"
        )
        total = mapped.count()
        assert total == 100
        assert mapped.is_materialized
        assert ctx.metrics.n_tasks > 0
        assert ex.batches == 1
        ctx.close()

    def test_chain_fuses_into_one_dispatch(self):
        ctx, ex = counting_ctx()
        rdd = ctx.parallelize([np.arange(512)], n_partitions=4)
        out = (
            rdd.map_partitions(lambda c, p: (c[0] * 3,), stage="a")
            .map_partitions(lambda c, p: (c[0] + 1,), stage="b")
            .map_partitions(lambda c, p: (c[0] % 7,), stage="c")
        )
        out.collect()
        # One executor batch, one fused task per partition...
        assert ex.batches == 1
        assert ex.tasks == rdd.n_partitions
        # ...but three separately-timed simulated stages.
        stages = [r.stage for r in ctx.metrics.tasks]
        assert sorted(set(stages)) == ["a", "b", "c"]
        ctx.close()

    def test_eager_dispatches_per_stage(self):
        ctx, ex = counting_ctx()
        rdd = ctx.parallelize([np.arange(512)], n_partitions=4)
        with eager():
            (
                rdd.map_partitions(lambda c, p: (c[0] * 3,), stage="a")
                .map_partitions(lambda c, p: (c[0] + 1,), stage="b")
                .map_partitions(lambda c, p: (c[0] % 7,), stage="c")
            )
        # The eager reference forces each transformation as it is built.
        assert ex.batches == 3
        assert ex.tasks == 3 * rdd.n_partitions
        ctx.close()

    def test_persist_boundary_breaks_fusion(self):
        ctx, ex = counting_ctx()
        rdd = ctx.parallelize([np.arange(256)], n_partitions=4)
        pinned = rdd.map_partitions(
            lambda c, p: (c[0] + 1,), stage="a"
        ).persist()
        tail = pinned.map_partitions(lambda c, p: (c[0] * 2,), stage="b")
        tail.collect()
        # The persisted anchor is forced in its own batch, then the tail.
        assert ex.batches == 2
        assert pinned.is_materialized
        ctx.close()


# ----------------------------------------------------------------------
# persist() / unpersist() caching + accounting
# ----------------------------------------------------------------------
class TestPersist:
    def test_persist_prevents_recomputation(self):
        ctx, ex = counting_ctx()
        rdd = ctx.parallelize([np.arange(256)], n_partitions=4)
        pinned = rdd.map_partitions(
            lambda c, p: (c[0] + 1,), stage="base"
        ).persist()
        left = pinned.map_partitions(lambda c, p: (c[0] * 2,), stage="l")
        right = pinned.map_partitions(lambda c, p: (c[0] * 3,), stage="r")
        left.collect()
        after_left = ex.tasks
        right.collect()
        # The second branch reads the pinned partitions: only its own 4
        # tasks run, the "base" stage is not replayed.
        assert ex.tasks - after_left == rdd.n_partitions
        assert [r.stage for r in ctx.metrics.tasks].count("base") == 4
        ctx.close()

    def test_repeated_actions_hit_cache(self):
        ctx, ex = counting_ctx()
        mapped = ctx.parallelize([np.arange(64)]).map_partitions(
            lambda c, p: (c[0] + 1,), stage="inc"
        )
        mapped.count()
        batches = ex.batches
        mapped.count()
        mapped.collect()
        mapped.partition_sizes()
        # Forcing materializes the RDD itself; later actions are free.
        assert ex.batches == batches
        ctx.close()

    def test_persist_registers_bytes_on_force(self):
        with ClusterContext() as ctx:
            pinned = ctx.parallelize([np.arange(1000)]).map_partitions(
                lambda c, p: (c[0] * 2,), stage="x"
            ).persist()
            # Lazy persist: nothing resident until an action forces it.
            assert ctx.metrics.persisted_bytes == 0
            pinned.count()
            assert ctx.metrics.persisted_bytes == 8000
            assert ctx.metrics.peak_persisted_bytes == 8000

    def test_unpersist_releases_bytes(self):
        with ClusterContext() as ctx:
            a = ctx.parallelize([np.arange(1000)]).persist()
            b = ctx.parallelize([np.arange(500)]).persist()
            a.count(), b.count()
            assert ctx.metrics.persisted_bytes == 12000
            a.unpersist()
            assert ctx.metrics.persisted_bytes == 4000
            assert not a.is_persisted
            a.unpersist()  # idempotent
            b.unpersist()
            assert ctx.metrics.persisted_bytes == 0
            # The high-water mark survives the release.
            assert ctx.metrics.peak_persisted_bytes == 12000


# ----------------------------------------------------------------------
# fused == eager: datasets and simulated stage structure
# ----------------------------------------------------------------------
def _pipeline(ctx):
    """A pipeline exercising map/sample/union/distinct/repartition."""
    base = ctx.parallelize(
        [np.arange(2000) % 97, np.arange(2000) % 89], n_partitions=8
    )
    mapped = base.map_partitions(
        lambda c, p: (c[0] * 3 + p, c[1] + 1), stage="mix"
    )
    sampled = mapped.sample(0.5, seed=11, stage="pick")
    merged = sampled.union(mapped)
    deduped = merged.distinct(key_columns=(0, 1), stage="dedup")
    final = deduped.repartition(4)
    return final.collect()


class TestFusedEagerEquivalence:
    def test_pipeline_identical(self):
        with ClusterContext(n_nodes=3) as ctx_f:
            cols_f = _pipeline(ctx_f)
            struct_f = stage_structure(ctx_f)
        with eager(), ClusterContext(n_nodes=3) as ctx_e:
            cols_e = _pipeline(ctx_e)
            struct_e = stage_structure(ctx_e)
        assert digest(cols_f) == digest(cols_e)
        assert struct_f == struct_e

    def test_fused_peak_memory_below_eager(self):
        """What fusion is for, at a growth-shaped chain (expand x4,
        transform, contract, distinct): eagerly, the expanded dataset is
        materialised in full before the next stage starts; fused, each
        partition flows through the whole narrow chain in one task.
        Measured 3.5x at this size; serial, because tracemalloc only
        sees this process."""
        rows = 100_000
        rng = np.random.default_rng(23)
        src = rng.integers(0, rows // 2, size=rows, dtype=np.int64)
        dst = rng.integers(0, rows // 2, size=rows, dtype=np.int64)

        def run(eager_on):
            with eager(eager_on), ClusterContext(
                n_nodes=4, executor="serial"
            ) as ctx:
                tracemalloc.start()
                try:
                    cols = (
                        ctx.parallelize([src, dst])
                        .map_partitions(
                            lambda c, p: (np.repeat(c[0], 4),
                                          np.repeat(c[1], 4)),
                            stage="grow",
                        )
                        .map_partitions(
                            lambda c, p: (c[0] * 3 + p, c[0] ^ c[1]),
                            stage="mix",
                        )
                        .map_partitions(
                            lambda c, p: (c[0][::4].copy(), c[1][::4].copy()),
                            stage="contract",
                        )
                        .distinct(key_columns=(0, 1), stage="dedup")
                        .collect()
                    )
                    _, peak_bytes = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                return digest(cols), stage_structure(ctx), peak_bytes

        fused_digest, fused_stages, fused_peak = run(False)
        eager_digest, eager_stages, eager_peak = run(True)
        assert fused_digest == eager_digest
        assert fused_stages == eager_stages
        assert eager_peak >= 2 * fused_peak, (eager_peak, fused_peak)

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_pgpba_identical_across_modes_and_backends(
        self, seed_graph, seed_analysis, backend
    ):
        results = {}
        for eager_on in (False, True):
            with eager(eager_on), ClusterContext(
                n_nodes=2, executor=backend, local_workers=2
            ) as ctx:
                gen = PGPBA(fraction=0.5, seed=3)
                res = gen.generate(
                    seed_graph,
                    seed_analysis,
                    seed_graph.n_edges * 2,
                    context=ctx,
                )
                results[eager_on] = (
                    digest([res.graph.src, res.graph.dst]),
                    stage_structure(ctx),
                    ctx.metrics.peak_persisted_bytes,
                )
        assert results[False] == results[True]

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_pgsk_identical_across_modes_and_backends(
        self, seed_graph, seed_analysis, backend
    ):
        gen = PGSK(seed=5, kronfit_iterations=4, kronfit_swaps=20)
        initiator = gen.fit_initiator(seed_graph)
        results = {}
        for eager_on in (False, True):
            with eager(eager_on), ClusterContext(
                n_nodes=2, executor=backend, local_workers=2
            ) as ctx:
                res = gen.generate(
                    seed_graph,
                    seed_analysis,
                    800,
                    context=ctx,
                    initiator=initiator,
                )
                results[eager_on] = (
                    digest([res.graph.src, res.graph.dst]),
                    stage_structure(ctx),
                    ctx.metrics.peak_persisted_bytes,
                )
        assert results[False] == results[True]

    def test_generators_leave_no_pinned_bytes(
        self, seed_graph, seed_analysis
    ):
        with ClusterContext() as ctx:
            PGPBA(fraction=0.5, seed=1).generate(
                seed_graph, seed_analysis, seed_graph.n_edges * 2,
                context=ctx,
            )
            assert ctx.metrics.persisted_bytes == 0
            assert ctx.metrics.peak_persisted_bytes > 0
