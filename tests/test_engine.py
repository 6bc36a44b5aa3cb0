"""Unit tests for the Map-Reduce engine: RDDs, scheduler, context."""

import numpy as np
import pytest

from repro.engine import ClusterContext, ClusterScheduler, NodeSpec
from repro.engine.partitioner import split_array, split_count


class TestPartitioner:
    def test_split_array_covers_everything(self):
        parts = split_array(np.arange(10), 3)
        assert len(parts) == 3
        assert np.array_equal(np.concatenate(parts), np.arange(10))

    def test_split_count_even(self):
        assert split_count(10, 3).tolist() == [4, 3, 3]
        assert split_count(0, 4).tolist() == [0, 0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_array(np.arange(3), 0)
        with pytest.raises(ValueError):
            split_count(-1, 2)


class TestScheduler:
    def test_contention_saturates(self):
        node = NodeSpec(physical_cores=20, saturation_cores=12)
        s12 = ClusterScheduler(1, 12, node)
        s20 = ClusterScheduler(1, 20, node)
        assert s12.contention_factor == 1.0
        assert s20.contention_factor == pytest.approx(20 / 12)

    def test_executor_cores_capped_at_physical(self):
        s = ClusterScheduler(1, 100, NodeSpec(physical_cores=20))
        assert s.executor_cores == 20

    def test_makespan_scales_with_nodes(self):
        # 480 tasks divide evenly into waves on both cluster sizes.
        costs = np.full(480, 0.1)
        t1, _ = ClusterScheduler(1, 12, per_task_overhead=0).stage_makespan(
            "s", costs, np.zeros(480, dtype=np.int64)
        )
        t4, _ = ClusterScheduler(4, 12, per_task_overhead=0).stage_makespan(
            "s", costs, np.zeros(480, dtype=np.int64)
        )
        assert t1 == pytest.approx(4 * t4, rel=0.01)

    def test_twelve_core_plateau(self):
        """Fig. 8: throughput stops improving past the saturation point."""
        costs = np.full(240, 0.1)
        times = {}
        for cores in (4, 8, 12, 16, 20):
            s = ClusterScheduler(1, cores, per_task_overhead=0)
            times[cores], _ = s.stage_makespan(
                "s", costs, np.zeros(240, dtype=np.int64)
            )
        assert times[4] > times[8] > times[12] * 1.2
        assert times[16] == pytest.approx(times[12], rel=0.05)
        assert times[20] == pytest.approx(times[12], rel=0.05)

    def test_round_robin_assignment(self):
        s = ClusterScheduler(3, 2)
        assert s.assign_nodes(7).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_per_node_bytes_includes_overhead(self):
        s = ClusterScheduler(2, 2)
        per_node = s.per_node_bytes(np.array([100, 200, 300]))
        overhead = s.node.memory_overhead_bytes
        assert per_node.tolist() == [400 + overhead, 200 + overhead]

    def test_empty_stage(self):
        s = ClusterScheduler(2, 2)
        t, recs = s.stage_makespan("s", np.array([]), np.array([]))
        assert t == 0.0 and recs == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterScheduler(0, 1)
        with pytest.raises(ValueError):
            ClusterScheduler(1, 0)


class TestRDD:
    @pytest.fixture
    def ctx(self, open_context):
        return open_context(
            n_nodes=2, executor_cores=2, partition_multiplier=1
        )

    def test_parallelize_collect_roundtrip(self, ctx):
        data = np.arange(100)
        rdd = ctx.parallelize([data])
        (out,) = rdd.collect()
        assert np.array_equal(out, data)

    def test_partition_count_rule(self, ctx):
        rdd = ctx.parallelize([np.arange(100)])
        assert rdd.n_partitions == ctx.default_partitions == 4

    def test_multi_column_alignment(self, ctx):
        a, b = np.arange(50), np.arange(50) * 2
        out_a, out_b = ctx.parallelize([a, b]).collect()
        assert np.array_equal(out_b, out_a * 2)

    def test_map_partitions(self, ctx):
        rdd = ctx.parallelize([np.arange(10)])
        doubled = rdd.map_partitions(lambda cols, i: (cols[0] * 2,))
        assert np.array_equal(doubled.collect()[0], np.arange(10) * 2)

    def test_map_partitions_records_metrics(self, ctx):
        rdd = ctx.parallelize([np.arange(10)])
        before = ctx.metrics.n_tasks
        # count() is the forcing action: lazily planned stages are only
        # charged to the simulated clock once something materializes.
        rdd.map_partitions(lambda cols, i: cols).count()
        assert ctx.metrics.n_tasks == before + rdd.n_partitions
        assert ctx.metrics.simulated_seconds > 0

    def test_sample_without_replacement(self, ctx):
        rdd = ctx.parallelize([np.arange(1000)])
        s = rdd.sample(0.1, seed=1)
        (vals,) = s.collect()
        assert vals.size == pytest.approx(100, abs=4)  # per-partition rounding
        assert np.unique(vals).size == vals.size

    def test_sample_with_replacement_over_one(self, ctx):
        rdd = ctx.parallelize([np.arange(100)])
        (vals,) = rdd.sample(2.0, seed=1).collect()
        assert vals.size == 200

    def test_sample_bad_fraction(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([np.arange(10)]).sample(0.0)

    def test_distinct_single_column(self, ctx):
        rdd = ctx.parallelize([np.array([1, 2, 2, 3, 3, 3, 1])])
        (vals,) = rdd.distinct().collect()
        assert sorted(vals.tolist()) == [1, 2, 3]

    def test_distinct_pair_key(self, ctx):
        src = np.array([0, 0, 1, 0])
        dst = np.array([1, 1, 2, 1])
        out_s, out_d = ctx.parallelize([src, dst]).distinct(
            key_columns=(0, 1)
        ).collect()
        pairs = set(zip(out_s.tolist(), out_d.tolist()))
        assert pairs == {(0, 1), (1, 2)}

    def test_all_rows_to_one_reducer(self, open_context):
        """Worst-case reduce skew: every partition holds the same keys
        (unique *within* the partition, so the map-side combiner removes
        nothing) and every key is 0 mod n_parts, so all rows land on
        reducer 0 — which must keep each key's first occurrence, in
        input order."""
        n_parts = 8
        keys_per = 100_000
        rng = np.random.default_rng(5)
        base = rng.permutation(keys_per).astype(np.int64) * n_parts
        col = np.concatenate(
            [np.roll(base, 17 * i) for i in range(n_parts)]
        )
        ctx = open_context(n_nodes=n_parts, executor="serial")
        rdd = ctx.parallelize((col,), n_partitions=n_parts).distinct(
            key_columns=(0,)
        )
        sizes = rdd.partition_sizes()
        (out,) = rdd.collect()
        assert sizes[0] == keys_per and not sizes[1:].any()
        first = np.sort(np.unique(col, return_index=True)[1])
        np.testing.assert_array_equal(out, col[first])

    def test_distinct_across_partitions(self, ctx):
        # Same value in different partitions must still deduplicate.
        rdd = ctx.parallelize([np.array([7] * 40)])
        assert rdd.n_partitions > 1
        (vals,) = rdd.distinct().collect()
        assert vals.tolist() == [7]

    def test_union(self, ctx):
        a = ctx.parallelize([np.arange(5)])
        b = ctx.parallelize([np.arange(5, 10)])
        u = a.union(b)
        assert u.count() == 10
        assert u.n_partitions == a.n_partitions + b.n_partitions

    def test_union_column_mismatch(self, ctx):
        a = ctx.parallelize([np.arange(5)])
        b = ctx.parallelize([np.arange(5), np.arange(5)])
        with pytest.raises(ValueError):
            a.union(b)

    def test_repartition(self, ctx):
        rdd = ctx.parallelize([np.arange(100)])
        r = rdd.repartition(2)
        assert r.n_partitions == 2
        assert np.array_equal(np.sort(r.collect()[0]), np.arange(100))

    def test_generate(self, ctx):
        rdd = ctx.generate(
            100, lambda count, pidx: (np.full(count, pidx),)
        )
        (vals,) = rdd.collect()
        assert vals.size == 100

    def test_partition_sizes(self, ctx):
        rdd = ctx.parallelize([np.arange(10)])
        assert rdd.partition_sizes().sum() == 10


class TestContextMetrics:
    def test_memory_settles_after_stage(self, open_context):
        ctx = open_context(n_nodes=2, executor_cores=2)
        rdd = ctx.parallelize([np.arange(10_000)])
        rdd.map_partitions(lambda cols, i: (np.repeat(cols[0], 4),)).count()
        assert ctx.metrics.peak_node_memory_bytes > (
            ctx.scheduler.node.memory_overhead_bytes
        )

    def test_reset(self, open_context):
        ctx = open_context(n_nodes=1, executor_cores=1)
        ctx.parallelize([np.arange(10)]).map_partitions(
            lambda cols, i: cols
        ).count()
        ctx.reset_metrics()
        assert ctx.metrics.simulated_seconds == 0.0
        assert ctx.metrics.n_tasks == 0

    def test_utilisation_bounded(self, open_context):
        ctx = open_context(n_nodes=2, executor_cores=2)
        ctx.parallelize([np.arange(1000)]).map_partitions(
            lambda cols, i: (np.sort(cols[0]),)
        ).count()
        assert 0.0 <= ctx.metrics.utilisation() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterContext(partition_multiplier=0)


class TestTaskModel:
    def test_per_byte_cost_scales_with_output(self):
        s_free = ClusterScheduler(1, 1, per_byte_cost=0.0,
                                  per_task_overhead=0.0)
        s_io = ClusterScheduler(1, 1, per_byte_cost=1e-6,
                                per_task_overhead=0.0)
        cpu = np.array([0.0])
        small, _ = s_io.stage_makespan("s", cpu, np.array([1_000]))
        big, _ = s_io.stage_makespan("s", cpu, np.array([1_000_000]))
        none, _ = s_free.stage_makespan("s", cpu, np.array([1_000_000]))
        assert big > small > none == 0.0

    def test_task_multiplier_preserves_total_cost(self, open_context):
        """Expanding a real partition into k simulated tasks must leave the
        1-node serial makespan unchanged (cost is split, not duplicated)."""
        ctx1 = open_context(
            n_nodes=1, executor_cores=1, max_real_partitions=4,
            per_stage_overhead=0.0, per_task_overhead=0.0, per_byte_cost=0.0,
        )
        ctx1._record_stage("s", [0.8], [0], None, multiplier=1)
        ctx8 = open_context(
            n_nodes=1, executor_cores=1, max_real_partitions=4,
            per_stage_overhead=0.0, per_task_overhead=0.0, per_byte_cost=0.0,
        )
        ctx8._record_stage("s", [0.8], [0], None, multiplier=8)
        assert ctx8.metrics.simulated_seconds == pytest.approx(
            ctx1.metrics.simulated_seconds
        )

    def test_multiplier_enables_parallelism(self, open_context):
        """On a many-core cluster the expanded tasks spread over slots."""
        ctx = open_context(
            n_nodes=4, executor_cores=2, max_real_partitions=4,
            per_stage_overhead=0.0, per_task_overhead=0.0, per_byte_cost=0.0,
        )
        ctx._record_stage("s", [0.8], [0], None, multiplier=8)
        # 8 simulated tasks of 0.1s over 8 slots -> one 0.1s wave.
        assert ctx.metrics.simulated_seconds == pytest.approx(0.1)

    def test_real_partitions_capped(self, open_context):
        ctx = open_context(
            n_nodes=60, executor_cores=12, partition_multiplier=2,
            max_real_partitions=16,
        )
        rdd = ctx.parallelize([np.arange(100_000)])
        assert rdd.n_partitions <= 16
        assert rdd.task_multiplier >= ctx.default_partitions // 16

    def test_distinct_charges_serial_driver_component(self, open_context):
        ctx = open_context(n_nodes=2, executor_cores=2)
        rdd = ctx.parallelize([np.arange(1000) % 50])
        rdd.distinct()
        stages = {t.stage for t in ctx.metrics.tasks}
        assert any(s.endswith(":driver") for s in stages)

    def test_sample_ceil_guarantees_progress(self, open_context):
        """A tiny positive fraction still samples at least one row per
        partition (PGPBA's clamped final iteration relies on this)."""
        ctx = open_context(n_nodes=1, executor_cores=1)
        rdd = ctx.parallelize([np.arange(100)], n_partitions=4)
        out = rdd.sample(1e-9, seed=0)
        assert out.count() >= 1


class TestClampedPGPBA:
    def test_clamping_limits_overshoot(
        self, seed_graph, seed_analysis, open_context
    ):
        from repro.core import PGPBA

        target = 30 * seed_graph.n_edges
        ctx = open_context(n_nodes=2, executor_cores=2)
        res = PGPBA(fraction=2.0, seed=1).generate(
            seed_graph, seed_analysis, target, context=ctx
        )
        assert res.graph.n_edges == pytest.approx(target, rel=0.25)

    def test_unclamped_matches_literal_algorithm(
        self, seed_graph, seed_analysis, open_context
    ):
        from repro.core import PGPBA

        target = 30 * seed_graph.n_edges
        ctx = open_context(n_nodes=2, executor_cores=2)
        res = PGPBA(
            fraction=2.0, seed=1, clamp_final_iteration=False
        ).generate(seed_graph, seed_analysis, target, context=ctx)
        # The literal algorithm overshoots by up to a full growth factor.
        assert res.graph.n_edges >= target
