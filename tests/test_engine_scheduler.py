"""ClusterScheduler in isolation: determinism, monotonicity, conservation.

The scheduler is the pure function behind every Fig. 8-12 series:
measured task costs in, simulated makespan + task records out.  These
tests pin the model properties the benchmarks implicitly rely on —
assignment determinism, makespan monotonicity in work added, capacity
monotonicity for uniform loads, and byte conservation in the memory
meter.

(Node-count monotonicity is asserted for *uniform* costs only: with
heterogeneous costs, round-robin placement can genuinely assign both
expensive tasks to the same node of a larger cluster — e.g. costs
[10, 1, 1, 10] on 1-core nodes pack to 11s on 2 nodes but 20s on 3 —
so the general claim is false, by design.)

:class:`TestGoldenRecords` pins the scheduler's output for whole
generator runs: a hash of every simulated task record (measured CPU
seconds excluded), the memory meters and the edges, for PGPBA and PGSK
at 1, 10 and 60 nodes on every backend.  An engine change that moves a
stage, a partition or a byte changes the hash.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import PGPBA, PGSK
from repro.engine import ClusterContext, available_backends
from repro.engine.metrics import TaskRecord
from repro.engine.scheduler import ClusterScheduler, NodeSpec


def _makespan(sched, costs, sizes=None):
    costs = np.asarray(costs, dtype=np.float64)
    if sizes is None:
        sizes = np.zeros(costs.size, dtype=np.int64)
    makespan, _records = sched.stage_makespan("s", costs, sizes)
    return makespan


class TestAssignNodes:
    def test_deterministic_and_round_robin(self):
        sched = ClusterScheduler(3, 2)
        first = sched.assign_nodes(10)
        second = sched.assign_nodes(10)
        assert np.array_equal(first, second)
        assert np.array_equal(first, np.arange(10) % 3)

    def test_prefix_property(self):
        """The assignment of the first k tasks never depends on how many
        tasks follow — the property that makes appending work monotone."""
        sched = ClusterScheduler(4, 2)
        assert np.array_equal(
            sched.assign_nodes(17)[:5], sched.assign_nodes(5)
        )

    def test_all_nodes_used_when_enough_tasks(self):
        sched = ClusterScheduler(5, 2)
        assert set(sched.assign_nodes(11).tolist()) == set(range(5))


class TestMakespanMonotonicity:
    @pytest.mark.parametrize("n_nodes,cores", [(1, 1), (2, 2), (3, 4)])
    def test_monotone_in_task_count(self, n_nodes, cores):
        """Appending tasks (any costs) never shrinks the stage."""
        sched = ClusterScheduler(n_nodes, cores)
        rng = np.random.default_rng(7)
        costs = rng.uniform(0.001, 0.1, size=24)
        spans = [
            _makespan(sched, costs[:k]) for k in range(1, costs.size + 1)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(spans, spans[1:]))

    def test_monotone_in_node_count_uniform_costs(self):
        """For uniform task costs, adding nodes never slows the stage."""
        costs = np.full(36, 0.01)
        spans = [
            _makespan(ClusterScheduler(n, 2), costs) for n in range(1, 9)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(spans, spans[1:]))

    def test_heterogeneous_node_count_counterexample(self):
        """The documented counterexample: more nodes, worse makespan —
        round-robin is not an optimal placement, and the model keeps
        Spark standalone's even allocation on purpose."""
        costs = np.array([10.0, 1.0, 1.0, 10.0])
        sched2 = ClusterScheduler(2, 1, per_task_overhead=0.0)
        sched3 = ClusterScheduler(3, 1, per_task_overhead=0.0)
        assert _makespan(sched2, costs) < _makespan(sched3, costs)

    def test_contention_kicks_in_past_saturation(self):
        """Cores beyond the saturation wall scale costs up, not down."""
        costs = np.full(12, 0.01)
        fast = ClusterScheduler(1, 12)
        slow = ClusterScheduler(1, 20)
        assert fast.contention_factor == 1.0
        assert slow.contention_factor == pytest.approx(20 / 12)
        assert _makespan(slow, costs) >= _makespan(fast, costs)

    def test_byte_bound_stage_plateaus_past_saturation(self):
        """The wall slows data movement as well as compute: a stage whose
        cost is all per-byte runs no faster on 20 cores than on 12."""
        cpu = np.zeros(240)
        sizes = np.full(240, 10_000, dtype=np.int64)
        at12 = _makespan(
            ClusterScheduler(1, 12, per_task_overhead=0.0), cpu, sizes
        )
        at20 = _makespan(
            ClusterScheduler(1, 20, per_task_overhead=0.0), cpu, sizes
        )
        assert at20 == pytest.approx(at12)


class TestStageRecords:
    def test_records_align_with_inputs(self):
        sched = ClusterScheduler(2, 2)
        cpu = np.array([0.01, 0.02, 0.03])
        out = np.array([100, 200, 300], dtype=np.int64)
        _span, records = sched.stage_makespan("grow", cpu, out)
        assert [r.partition for r in records] == [0, 1, 2]
        assert [r.node for r in records] == [0, 1, 0]
        assert [r.bytes_out for r in records] == [100, 200, 300]
        assert all(isinstance(r, TaskRecord) for r in records)
        assert all(r.stage == "grow" for r in records)

    def test_empty_stage(self):
        sched = ClusterScheduler(2, 2)
        span, records = sched.stage_makespan(
            "empty", np.empty(0), np.empty(0, dtype=np.int64)
        )
        assert span == 0.0 and records == []

    def test_misaligned_inputs_rejected(self):
        sched = ClusterScheduler(2, 2)
        with pytest.raises(ValueError, match="aligned"):
            sched.stage_makespan(
                "bad", np.array([0.1, 0.2]), np.array([1], dtype=np.int64)
            )


class TestPerNodeBytesConservation:
    @pytest.mark.parametrize("n_nodes", [1, 3, 5])
    def test_sum_conserved_plus_overhead(self, n_nodes):
        """Every partition byte lands on exactly one node; the only
        addition is the fixed per-node platform overhead."""
        sched = ClusterScheduler(n_nodes, 2)
        rng = np.random.default_rng(11)
        part_bytes = rng.integers(0, 10**6, size=17, dtype=np.int64)
        per_node = sched.per_node_bytes(part_bytes)
        assert per_node.shape == (n_nodes,)
        overhead = n_nodes * sched.node.memory_overhead_bytes
        assert int(per_node.sum()) == int(part_bytes.sum()) + overhead

    def test_empty_dataset_is_pure_overhead(self):
        sched = ClusterScheduler(4, 2)
        per_node = sched.per_node_bytes(np.empty(0, dtype=np.int64))
        assert (per_node == sched.node.memory_overhead_bytes).all()

    def test_matches_explicit_assignment(self):
        sched = ClusterScheduler(3, 2)
        part_bytes = np.array([10, 20, 30, 40, 50], dtype=np.int64)
        nodes = sched.assign_nodes(5)
        expected = np.zeros(3, dtype=np.int64)
        np.add.at(expected, nodes, part_bytes)
        expected += sched.node.memory_overhead_bytes
        assert np.array_equal(sched.per_node_bytes(part_bytes), expected)


class TestNodeSpec:
    def test_defaults_are_shadow_ii(self):
        spec = NodeSpec()
        assert spec.physical_cores == 20
        assert spec.saturation_cores == 12

    def test_cores_clamped_to_physical(self):
        sched = ClusterScheduler(1, 64)
        assert sched.executor_cores == sched.node.physical_cores


# sha256 prefixes of (stage, partition, node, bytes_out) per task record,
# node_peak_bytes, peak_persisted_bytes and the edges; equal on every
# backend.
GOLDEN_RECORDS = {
    ("pgpba", 1): "9b3ba2d2182e3b7c",
    ("pgpba", 10): "f376a03b0e254fe5",
    ("pgpba", 60): "e4e4fc97efa6f5e0",
    ("pgsk", 1): "1e9c81cc7cc1ba08",
    ("pgsk", 10): "935831ffb6461c3b",
    ("pgsk", 60): "c9b094014b288653",
}


def _records_digest(metrics, graph) -> str:
    h = hashlib.sha256()
    for r in metrics.tasks:
        h.update(f"{r.stage}|{r.partition}|{r.node}|{r.bytes_out};".encode())
    h.update(np.asarray(metrics.node_peak_bytes, np.int64).tobytes())
    h.update(str(int(metrics.peak_persisted_bytes)).encode())
    h.update(np.ascontiguousarray(graph.src, np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.dst, np.int64).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def pgsk_initiator(seed_graph):
    return PGSK(seed=5).fit_initiator(seed_graph)


class TestGoldenRecords:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("n_nodes", [1, 10, 60])
    @pytest.mark.parametrize("algorithm", ["pgpba", "pgsk"])
    def test_simulated_records_are_pinned(
        self, seed_graph, seed_analysis, pgsk_initiator, algorithm,
        n_nodes, backend,
    ):
        desired = 4 * seed_graph.n_edges
        with ClusterContext(
            n_nodes=n_nodes, executor=backend, local_workers=2
        ) as ctx:
            if algorithm == "pgpba":
                result = PGPBA(fraction=0.1, seed=5).generate(
                    seed_graph, seed_analysis, desired, context=ctx
                )
            else:
                result = PGSK(seed=5).generate(
                    seed_graph, seed_analysis, desired, context=ctx,
                    initiator=pgsk_initiator,
                )
            digest = _records_digest(ctx.metrics, result.graph)
        assert digest == GOLDEN_RECORDS[algorithm, n_nodes]
