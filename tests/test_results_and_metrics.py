"""Focused tests for result types and simulation metrics accounting."""

import numpy as np
import pytest

from repro.core.generator import GenerationResult
from repro.engine.metrics import SimulationMetrics, TaskRecord
from repro.graph import PropertyGraph


def small_graph():
    return PropertyGraph(2, np.array([0]), np.array([1]))


class TestGenerationResult:
    def _result(self, structure=2.0, props=1.0):
        return GenerationResult(
            graph=small_graph(),
            algorithm="X",
            structure_seconds=structure,
            property_seconds=props,
            peak_node_memory_bytes=100,
            n_nodes=4,
            iterations=3,
        )

    def test_total_and_overhead(self):
        r = self._result()
        assert r.total_seconds == 3.0
        assert r.property_overhead == pytest.approx(0.5)

    def test_throughputs(self):
        r = self._result()
        assert r.edges_per_second == pytest.approx(1 / 3.0)

    def test_zero_time_guards(self):
        r = self._result(structure=0.0, props=0.0)
        assert r.edges_per_second == float("inf")
        assert r.property_overhead == 0.0

    def test_extra_dict_default(self):
        assert self._result().extra == {}


class TestSimulationMetrics:
    def test_record_stage_accumulates(self):
        m = SimulationMetrics(n_nodes=2)
        recs = [
            TaskRecord("s", 0, 0, 0.5, 10),
            TaskRecord("s", 1, 1, 0.25, 20),
        ]
        m.record_stage(recs, stage_makespan=0.5, overhead=0.1)
        assert m.simulated_seconds == pytest.approx(0.6)
        assert m.platform_overhead_seconds == pytest.approx(0.1)
        assert m.node_busy_seconds.tolist() == [0.5, 0.25]
        assert m.n_tasks == 2

    def test_settle_memory_tracks_peak(self):
        m = SimulationMetrics(n_nodes=2)
        m.settle_memory(np.array([100, 300]))
        m.settle_memory(np.array([200, 50]))
        assert m.node_peak_bytes.tolist() == [200, 300]
        assert m.node_resident_bytes.tolist() == [200, 50]
        assert m.peak_node_memory_bytes == 300

    def test_settle_memory_shape_checked(self):
        m = SimulationMetrics(n_nodes=2)
        with pytest.raises(ValueError, match="per-node"):
            m.settle_memory(np.array([1, 2, 3]))

    def test_utilisation_zero_without_time(self):
        m = SimulationMetrics(n_nodes=2)
        assert m.utilisation() == 0.0

    def test_utilisation_full_when_all_busy(self):
        m = SimulationMetrics(n_nodes=1)
        m.record_stage(
            [TaskRecord("s", 0, 0, 1.0, 0)], stage_makespan=1.0, overhead=0.0
        )
        assert m.utilisation() == pytest.approx(1.0)


class TestSeedAnalysisEdges:
    def test_from_graph_requires_netflow_attrs(self):
        from repro.core.generator import SeedAnalysis

        bare = PropertyGraph(2, np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="lacks"):
            SeedAnalysis.from_graph(bare)

    def test_degree_means_positive(self, seed_analysis):
        assert seed_analysis.in_degree.mean() >= 1.0
        assert seed_analysis.out_degree.mean() >= 1.0
        assert seed_analysis.multiplicity.mean() >= 1.0

    def test_counts_match_graph(self, seed_graph, seed_analysis):
        assert seed_analysis.n_vertices == seed_graph.n_vertices
        assert seed_analysis.n_edges == seed_graph.n_edges
