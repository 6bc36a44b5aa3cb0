"""Unit tests for repro.graph.property_graph."""

import numpy as np
import pytest

from repro.graph import PropertyGraph


def tri_multigraph():
    """0->1 (x2), 1->2, 2->0, plus a self loop at 2."""
    return PropertyGraph(
        n_vertices=3,
        src=np.array([0, 0, 1, 2, 2]),
        dst=np.array([1, 1, 2, 0, 2]),
        edge_properties={"W": np.array([1.0, 2.0, 3.0, 4.0, 5.0])},
    )


class TestValidation:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PropertyGraph(2, np.array([0]), np.array([5]))

    def test_negative_endpoint(self):
        with pytest.raises(ValueError, match="non-negative"):
            PropertyGraph(2, np.array([-1]), np.array([0]))

    def test_mismatched_endpoints(self):
        with pytest.raises(ValueError, match="matching 1-D"):
            PropertyGraph(2, np.array([0, 1]), np.array([0]))

    def test_bad_edge_property_length(self):
        with pytest.raises(ValueError, match="edge property"):
            PropertyGraph(
                2, np.array([0]), np.array([1]),
                edge_properties={"X": np.array([1, 2])},
            )

    def test_bad_vertex_property_length(self):
        with pytest.raises(ValueError, match="vertex property"):
            PropertyGraph(
                2, np.array([0]), np.array([1]),
                vertex_properties={"ID": np.array([1, 2, 3])},
            )

    def test_empty(self):
        g = PropertyGraph.empty()
        assert g.n_vertices == 0 and g.n_edges == 0


class TestDegrees:
    def test_out_degrees_count_parallel(self):
        g = tri_multigraph()
        assert g.out_degrees().tolist() == [2, 1, 2]

    def test_in_degrees_count_parallel(self):
        g = tri_multigraph()
        assert g.in_degrees().tolist() == [1, 2, 2]

    def test_total_degree_sum_is_twice_edges(self):
        g = tri_multigraph()
        assert g.degrees().sum() == 2 * g.n_edges

    def test_isolated_vertex_zero(self):
        g = PropertyGraph(4, np.array([0]), np.array([1]))
        assert g.degrees()[3] == 0


class TestSimpleProjection:
    def test_distinct_pairs_dedupe(self):
        g = tri_multigraph()
        s, d = g.distinct_edge_pairs()
        pairs = set(zip(s.tolist(), d.tolist()))
        assert pairs == {(0, 1), (1, 2), (2, 0), (2, 2)}

    def test_multiplicities(self):
        g = tri_multigraph()
        counts = sorted(g.edge_multiplicities().tolist())
        assert counts == [1, 1, 1, 2]

    def test_simple_graph_strips_properties(self):
        simple = tri_multigraph().simple_graph()
        assert simple.n_edges == 4
        assert simple.edge_properties == {}

    def test_empty_graph(self):
        g = PropertyGraph.empty()
        s, d = g.distinct_edge_pairs()
        assert s.size == 0
        assert g.edge_multiplicities().size == 0


class TestTransforms:
    def test_reversed(self):
        g = tri_multigraph()
        r = g.reversed()
        assert np.array_equal(r.src, g.dst)
        assert np.array_equal(r.dst, g.src)
        assert r.edge_properties.keys() == g.edge_properties.keys()

    def test_select_edges_mask(self):
        g = tri_multigraph()
        sub = g.select_edges(np.array([True, False, True, False, False]))
        assert sub.n_edges == 2
        assert sub.edge_properties["W"].tolist() == [1.0, 3.0]

    def test_select_edges_index(self):
        g = tri_multigraph()
        sub = g.select_edges(np.array([4, 0]))
        assert sub.src.tolist() == [2, 0]


class TestAdjacencyExport:
    def test_sparse_weighted_multiplicity(self):
        g = tri_multigraph()
        m = g.to_sparse_adjacency()
        assert m[0, 1] == 2.0
        assert m[2, 2] == 1.0

    def test_sparse_unweighted(self):
        g = tri_multigraph()
        m = g.to_sparse_adjacency(weighted=False)
        assert m[0, 1] == 1.0


class TestPersistence:
    def test_npz_roundtrip(self, tmp_path):
        g = tri_multigraph()
        path = tmp_path / "g.npz"
        g.save_npz(path)
        back = PropertyGraph.load_npz(path)
        assert back.n_vertices == g.n_vertices
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)
        assert np.allclose(back.edge_properties["W"], g.edge_properties["W"])

    def test_npz_with_vertex_properties(self, tmp_path):
        g = PropertyGraph(
            2, np.array([0]), np.array([1]),
            vertex_properties={"ID": np.array([100, 200])},
        )
        path = tmp_path / "g.npz"
        g.save_npz(path)
        back = PropertyGraph.load_npz(path)
        assert back.vertex_properties["ID"].tolist() == [100, 200]


class TestMisc:
    def test_memory_bytes_positive(self):
        assert tri_multigraph().memory_bytes() > 0

    def test_from_edge_list_infers_vertices(self):
        g = PropertyGraph.from_edge_list([0, 3], [1, 2])
        assert g.n_vertices == 4
