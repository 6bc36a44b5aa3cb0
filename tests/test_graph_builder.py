"""Unit tests for repro.graph.builder."""

import numpy as np
import pytest

from repro.graph import GraphBuilder, PropertyGraph


class TestVertices:
    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(-1)


class TestEdges:
    def test_add_edges_and_build(self):
        b = GraphBuilder(3)
        b.add_edges(np.array([0, 1]), np.array([1, 2]))
        b.add_edges(np.array([2]), np.array([0]))
        g = b.build()
        assert g.n_edges == 3
        assert g.src.tolist() == [0, 1, 2]

    def test_edge_beyond_vertices_rejected(self):
        b = GraphBuilder(2)
        with pytest.raises(ValueError, match="exceeds"):
            b.add_edges(np.array([0]), np.array([5]))

    def test_negative_edge_rejected(self):
        b = GraphBuilder(2)
        with pytest.raises(ValueError, match="non-negative"):
            b.add_edges(np.array([-1]), np.array([0]))

    def test_empty_block_noop(self):
        b = GraphBuilder(2)
        b.add_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert b.n_edges == 0

    def test_property_blocks_concatenate(self):
        b = GraphBuilder(3)
        b.add_edges(np.array([0]), np.array([1]), {"W": np.array([1.0])})
        b.add_edges(np.array([1]), np.array([2]), {"W": np.array([2.0])})
        g = b.build()
        assert g.edge_properties["W"].tolist() == [1.0, 2.0]

    def test_inconsistent_property_columns_rejected(self):
        b = GraphBuilder(3)
        b.add_edges(np.array([0]), np.array([1]), {"W": np.array([1.0])})
        with pytest.raises(ValueError, match="inconsistent"):
            b.add_edges(np.array([1]), np.array([2]))

    def test_property_block_length_mismatch(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError, match="block length"):
            b.add_edges(
                np.array([0]), np.array([1]), {"W": np.array([1.0, 2.0])}
            )


class TestFromGraph:
    def test_seed_carried_over(self):
        seed = PropertyGraph(
            2, np.array([0]), np.array([1]),
            edge_properties={"W": np.array([9.0])},
        )
        b = GraphBuilder.from_graph(seed)
        b.add_edges(np.array([1]), np.array([0]), {"W": np.array([1.0])})
        g = b.build()
        assert g.n_edges == 2
        assert g.edge_properties["W"].tolist() == [9.0, 1.0]

    def test_empty_seed(self):
        b = GraphBuilder.from_graph(PropertyGraph.empty())
        assert b.n_vertices == 0 and b.n_edges == 0


def test_build_empty():
    g = GraphBuilder(4).build()
    assert g.n_vertices == 4
    assert g.n_edges == 0


def test_linear_growth_many_blocks():
    """Appending many blocks stays cheap and correct."""
    b = GraphBuilder(201)
    for i in range(200):
        b.add_edges(np.array([i + 1]), np.zeros(1, dtype=np.int64))
    g = b.build()
    assert g.n_edges == 200
    assert g.in_degrees()[0] == 200
