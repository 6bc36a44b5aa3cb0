"""Unit tests for repro.graph.analytics and the degree arrays."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import PropertyGraph, global_clustering_coefficient


def chain(n=4):
    return PropertyGraph(
        n, np.arange(n - 1), np.arange(1, n)
    )


class TestDegreeDistributions:
    def test_chain_degrees(self):
        # endpoints have degree 1, middles degree 2
        assert chain(4).degrees().tolist() == [1, 2, 2, 1]

    def test_in_out_split(self):
        g = chain(3)
        assert g.in_degrees().tolist() == [0, 1, 1]
        assert g.out_degrees().tolist() == [1, 1, 0]


class TestClustering:
    def test_triangle_is_one(self):
        g = PropertyGraph(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
        assert global_clustering_coefficient(g) == pytest.approx(1.0)

    def test_star_is_zero(self):
        g = PropertyGraph(
            4, np.array([0, 0, 0]), np.array([1, 2, 3])
        )
        assert global_clustering_coefficient(g) == pytest.approx(0.0)

    def test_matches_networkx(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 30, 150)
        dst = rng.integers(0, 30, 150)
        g = PropertyGraph.from_edge_list(src, dst, n_vertices=30)
        und = nx.Graph()
        und.add_nodes_from(range(30))
        und.add_edges_from(
            (int(a), int(b)) for a, b in zip(src, dst) if a != b
        )
        assert global_clustering_coefficient(g) == pytest.approx(
            nx.transitivity(und), abs=1e-9
        )

    def test_self_loops_ignored(self):
        g = PropertyGraph(2, np.array([0, 0]), np.array([0, 1]))
        assert global_clustering_coefficient(g) == 0.0

    def test_empty_zero(self):
        assert global_clustering_coefficient(PropertyGraph.empty()) == 0.0
