"""Tests for the cyber-security query workloads."""

import numpy as np
import pytest

from repro.graph import PropertyGraph
from repro.queries import (
    EdgeFilter,
    QueryWorkload,
    degree_top_k,
    fan_in_motif,
    fan_out_motif,
    filter_edges,
    host_pair_aggregate,
    k_hop_neighborhood,
    neighbors,
    reachable_within,
    shortest_path_length,
    vertex_by_host_id,
)


def chain_graph():
    """0 -> 1 -> 2 -> 3, plus 0 -> 2 shortcut."""
    return PropertyGraph(
        4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 2])
    )


class TestNodeQueries:
    def test_vertex_by_host_id(self, seed_graph):
        ids = seed_graph.vertex_properties["ID"]
        assert vertex_by_host_id(seed_graph, int(ids[3])) == 3
        assert vertex_by_host_id(seed_graph, -99) is None

    def test_vertex_by_host_id_without_ids(self):
        g = chain_graph()
        assert vertex_by_host_id(g, 2) == 2
        assert vertex_by_host_id(g, 9) is None

    def test_degree_top_k_order(self):
        g = PropertyGraph(
            4, np.array([0, 1, 2, 3, 1, 2]), np.array([1, 0, 1, 1, 3, 3])
        )
        top = degree_top_k(g, 2)
        deg = g.degrees()
        assert deg[top[0]] >= deg[top[1]]
        assert top[0] == int(np.argmax(deg))

    def test_degree_top_k_kinds(self, seed_graph):
        assert degree_top_k(seed_graph, 5, kind="in").size == 5
        assert degree_top_k(seed_graph, 5, kind="out").size == 5
        with pytest.raises(ValueError):
            degree_top_k(seed_graph, 5, kind="sideways")
        with pytest.raises(ValueError):
            degree_top_k(seed_graph, 0)

    def test_neighbors_directions(self):
        g = chain_graph()
        assert neighbors(g, 2, direction="out").tolist() == [3]
        assert sorted(neighbors(g, 2, direction="in").tolist()) == [0, 1]
        assert sorted(neighbors(g, 2, direction="both").tolist()) == [0, 1, 3]
        with pytest.raises(ValueError):
            neighbors(g, 99)


class TestEdgeQueries:
    def test_equals_filter(self, seed_graph):
        flt = EdgeFilter(equals={"PROTOCOL": 6})
        sub = filter_edges(seed_graph, flt).to_graph()
        assert (sub.edge_properties["PROTOCOL"] == 6).all()
        assert sub.n_edges < seed_graph.n_edges

    def test_range_filter(self, seed_graph):
        flt = EdgeFilter(ranges={"OUT_BYTES": (100, 10_000)})
        sub = filter_edges(seed_graph, flt).to_graph()
        ob = sub.edge_properties["OUT_BYTES"]
        assert (ob >= 100).all() and (ob <= 10_000).all()

    def test_open_ended_range(self, seed_graph):
        flt = EdgeFilter(ranges={"DURATION": (None, 1e12)})
        sel = filter_edges(seed_graph, flt)
        assert sel.n_edges == seed_graph.n_edges
        assert sel.to_graph().n_edges == seed_graph.n_edges

    def test_conjunction(self, seed_graph):
        flt = EdgeFilter(
            equals={"PROTOCOL": 6},
            ranges={"IN_BYTES": (1, None)},
        )
        sub = filter_edges(seed_graph, flt).to_graph()
        assert (sub.edge_properties["PROTOCOL"] == 6).all()
        assert (sub.edge_properties["IN_BYTES"] >= 1).all()

    def test_unknown_attribute(self, seed_graph):
        with pytest.raises(KeyError):
            filter_edges(seed_graph, EdgeFilter(equals={"NOPE": 1}))


class TestPathQueries:
    def test_k_hop_expansion(self):
        g = chain_graph()
        assert k_hop_neighborhood(g, 0, 0).tolist() == [0]
        assert sorted(k_hop_neighborhood(g, 0, 1).tolist()) == [0, 1, 2]
        assert sorted(k_hop_neighborhood(g, 0, 2).tolist()) == [0, 1, 2, 3]

    def test_shortest_path(self):
        g = chain_graph()
        assert shortest_path_length(g, 0, 0) == 0
        assert shortest_path_length(g, 0, 2) == 1  # via shortcut
        assert shortest_path_length(g, 0, 3) == 2
        assert shortest_path_length(g, 3, 0) is None  # directed

    def test_reachable_within(self):
        g = chain_graph()
        r = reachable_within(g, 1)
        assert r.tolist() == [False, True, True, True]
        r1 = reachable_within(g, 1, max_hops=1)
        assert r1.tolist() == [False, True, True, False]

    def test_validation(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            k_hop_neighborhood(g, 99, 1)
        with pytest.raises(ValueError):
            k_hop_neighborhood(g, 0, -1)
        with pytest.raises(ValueError):
            shortest_path_length(g, 0, 99)

    def test_matches_networkx(self, seed_graph):
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(seed_graph.n_vertices))
        s, d = seed_graph.distinct_edge_pairs()
        nxg.add_edges_from(zip(s.tolist(), d.tolist()))
        src = int(degree_top_k(seed_graph, 1, kind="out")[0])
        lengths = nx.single_source_shortest_path_length(nxg, src)
        for target in list(lengths)[:20]:
            assert shortest_path_length(seed_graph, src, target) == (
                lengths[target]
            )


class TestSubgraphQueries:
    def test_fan_out_detects_scanner(self):
        # vertex 0 contacts 1..10; others quiet.
        src = np.zeros(10, dtype=np.int64)
        dst = np.arange(1, 11, dtype=np.int64)
        g = PropertyGraph(11, src, dst)
        assert fan_out_motif(g, 10).tolist() == [0]
        assert fan_out_motif(g, 11).size == 0

    def test_fan_in_detects_convergence(self):
        src = np.arange(1, 9, dtype=np.int64)
        dst = np.zeros(8, dtype=np.int64)
        g = PropertyGraph(9, src, dst)
        assert fan_in_motif(g, 8).tolist() == [0]

    def test_motifs_use_distinct_peers(self):
        # 20 parallel edges to one destination is NOT a fan-out.
        src = np.zeros(20, dtype=np.int64)
        dst = np.ones(20, dtype=np.int64)
        g = PropertyGraph(2, src, dst)
        assert fan_out_motif(g, 2).size == 0

    def test_pair_aggregate(self, seed_graph):
        agg = host_pair_aggregate(seed_graph)
        assert agg.n_flows.sum() == seed_graph.n_edges
        total = (
            seed_graph.edge_properties["OUT_BYTES"].sum()
            + seed_graph.edge_properties["IN_BYTES"].sum()
        )
        assert agg.total_bytes.sum() == total
        assert len(agg) == seed_graph.simple_graph().n_edges

    def test_pair_aggregate_requires_attributes(self):
        with pytest.raises(KeyError):
            host_pair_aggregate(chain_graph())

    def test_motif_validation(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            fan_out_motif(g, 0)
        with pytest.raises(ValueError):
            fan_in_motif(g, 0)


class TestWorkload:
    def test_runs_all_families(self, seed_graph):
        report = QueryWorkload(n_queries=5, seed=1).run(seed_graph)
        assert set(report.seconds_by_family) == {
            "node", "edge", "path", "subgraph"
        }
        assert report.total_seconds > 0
        qps = report.queries_per_second()
        assert all(v > 0 for v in qps.values())

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            QueryWorkload().run(PropertyGraph.empty())

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryWorkload(n_queries=0)
        with pytest.raises(ValueError):
            QueryWorkload(k_hops=-1)

    def test_works_without_properties(self):
        g = chain_graph()
        report = QueryWorkload(n_queries=2, seed=1).run(g)
        assert report.n_edges == 4
