"""GraphSnapshot: index correctness and byte-identity with the
pre-snapshot query implementations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import PropertyGraph
from repro.queries import (
    EdgeFilter,
    EdgeSelection,
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
from repro.serve import GraphSnapshot
from repro.serve.snapshot import INDEXED_EDGE_COLUMNS


def random_graph(seed: int, n: int = 60, e: int = 500) -> PropertyGraph:
    """A random multigraph with the Netflow-ish columns the filters pin."""
    rng = np.random.default_rng(seed)
    return PropertyGraph(
        n,
        rng.integers(0, n, e),
        rng.integers(0, n, e),
        edge_properties={
            "PROTOCOL": rng.choice([6, 17], size=e),
            "DEST_PORT": rng.choice([22, 53, 80, 443, 8080], size=e),
            "STATE": rng.integers(0, 4, size=e),
            "OUT_BYTES": rng.integers(0, 10_000, size=e),
            "IN_BYTES": rng.integers(0, 10_000, size=e),
            "OUT_PKTS": rng.integers(0, 100, size=e),
            "IN_PKTS": rng.integers(0, 100, size=e),
        },
    )


SEEDS = (0, 1, 2)


def assert_same_edges(got: PropertyGraph, want: PropertyGraph) -> None:
    """``src``, ``dst`` and every edge column equal, dtypes included."""
    assert got.n_vertices == want.n_vertices
    assert np.array_equal(got.src, want.src)
    assert np.array_equal(got.dst, want.dst)
    assert set(got.edge_properties) == set(want.edge_properties)
    for name in want.edge_properties:
        a = np.asarray(got.edge_properties[name])
        b = np.asarray(want.edge_properties[name])
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype


class TestSnapshotStructure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_csr_matches_scipy(self, seed):
        g = random_graph(seed)
        snap = g.snapshot()
        adj = g.simple_graph().to_sparse_adjacency(weighted=False)
        assert np.array_equal(snap.out_indptr, adj.indptr)
        assert np.array_equal(snap.out_indices, adj.indices)
        radj = g.reversed().simple_graph().to_sparse_adjacency(
            weighted=False
        )
        assert np.array_equal(snap.in_indptr, radj.indptr)
        assert np.array_equal(snap.in_indices, radj.indices)

    def test_degree_arrays(self):
        g = random_graph(3)
        snap = g.snapshot()
        assert np.array_equal(snap.out_degree, g.out_degrees())
        assert np.array_equal(snap.in_degree, g.in_degrees())
        assert np.array_equal(snap.total_degree, g.degrees())
        assert np.array_equal(
            snap.distinct_out_degrees(),
            np.bincount(g.distinct_edge_pairs()[0], minlength=g.n_vertices),
        )

    def test_arrays_are_read_only(self):
        snap = random_graph(4).snapshot()
        for arr in (
            snap.out_indptr, snap.out_indices, snap.in_indptr,
            snap.in_indices, snap.out_degree, snap.total_degree,
        ):
            assert not arr.flags.writeable
        for idx in snap.edge_indexes.values():
            assert not idx.values.flags.writeable
            assert not idx.order.flags.writeable

    def test_memoized_on_graph(self):
        g = random_graph(5)
        snap = g.snapshot()
        assert g.snapshot() is snap
        assert snap.snapshot() is snap  # a snapshot is its own snapshot

    def test_epochs_are_unique_and_monotone(self):
        a = random_graph(6).snapshot()
        b = random_graph(6).snapshot()
        assert b.epoch > a.epoch

    def test_indexed_columns(self):
        g = random_graph(7)
        snap = g.snapshot()
        assert set(snap.edge_indexes) == set(INDEXED_EDGE_COLUMNS)
        for name in INDEXED_EDGE_COLUMNS:
            col = np.asarray(g.edge_properties[name])
            for value in np.unique(col)[:3]:
                cand = snap.equality_candidates(name, value)
                assert np.array_equal(cand, np.flatnonzero(col == value))
        assert snap.memory_bytes() > 0

    def test_no_index_without_columns(self):
        g = PropertyGraph(3, np.array([0, 1]), np.array([1, 2]))
        snap = g.snapshot()
        assert snap.edge_indexes == {}
        assert snap.host_index is None
        assert not snap.has_edge_index("PROTOCOL")

    def test_host_index(self, seed_graph):
        snap = seed_graph.snapshot()
        ids = np.asarray(seed_graph.vertex_properties["ID"])
        assert snap.host_index is not None
        assert snap.host_vertex(int(ids[3])) == 3
        assert snap.host_vertex(-99) is None

    def test_empty_graphless_edges(self):
        g = PropertyGraph(5, np.empty(0, np.int64), np.empty(0, np.int64))
        snap = g.snapshot()
        assert snap.out_indptr.tolist() == [0] * 6
        assert neighbors(g, 2).size == 0
        assert fan_out_motif(g, 1).size == 0


class TestQueryByteIdentity:
    """Every family through the snapshot returns byte-identical results
    to the pre-snapshot reference implementations."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_neighbors(self, seed):
        g = random_graph(seed)
        for v in range(0, g.n_vertices, 7):
            ref_out = np.unique(g.dst[g.src == v])
            ref_in = np.unique(g.src[g.dst == v])
            for direction, ref in (
                ("out", ref_out),
                ("in", ref_in),
                ("both", np.unique(np.concatenate([ref_out, ref_in]))),
            ):
                got = neighbors(g, v, direction=direction)
                assert np.array_equal(got, ref)
                assert got.dtype == ref.dtype

    @pytest.mark.parametrize("seed", SEEDS)
    def test_degree_top_k(self, seed):
        g = random_graph(seed)
        for kind, deg in (
            ("in", g.in_degrees()),
            ("out", g.out_degrees()),
            ("total", g.degrees()),
        ):
            k = min(10, g.n_vertices)
            ref = np.argpartition(deg, -k)[-k:]
            ref = ref[np.argsort(-deg[ref], kind="stable")]
            assert np.array_equal(degree_top_k(g, 10, kind=kind), ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_filters(self, seed):
        g = random_graph(seed)
        filters = [
            EdgeFilter(equals={"PROTOCOL": 6}),
            EdgeFilter(equals={"PROTOCOL": 6, "DEST_PORT": 80}),
            EdgeFilter(
                equals={"DEST_PORT": 443, "STATE": 1},
                ranges={"OUT_BYTES": (1, None)},
            ),
            EdgeFilter(ranges={"OUT_BYTES": (100, 5000)}),
            EdgeFilter(equals={"DEST_PORT": 4444}),  # matches nothing
            EdgeFilter(
                equals={"PROTOCOL": 17, "OUT_BYTES": 1},  # unindexed equals
                ranges={"IN_BYTES": (None, 9000)},
            ),
        ]
        for flt in filters:
            mask = flt.mask(g)
            sel = flt.selection(g)
            assert np.array_equal(sel, np.flatnonzero(mask))
            answer = filter_edges(g, flt)
            assert np.array_equal(answer.edge_ids, sel)
            assert_same_edges(answer.to_graph(), g.select_edges(mask))

    def test_edge_filter_unknown_attribute(self):
        g = random_graph(0)
        with pytest.raises(KeyError):
            filter_edges(g, EdgeFilter(equals={"NOPE": 1}))
        with pytest.raises(KeyError):
            filter_edges(
                g,
                EdgeFilter(
                    equals={"PROTOCOL": 6}, ranges={"NOPE": (0, 1)}
                ),
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_path_queries_match_scipy_csr(self, seed):
        g = random_graph(seed, n=40, e=120)
        adj = g.simple_graph().to_sparse_adjacency(weighted=False)
        from repro.queries import path_queries

        def ref_k_hop(source, k):
            seen = np.zeros(g.n_vertices, dtype=bool)
            seen[source] = True
            frontier = np.asarray([source], dtype=np.int64)
            for _ in range(k):
                nxt = path_queries._expand(
                    adj.indptr, adj.indices, frontier
                )
                nxt = np.unique(nxt[~seen[nxt]])
                if nxt.size == 0:
                    break
                seen[nxt] = True
                frontier = nxt
            return np.flatnonzero(seen)

        for v in range(0, g.n_vertices, 5):
            for k in (0, 1, 2, 4):
                got = k_hop_neighborhood(g, v, k)
                ref = ref_k_hop(v, k)
                assert np.array_equal(got, ref)
                assert got.dtype == ref.dtype
            assert np.array_equal(
                reachable_within(g, v, max_hops=3),
                np.isin(np.arange(g.n_vertices), ref_k_hop(v, 3)),
            )

    def test_shortest_path_matches_networkx(self, seed_graph):
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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subgraph_queries(self, seed):
        g = random_graph(seed)
        s, d = g.distinct_edge_pairs()
        for m in (1, 3, 10):
            assert np.array_equal(
                fan_out_motif(g, m),
                np.flatnonzero(
                    np.bincount(s, minlength=g.n_vertices) >= m
                ),
            )
            assert np.array_equal(
                fan_in_motif(g, m),
                np.flatnonzero(
                    np.bincount(d, minlength=g.n_vertices) >= m
                ),
            )
        agg = host_pair_aggregate(g)
        assert agg.n_flows.sum() == g.n_edges
        assert len(agg) == g.simple_graph().n_edges

    def test_vertex_by_host_id(self, seed_graph):
        ids = seed_graph.vertex_properties["ID"]
        assert vertex_by_host_id(seed_graph, int(ids[3])) == 3
        assert vertex_by_host_id(seed_graph, -99) is None
        bare = PropertyGraph(4, np.array([0, 1]), np.array([1, 2]))
        assert vertex_by_host_id(bare, 2) == 2
        assert vertex_by_host_id(bare, 9) is None


class TestSnapshotMemoization:
    """Regression for the historical per-query CSR rebuild: one snapshot
    construction per graph, no matter how many queries run."""

    def test_workload_builds_one_snapshot(self, monkeypatch):
        g = random_graph(11)
        builds = []
        real_build = GraphSnapshot.build.__func__

        def counting_build(cls, graph):
            builds.append(graph)
            return real_build(cls, graph)

        monkeypatch.setattr(
            GraphSnapshot, "build", classmethod(counting_build)
        )
        report = QueryWorkload(n_queries=10, seed=3).run(g)
        assert report.total_seconds > 0
        # One construction for the queried graph.  (Edge filters answer
        # with edge ids over it; no result sub-graph is built.)
        assert builds.count(g) == 1
        assert len(builds) == 1
        QueryWorkload(n_queries=10, seed=4).run(g)
        assert len(builds) == 1  # still memoized across workloads

    def test_repeated_path_queries_share_csr(self, monkeypatch):
        g = random_graph(12)
        calls = {"n": 0}
        real_build = GraphSnapshot.build.__func__

        def counting_build(cls, graph):
            calls["n"] += 1
            return real_build(cls, graph)

        monkeypatch.setattr(
            GraphSnapshot, "build", classmethod(counting_build)
        )
        for v in range(10):
            k_hop_neighborhood(g, v, 2)
        assert calls["n"] == 1


# ----------------------------------------------------------------------
# EdgeSelection: ids over the snapshot, columns on demand
# ----------------------------------------------------------------------
@st.composite
def graphs_and_filters(draw):
    """A small random Netflow-ish graph and a filter over it.  Values are
    drawn from narrow ranges so predicates match some edges, all edges
    or none; an out-of-domain probe value forces an empty match."""
    n = draw(st.integers(1, 12))
    e = draw(st.integers(0, 60))

    def column(elements, dtype=np.int64):
        return draw(hnp.arrays(dtype, e, elements=elements))

    g = PropertyGraph(
        n,
        column(st.integers(0, n - 1)),
        column(st.integers(0, n - 1)),
        edge_properties={
            "PROTOCOL": column(st.sampled_from([6, 17])),
            "DEST_PORT": column(st.sampled_from([22, 80, 443]), np.int32),
            "STATE": column(st.integers(0, 3), np.int8),
            "OUT_BYTES": column(st.integers(0, 4)),
            "IN_BYTES": column(st.integers(0, 4)),
            "DURATION": column(
                st.floats(0, 10, allow_nan=False), np.float64
            ),
        },
    )
    bound = st.one_of(st.none(), st.integers(0, 4))
    flt = EdgeFilter(
        equals=draw(st.fixed_dictionaries({}, optional={
            # indexed columns: the probe candidates
            "PROTOCOL": st.sampled_from([6, 17, 99]),
            "DEST_PORT": st.sampled_from([22, 80, 443, 4444]),
            "STATE": st.integers(0, 4),
            # unindexed: verified by gather or scanned
            "OUT_BYTES": st.integers(0, 5),
        })),
        ranges=draw(st.fixed_dictionaries({}, optional={
            "IN_BYTES": st.tuples(bound, bound),
            "DURATION": st.tuples(
                st.one_of(st.none(), st.floats(0, 5)),
                st.one_of(st.none(), st.floats(5, 10)),
            ),
        })),
    )
    return g, flt


class TestEdgeSelection:
    @settings(max_examples=200, deadline=None)
    @given(graphs_and_filters())
    def test_to_graph_equals_masked_select(self, case):
        g, flt = case
        mask = flt.mask(g)
        answer = filter_edges(g, flt)
        assert isinstance(answer, EdgeSelection)
        assert answer.n_vertices == g.n_vertices
        assert answer.edge_ids.dtype == np.int64
        assert not answer.edge_ids.flags.writeable
        assert np.array_equal(answer.edge_ids, np.flatnonzero(mask))
        assert answer.n_edges == int(mask.sum())
        assert_same_edges(answer.to_graph(), g.select_edges(mask))

    @pytest.mark.parametrize("column,value", [
        ("PROTOCOL", 6), ("DEST_PORT", 443), ("STATE", 1),
    ])
    def test_equals_only_probe_is_a_view_of_the_index(self, column, value):
        g = random_graph(3)
        answer = filter_edges(g, EdgeFilter(equals={column: value}))
        index = g.snapshot().edge_indexes[column]
        assert answer.n_edges > 0
        assert np.shares_memory(answer.edge_ids, index.order)
        assert np.array_equal(
            answer.edge_ids, np.flatnonzero(g.edge_properties[column] == value)
        )

    def test_fields_are_n_vertices_and_edge_ids(self):
        assert [f.name for f in dataclasses.fields(EdgeSelection)] == [
            "n_vertices", "edge_ids"
        ]

    def test_freezing_never_touches_the_callers_array(self):
        g = random_graph(4)
        ids = np.array([0, 3, 7], dtype=np.int64)
        sel = EdgeSelection(g.n_vertices, ids, g)
        assert ids.flags.writeable
        with pytest.raises(ValueError):
            sel.edge_ids[0] = 1
        assert_same_edges(sel.to_graph(), g.select_edges(ids))
