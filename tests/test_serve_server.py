"""QueryServer: concurrency determinism, caching, epochs, statistics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import PropertyGraph
from repro.queries import EdgeFilter, EdgeSelection, QueryWorkload
from repro.queries.subgraph_queries import PairAggregate
from repro.serve import Query, QueryServer
from repro.serve.server import _OPS

from tests.test_serve import assert_same_edges, random_graph


def results_equal(a, b) -> bool:
    """Deep byte-level equality across the result types queries return."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, EdgeSelection):
        return (
            a.n_vertices == b.n_vertices
            and results_equal(a.edge_ids, b.edge_ids)
            and results_equal(a.to_graph(), b.to_graph())
        )
    if isinstance(a, PropertyGraph):
        return (
            a.n_vertices == b.n_vertices
            and np.array_equal(a.src, b.src)
            and np.array_equal(a.dst, b.dst)
            and set(a.edge_properties) == set(b.edge_properties)
            and all(
                np.array_equal(
                    np.asarray(a.edge_properties[k]),
                    np.asarray(b.edge_properties[k]),
                )
                for k in a.edge_properties
            )
        )
    if isinstance(a, PairAggregate):
        return all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("src", "dst", "n_flows", "total_bytes", "total_packets")
        )
    return a == b


def full_batch(graph, workload=None) -> list:
    wl = workload or QueryWorkload(n_queries=12, k_hops=2, seed=5)
    batch = wl.build_queries(graph)
    # Widen coverage beyond the workload mix: every remaining op.
    batch += [
        Query.neighbors(0, direction="out"),
        Query.neighbors(0, direction="in"),
        Query.degree_top_k(5, kind="in"),
        Query.degree_top_k(5, kind="out"),
        Query.host_lookup(3),
        Query.shortest_path(0, graph.n_vertices - 1),
        Query.reachable(1, max_hops=2),
        Query.reachable(1),
    ]
    return batch


class TestBatchDeterminism:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("threads", (2, 4))
    def test_threaded_batch_matches_serial(self, seed, threads):
        g = random_graph(seed)
        batch = full_batch(g)
        serial = QueryServer(g, threads=1, cache_size=0).run_batch(batch)
        threaded = QueryServer(g, threads=threads, cache_size=0).run_batch(
            batch
        )
        cached = QueryServer(g, threads=threads, cache_size=256).run_batch(
            batch
        )
        assert len(serial) == len(batch)
        for s, t, c in zip(serial, threaded, cached):
            assert results_equal(s, t)
            assert results_equal(s, c)

    def test_batch_matches_direct_calls(self):
        g = random_graph(7)
        batch = full_batch(g)
        server = QueryServer(g, threads=4)
        got = server.run_batch(batch)
        snap = g.snapshot()
        for query, result in zip(batch, got):
            direct = _OPS[query.op](snap, query.kwargs())
            assert results_equal(result, direct)

    def test_execute_single(self):
        g = random_graph(8)
        server = QueryServer(g, threads=1)
        got = server.execute(Query.k_hop(0, 2))
        assert results_equal(got, _OPS["k_hop"](g.snapshot(), {"source": 0, "k": 2}))

    def test_empty_batch(self):
        server = QueryServer(random_graph(9))
        assert server.run_batch([]) == []

    def test_unknown_op_rejected(self):
        server = QueryServer(random_graph(9))
        with pytest.raises(ValueError, match="unknown query op"):
            server.execute(Query(op="nope", family="node", params=()))
        with pytest.raises(ValueError, match="threads"):
            server.run_batch([Query.fan_out(2)], threads=0)


class TestResultCache:
    def test_hits_return_identical_results(self):
        g = random_graph(10)
        server = QueryServer(g, threads=1, cache_size=64)
        batch = full_batch(g)
        first = server.run_batch(batch)
        info = server.cache_info()
        assert info["misses"] > 0
        second = server.run_batch(batch)
        info2 = server.cache_info()
        assert info2["hits"] >= len(set(q.fingerprint() for q in batch))
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_duplicate_queries_hit_within_one_batch(self):
        g = random_graph(11)
        server = QueryServer(g, threads=1, cache_size=64)
        q = Query.degree_top_k(5)
        server.run_batch([q, q, q])
        info = server.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_cache_disabled(self):
        g = random_graph(12)
        server = QueryServer(g, cache_size=0, threads=1)
        q = Query.fan_out(3)
        r1, r2 = server.run_batch([q, q])
        assert results_equal(r1, r2)
        info = server.cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 2
        assert info["size"] == 0

    def test_lru_eviction_bounds_size(self):
        g = random_graph(13)
        server = QueryServer(g, threads=1, cache_size=4)
        for v in range(10):
            server.execute(Query.neighbors(v))
        assert server.cache_info()["size"] == 4
        # Most recent entries survive; the oldest were evicted.
        server.execute(Query.neighbors(9))
        assert server.cache_info()["hits"] == 1
        server.execute(Query.neighbors(0))
        assert server.cache_info()["misses"] == 11

    def test_fingerprints_canonical(self):
        a = Query.edge_filter(
            equals={"DEST_PORT": 80, "PROTOCOL": 6},
            ranges={"OUT_BYTES": (1, None)},
        )
        b = Query.edge_filter(
            equals={"PROTOCOL": np.int64(6), "DEST_PORT": np.int32(80)},
            ranges={"OUT_BYTES": [1, None]},
        )
        assert a.fingerprint() == b.fingerprint()
        assert a == b
        assert Query.neighbors(3) != Query.neighbors(4)
        with pytest.raises(TypeError):
            Query._make("x", "node", bad=object())


class TestEpochInvalidation:
    def test_swap_empties_cache(self):
        g1, g2 = random_graph(20), random_graph(21)
        server = QueryServer(g1, threads=1, cache_size=64)
        batch = full_batch(g1)
        before = server.run_batch(batch)
        assert server.cache_info()["size"] > 0
        old_epoch = server.epoch
        server.swap(g2)
        assert server.epoch > old_epoch
        assert server.cache_info()["size"] == 0
        after = server.run_batch(batch)
        # Fresh results come from the new snapshot, not stale cache.
        snap2 = g2.snapshot()
        for query, result in zip(batch, after):
            assert results_equal(result, _OPS[query.op](snap2, query.kwargs()))
        # Old results unchanged (no aliasing with the new graph).
        snap1 = g1.snapshot()
        for query, result in zip(batch, before):
            assert results_equal(result, _OPS[query.op](snap1, query.kwargs()))

    def test_swap_to_same_graph_keeps_cache(self):
        g = random_graph(22)
        server = QueryServer(g, threads=1, cache_size=64)
        server.execute(Query.degree_top_k(3))
        server.swap(g)  # memoized snapshot: same epoch, nothing stale
        assert server.cache_info()["size"] == 1
        server.execute(Query.degree_top_k(3))
        assert server.cache_info()["hits"] == 1


def answer_arrays(answer) -> list:
    """The ndarrays an answer holds: itself, or its dataclass fields."""
    if dataclasses.is_dataclass(answer):
        values = [getattr(answer, f.name) for f in dataclasses.fields(answer)]
    else:
        values = [answer]
    return [v for v in values if isinstance(v, np.ndarray)]


class TestReadOnlyAnswers:
    ARRAY_OPS = {
        "neighbors", "degree_top_k", "edge_filter", "k_hop", "reachable",
        "fan_out", "fan_in", "pair_aggregate",
    }

    @pytest.mark.parametrize("cache_size", (0, 16))
    def test_writing_into_an_answer_raises(self, cache_size):
        g = random_graph(50)
        server = QueryServer(g, threads=1, cache_size=cache_size)
        batch = full_batch(g)
        first = server.run_batch(batch)
        checked = set()
        for query, answer in zip(batch, first):
            for arr in answer_arrays(answer):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0
                checked.add(query.op)
        assert checked == self.ARRAY_OPS
        second = server.run_batch(batch)
        for a, b in zip(first, second):
            assert results_equal(a, b)
        snap = g.snapshot()
        for query, answer in zip(batch, second):
            assert results_equal(answer, _OPS[query.op](snap, query.kwargs()))


class TestEdgeAnswers:
    def test_cached_edge_answers_hold_ids_only(self):
        g = random_graph(60, n=200, e=20_000)
        snap = g.snapshot()
        batch = QueryWorkload(n_queries=24, seed=1).build_queries(
            snap, families=["edge"]
        )
        QueryServer(snap, threads=1, cache_size=0).run_batch(batch)
        server = QueryServer(snap, threads=1, cache_size=64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            answers = server.run_batch(batch)
            answers = server.run_batch(batch)  # warm: every query hits
            unique = {
                q.fingerprint(): a for q, a in zip(batch, answers)
            }
            del answers
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        info = server.cache_info()
        assert info["size"] == len(unique) > 1
        assert info["hits"] >= len(batch)
        id_bytes = 8 * sum(a.n_edges for a in unique.values())
        owned = sum(
            arr.nbytes
            for a in unique.values() for arr in answer_arrays(a)
        )
        assert owned == id_bytes > 0
        # Everything the cache keeps alive: the ids plus about 1.5 KiB
        # of bookkeeping per entry, never a copy of the columns.
        assert id_bytes <= retained <= id_bytes + 4096 * len(unique)

    def test_answer_taken_before_swap_reads_the_old_graph(self):
        g1, g2 = random_graph(20), random_graph(21)
        flt = EdgeFilter(
            equals={"PROTOCOL": 6}, ranges={"OUT_BYTES": (1, None)}
        )
        query = Query.edge_filter(equals=flt.equals, ranges=flt.ranges)
        server = QueryServer(g1, threads=1, cache_size=64)
        old = server.execute(query)
        server.swap(g2)
        new = server.execute(query)
        assert server.cache_info()["hits"] == 0
        assert_same_edges(old.to_graph(), g1.select_edges(flt.mask(g1)))
        assert_same_edges(new.to_graph(), g2.select_edges(flt.mask(g2)))


class TestServerStats:
    def test_counters_and_summary(self):
        g = random_graph(30)
        server = QueryServer(g, threads=2, cache_size=64)
        batch = full_batch(g)
        server.run_batch(batch)
        server.run_batch(batch)
        stats = server.stats()
        assert stats.n_queries == stats.cache_hits + stats.cache_misses
        assert stats.n_queries == 2 * len(batch)
        assert 0.0 < stats.hit_ratio < 1.0
        assert stats.wall_seconds > 0
        assert stats.queries_per_second > 0
        for family in ("node", "edge", "path", "subgraph"):
            fs = stats.families[family]
            assert fs.n_queries > 0
            assert fs.p50_ms <= fs.p99_ms
            assert fs.queries_per_second > 0
        text = stats.summary()
        assert "cache" in text
        for family in ("node", "edge", "path", "subgraph"):
            assert family in text

    def test_reset_stats(self):
        g = random_graph(31)
        server = QueryServer(g, threads=1)
        server.execute(Query.fan_in(2))
        server.reset_stats()
        stats = server.stats()
        assert stats.n_queries == 0
        assert stats.wall_seconds == 0.0
        assert stats.queries_per_second == 0.0
        assert stats.hit_ratio == 0.0
        # Empty families are skipped in the summary.
        assert "node" not in stats.summary()

    def test_resolve_env_vars(self, monkeypatch):
        g = random_graph(40)
        monkeypatch.delenv("REPRO_QUERY_THREADS", raising=False)
        monkeypatch.delenv("REPRO_QUERY_CACHE", raising=False)
        server = QueryServer(g)
        assert server.threads >= 1  # the CPU count
        assert server.cache_size == 1024
        monkeypatch.setenv("REPRO_QUERY_THREADS", "7")
        monkeypatch.setenv("REPRO_QUERY_CACHE", "9")
        server = QueryServer(g)
        assert (server.threads, server.cache_size) == (7, 9)
        server = QueryServer(g, threads=3, cache_size=0)
        assert (server.threads, server.cache_size) == (3, 0)
        with pytest.raises(ValueError, match="REPRO_QUERY_THREADS"):
            QueryServer(g, threads=0)
        with pytest.raises(ValueError, match="REPRO_QUERY_CACHE"):
            QueryServer(g, cache_size=-1)


class TestWorkloadBridge:
    def test_build_queries_mirrors_run_mix(self):
        g = random_graph(40)
        wl = QueryWorkload(n_queries=6, k_hops=2, seed=9)
        batch = wl.build_queries(g)
        by_family = {}
        for q in batch:
            by_family[q.family] = by_family.get(q.family, 0) + 1
        report = wl.run(g)
        assert by_family == {
            f: c for f, c in report.queries_by_family.items() if c
        }

    def test_build_queries_family_subset(self):
        g = random_graph(41)
        wl = QueryWorkload(n_queries=4, seed=1)
        only_paths = wl.build_queries(g, families=["path"])
        assert only_paths and all(q.family == "path" for q in only_paths)
        # Target draws identical to the full mix.
        full = [q for q in wl.build_queries(g) if q.family == "path"]
        assert only_paths == full

    def test_workload_qps_never_inf(self):
        from repro.queries.workload import WorkloadReport

        report = WorkloadReport(
            n_edges=10,
            queries_per_family=5,
            seconds_by_family={"node": 0.1, "edge": 0.0, "path": 0.0},
            queries_by_family={"node": 5, "edge": 0, "path": 5},
        )
        qps = report.queries_per_second()
        assert qps["node"] == pytest.approx(50.0)
        assert qps["edge"] == 0.0  # no queries ran: 0.0, never inf
        assert qps["path"] == 0.0  # unmeasurably fast: 0.0, never inf
        assert all(np.isfinite(v) for v in qps.values())
        rows = report.summary().splitlines()[1:]
        assert any(r.lstrip().startswith("node") for r in rows)
        assert not any(r.lstrip().startswith("edge") for r in rows)
        # path ran queries (too fast to time): shown, with 0 q/s.
        assert any(r.lstrip().startswith("path") for r in rows)

    def test_bare_graph_workload_without_props(self):
        g = PropertyGraph(
            6, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4])
        )
        report = QueryWorkload(n_queries=3, seed=0).run(g)
        assert report.queries_by_family["edge"] == 0
        assert report.queries_per_second()["edge"] == 0.0
        batch = QueryWorkload(n_queries=3, seed=0).build_queries(g)
        assert all(q.family != "edge" for q in batch)


# ----------------------------------------------------------------------
# property-based determinism over random query batches
# ----------------------------------------------------------------------
_N, _SEEDS = 30, (0, 1)

_query_st = st.one_of(
    st.builds(
        Query.neighbors,
        st.integers(0, _N - 1),
        direction=st.sampled_from(["out", "in", "both"]),
    ),
    st.builds(
        Query.degree_top_k,
        st.integers(1, 12),
        kind=st.sampled_from(["in", "out", "total"]),
    ),
    st.builds(Query.host_lookup, st.integers(-2, _N + 2)),
    st.builds(
        Query.edge_filter,
        equals=st.fixed_dictionaries(
            {},
            optional={
                "PROTOCOL": st.sampled_from([6, 17]),
                "DEST_PORT": st.sampled_from([22, 53, 80, 443]),
                "STATE": st.integers(0, 4),
            },
        ),
        ranges=st.fixed_dictionaries(
            {},
            optional={
                "OUT_BYTES": st.tuples(
                    st.integers(0, 100),
                    st.one_of(st.none(), st.integers(100, 10_000)),
                )
            },
        ),
    ),
    st.builds(Query.k_hop, st.integers(0, _N - 1), st.integers(0, 3)),
    st.builds(
        Query.shortest_path, st.integers(0, _N - 1), st.integers(0, _N - 1)
    ),
    st.builds(
        Query.reachable,
        st.integers(0, _N - 1),
        max_hops=st.one_of(st.none(), st.integers(0, 3)),
    ),
    st.builds(Query.fan_out, st.integers(1, 8)),
    st.builds(Query.fan_in, st.integers(1, 8)),
    st.builds(Query.pair_aggregate),
)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.lists(_query_st, min_size=1, max_size=12),
    seed=st.sampled_from(_SEEDS),
    threads=st.sampled_from([1, 3]),
    cache_size=st.sampled_from([0, 64]),
)
def test_server_matches_direct_execution(batch, seed, threads, cache_size):
    """Any random batch, any thread count, cached or not: the server
    returns exactly what direct query-function calls return."""
    g = _PROPERTY_GRAPHS[seed]
    server = QueryServer(g, threads=threads, cache_size=cache_size)
    got = server.run_batch(batch)
    snap = g.snapshot()
    for query, result in zip(batch, got):
        assert results_equal(result, _OPS[query.op](snap, query.kwargs()))
    assert server.stats().n_queries == len(batch)


_PROPERTY_GRAPHS = {
    s: random_graph(s, n=_N, e=150) for s in _SEEDS
}
