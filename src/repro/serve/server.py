"""Concurrent query server with an epoch-keyed LRU result cache.

A :class:`QueryServer` wraps one :class:`~repro.serve.snapshot.GraphSnapshot`
and executes :class:`Query` objects — declarative descriptions of the
four query families — either one at a time (:meth:`QueryServer.execute`)
or as concurrent batches over a thread pool
(:meth:`QueryServer.run_batch`).  The snapshot is read-only numpy, so
worker threads share it without locks; results are memoized in an LRU
cache keyed by ``(snapshot epoch, canonical query fingerprint)``, which
makes regeneration (a new graph, a new snapshot, a new epoch) an
implicit cache invalidation: :meth:`QueryServer.swap` installs the new
snapshot and drops every stale entry.

Every answer is read-only: :meth:`QueryServer.execute` marks each
ndarray in a result (a bare array, or an array field of a dataclass
answer) unwritable before it is cached or returned, so a caller cannot
corrupt what the next cache hit returns, and answers behave the same
cold and warm.  An edge-filter answer is an
:class:`~repro.queries.edge_queries.EdgeSelection` of ids over the
snapshot's graph; it pins that graph, so an answer taken before
:meth:`QueryServer.swap` still reads the old graph's rows.

Batched execution is deterministic: each query is a pure function of the
snapshot, so a batch returns byte-identical results at any thread count,
cached or not, and identical to calling the ``repro.queries`` functions
directly on the same graph.

:class:`ServerStats` reports the serving-side picture — per-family
latency percentiles, cache hit ratio and queries/second — alongside the
engine's SimulationMetrics.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.graph.property_graph import PropertyGraph
from repro.queries.edge_queries import EdgeFilter, filter_edges
from repro.queries.node_queries import (
    degree_top_k,
    neighbors,
    vertex_by_host_id,
)
from repro.queries.path_queries import (
    k_hop_neighborhood,
    reachable_within,
    shortest_path_length,
)
from repro.queries.subgraph_queries import (
    fan_in_motif,
    fan_out_motif,
    host_pair_aggregate,
)
from repro.serve.snapshot import GraphSnapshot

__all__ = [
    "Query",
    "QueryServer",
    "ServerStats",
    "FamilyStats",
    "FAMILIES",
]

FAMILIES = ("node", "edge", "path", "subgraph")


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def _canon(value):
    """Canonical, hashable, repr-stable form of one parameter value."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        return tuple(
            sorted((str(k), _canon(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"unsupported query parameter {value!r}")


@dataclass(frozen=True)
class Query:
    """One declarative query: an op name plus canonical parameters.

    Build via the family constructors (:meth:`neighbors`,
    :meth:`edge_filter`, :meth:`k_hop`, ...).  ``params`` is a sorted
    tuple of ``(name, value)`` pairs, so equal queries always share one
    :meth:`fingerprint` — the result-cache key.
    """

    op: str
    family: str
    params: tuple

    @classmethod
    def _make(cls, op: str, family: str, **params) -> "Query":
        canon = tuple(
            sorted((name, _canon(value)) for name, value in params.items())
        )
        return cls(op=op, family=family, params=canon)

    def fingerprint(self) -> str:
        """Canonical cache key (stable across processes and runs)."""
        return f"{self.op}{self.params!r}"

    def kwargs(self) -> dict:
        return dict(self.params)

    # -- node ----------------------------------------------------------
    @classmethod
    def neighbors(cls, vertex: int, *, direction: str = "both") -> "Query":
        return cls._make(
            "neighbors", "node", vertex=vertex, direction=direction
        )

    @classmethod
    def degree_top_k(cls, k: int, *, kind: str = "total") -> "Query":
        return cls._make("degree_top_k", "node", k=k, kind=kind)

    @classmethod
    def host_lookup(cls, host_id: int) -> "Query":
        return cls._make("host_lookup", "node", host_id=host_id)

    # -- edge ----------------------------------------------------------
    @classmethod
    def edge_filter(
        cls, *, equals: dict | None = None, ranges: dict | None = None
    ) -> "Query":
        return cls._make(
            "edge_filter", "edge",
            equals=equals or {}, ranges=ranges or {},
        )

    # -- path ----------------------------------------------------------
    @classmethod
    def k_hop(cls, source: int, k: int) -> "Query":
        return cls._make("k_hop", "path", source=source, k=k)

    @classmethod
    def shortest_path(cls, source: int, target: int) -> "Query":
        return cls._make(
            "shortest_path", "path", source=source, target=target
        )

    @classmethod
    def reachable(
        cls, source: int, *, max_hops: int | None = None
    ) -> "Query":
        return cls._make(
            "reachable", "path", source=source, max_hops=max_hops
        )

    # -- subgraph ------------------------------------------------------
    @classmethod
    def fan_out(cls, min_distinct_destinations: int) -> "Query":
        return cls._make(
            "fan_out", "subgraph",
            min_distinct_destinations=min_distinct_destinations,
        )

    @classmethod
    def fan_in(cls, min_distinct_sources: int) -> "Query":
        return cls._make(
            "fan_in", "subgraph",
            min_distinct_sources=min_distinct_sources,
        )

    @classmethod
    def pair_aggregate(cls) -> "Query":
        return cls._make("pair_aggregate", "subgraph")


def _run_edge_filter(snap: GraphSnapshot, p: dict):
    # equals/ranges were canonicalized to sorted (name, value) tuples.
    flt = EdgeFilter(equals=dict(p["equals"]), ranges=dict(p["ranges"]))
    return filter_edges(snap, flt)


def _read_only(result):
    """Mark every ndarray of a query result unwritable (in place)."""
    if isinstance(result, np.ndarray):
        result.flags.writeable = False
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return result


_OPS: dict[str, callable] = {
    "neighbors": lambda s, p: neighbors(
        s, p["vertex"], direction=p["direction"]
    ),
    "degree_top_k": lambda s, p: degree_top_k(s, p["k"], kind=p["kind"]),
    "host_lookup": lambda s, p: vertex_by_host_id(s, p["host_id"]),
    "edge_filter": _run_edge_filter,
    "k_hop": lambda s, p: k_hop_neighborhood(s, p["source"], p["k"]),
    "shortest_path": lambda s, p: shortest_path_length(
        s, p["source"], p["target"]
    ),
    "reachable": lambda s, p: reachable_within(
        s, p["source"], max_hops=p["max_hops"]
    ),
    "fan_out": lambda s, p: fan_out_motif(
        s, p["min_distinct_destinations"]
    ),
    "fan_in": lambda s, p: fan_in_motif(s, p["min_distinct_sources"]),
    "pair_aggregate": lambda s, p: host_pair_aggregate(s),
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FamilyStats:
    """Latency profile of one query family."""

    n_queries: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    queries_per_second: float


@dataclass(frozen=True)
class ServerStats:
    """One server's cumulative serving report.

    ``queries_per_second`` divides total queries by the *batch wall
    clock* (concurrent batches overlap latencies); the per-family rates
    divide each family's count by its summed latency, i.e. the serial
    throughput of that family.
    """

    epoch: int
    n_queries: int
    cache_hits: int
    cache_misses: int
    wall_seconds: float
    families: dict[str, FamilyStats]

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_queries / self.wall_seconds

    def summary(self) -> str:
        """Human-readable block (families with no queries are skipped)."""
        lines = [
            f"epoch {self.epoch}: {self.n_queries} queries in "
            f"{self.wall_seconds * 1e3:.2f} ms "
            f"({self.queries_per_second:,.0f} q/s), "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.hit_ratio:.1%})"
        ]
        for family in FAMILIES:
            fs = self.families.get(family)
            if fs is None or fs.n_queries == 0:
                continue
            lines.append(
                f"  {family:<9} n={fs.n_queries:<6} "
                f"p50={fs.p50_ms:8.3f} ms  p99={fs.p99_ms:8.3f} ms  "
                f"{fs.queries_per_second:12,.0f} q/s"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class QueryServer:
    """Serve batched queries over an immutable graph snapshot.

    Parameters
    ----------
    graph:
        A :class:`PropertyGraph` (its memoized snapshot is used) or a
        prebuilt :class:`GraphSnapshot`.
    threads:
        Default worker-thread count for :meth:`run_batch` (default: the
        ``REPRO_QUERY_THREADS`` environment variable, then CPU count).
    cache_size:
        LRU result-cache capacity in entries; 0 disables caching
        (default: ``REPRO_QUERY_CACHE``, then 1024).
    """

    def __init__(
        self,
        graph: PropertyGraph | GraphSnapshot,
        *,
        threads: int | None = None,
        cache_size: int | None = None,
    ) -> None:
        self._snapshot = graph.snapshot()
        self.threads = (
            config.resolve("query_threads", threads) or os.cpu_count() or 1
        )
        self.cache_size = config.resolve("query_cache", cache_size)
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.reset_stats()

    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> GraphSnapshot:
        return self._snapshot

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    def swap(self, graph: PropertyGraph | GraphSnapshot) -> GraphSnapshot:
        """Install a regenerated graph.  The new snapshot's epoch
        invalidates every cached result from previous epochs."""
        snap = graph.snapshot()
        with self._lock:
            self._snapshot = snap
            stale = [k for k in self._cache if k[0] != snap.epoch]
            for key in stale:
                del self._cache[key]
        return snap

    # ------------------------------------------------------------------
    def execute(self, query: Query):
        """Run one query through the cache; returns its result."""
        result, seconds = self._execute(query, self._snapshot)
        with self._stats_lock:
            self._wall_seconds += seconds
        return result

    def run_batch(
        self, queries, *, threads: int | None = None
    ) -> list:
        """Execute a batch concurrently; results keep submission order.

        Results are byte-identical to serial execution: every query is
        a pure function of the snapshot."""
        queries = list(queries)
        threads = self.threads if threads is None else threads
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        snap = self._snapshot
        t0 = time.perf_counter()
        if threads == 1 or len(queries) <= 1:
            results = [self._execute(q, snap)[0] for q in queries]
        else:
            with ThreadPoolExecutor(
                max_workers=min(threads, len(queries))
            ) as pool:
                results = list(
                    pool.map(lambda q: self._execute(q, snap)[0], queries)
                )
        wall = time.perf_counter() - t0
        with self._stats_lock:
            self._wall_seconds += wall
        return results

    # ------------------------------------------------------------------
    def _execute(self, query: Query, snap: GraphSnapshot):
        runner = _OPS.get(query.op)
        if runner is None:
            raise ValueError(f"unknown query op {query.op!r}")
        t0 = time.perf_counter()
        key = (snap.epoch, query.fingerprint())
        hit = False
        if self.cache_size:
            with self._lock:
                if key in self._cache:
                    result = self._cache[key]
                    self._cache.move_to_end(key)
                    hit = True
        if not hit:
            result = _read_only(runner(snap, query.kwargs()))
            if self.cache_size:
                with self._lock:
                    self._cache[key] = result
                    self._cache.move_to_end(key)
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
        seconds = time.perf_counter() - t0
        with self._stats_lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1
            self._latencies[query.family].append(seconds)
        return result, seconds

    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        with self._lock, self._stats_lock:
            hits, misses = self._hits, self._misses
            size = len(self._cache)
        total = hits + misses
        return {
            "size": size,
            "capacity": self.cache_size,
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / total if total else 0.0,
        }

    def stats(self) -> ServerStats:
        """Freeze the cumulative counters into a report."""
        with self._stats_lock:
            families = {}
            n_queries = 0
            for family, lat in self._latencies.items():
                n = len(lat)
                n_queries += n
                if n == 0:
                    families[family] = FamilyStats(0, 0.0, 0.0, 0.0, 0.0)
                    continue
                arr = np.asarray(lat, dtype=np.float64)
                total = float(arr.sum())
                families[family] = FamilyStats(
                    n_queries=n,
                    p50_ms=float(np.percentile(arr, 50)) * 1e3,
                    p99_ms=float(np.percentile(arr, 99)) * 1e3,
                    mean_ms=float(arr.mean()) * 1e3,
                    queries_per_second=(n / total) if total > 0 else 0.0,
                )
            return ServerStats(
                epoch=self._snapshot.epoch,
                n_queries=n_queries,
                cache_hits=self._hits,
                cache_misses=self._misses,
                wall_seconds=self._wall_seconds,
                families=families,
            )

    def reset_stats(self) -> None:
        with self._stats_lock:
            self._hits = 0
            self._misses = 0
            self._wall_seconds = 0.0
            self._latencies: dict[str, list[float]] = {
                family: [] for family in FAMILIES
            }
