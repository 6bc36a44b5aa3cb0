"""Concurrent query serving over generated property graphs.

The paper frames the generated datasets as the input to a benchmark whose
workload is "queries on nodes, edges, paths, and sub-graphs".  This
package makes a generated graph *servable* the way a deployed graph IDS
would serve it:

* :class:`GraphSnapshot` — an immutable, index-accelerated view of one
  :class:`~repro.graph.property_graph.PropertyGraph`: out- and in-CSR
  adjacency over the simple-graph projection, degree arrays, and sorted
  per-attribute indexes for the equality columns the Netflow filters pin
  (PROTOCOL, DEST_PORT, STATE) plus the host-ID vertex column — all
  built once at snapshot time.
* :class:`QueryServer` — executes batched :class:`Query` objects
  concurrently over a thread pool (the snapshot is read-only numpy, so
  workers share it without locks) with an LRU result cache keyed by a
  canonical query fingerprint and invalidated by snapshot epoch when the
  graph is regenerated.
* :class:`ServerStats` — per-family latency percentiles, cache hit
  ratio and queries/second, reported alongside the engine's
  SimulationMetrics.
"""

from repro.serve.snapshot import GraphSnapshot, SortedIndex
from repro.serve.server import (
    FamilyStats,
    Query,
    QueryServer,
    ServerStats,
)

__all__ = [
    "GraphSnapshot",
    "SortedIndex",
    "Query",
    "QueryServer",
    "ServerStats",
    "FamilyStats",
]
