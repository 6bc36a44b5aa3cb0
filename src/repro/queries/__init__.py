"""Cyber-security query workloads over property graphs.

The paper's benchmark vision requires "typical operations executed in the
cyber-security domain, such as queries on nodes, edges, paths, and
sub-graphs".  This package supplies those four query families plus a
composable workload runner, so a generated dataset can be exercised the
way a deployed graph-based IDS would exercise it:

* **node queries** — host lookup, degree ranking, neighbourhoods;
* **edge queries** — attribute-filtered flow selection (protocol, port,
  state, byte thresholds), answered as an :class:`EdgeSelection` of
  edge ids over the graph; ``to_graph()`` gathers the columns on demand;
* **path queries** — k-hop reachability and shortest paths (lateral
  movement analysis);
* **sub-graph queries** — traffic motifs: fan-out (scanning), fan-in
  (DDoS convergence), and host-pair aggregation.
"""

from repro.queries.node_queries import (
    degree_top_k,
    neighbors,
    vertex_by_host_id,
)
from repro.queries.edge_queries import (
    EdgeFilter,
    EdgeSelection,
    filter_edges,
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
from repro.queries.workload import QueryWorkload, WorkloadReport

__all__ = [
    "vertex_by_host_id",
    "degree_top_k",
    "neighbors",
    "EdgeFilter",
    "EdgeSelection",
    "filter_edges",
    "k_hop_neighborhood",
    "shortest_path_length",
    "reachable_within",
    "fan_out_motif",
    "fan_in_motif",
    "host_pair_aggregate",
    "QueryWorkload",
    "WorkloadReport",
]
