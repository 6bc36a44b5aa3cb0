"""Structural analytics over property graphs.

Expressed as sparse-matrix operations over the simple-graph projection;
no Python loop runs over edges.
"""

from __future__ import annotations

import numpy as np

from repro.graph.property_graph import PropertyGraph

__all__ = ["global_clustering_coefficient"]


def global_clustering_coefficient(graph: PropertyGraph) -> float:
    """Transitivity: 3 * triangles / connected triples, on the undirected
    simple-graph projection.

    Computed from the sparse adjacency: ``trace(A^3)`` counts each triangle
    six times, and wedge counts come from the degree sequence.  This is the
    extra structural property the paper names as a natural extension of the
    veracity analysis.
    """
    from scipy import sparse

    if graph.n_vertices == 0 or graph.n_edges == 0:
        return 0.0
    s, d = graph.distinct_edge_pairs()
    # Undirected projection without self loops.
    keep = s != d
    s, d = s[keep], d[keep]
    if s.size == 0:
        return 0.0
    und_s = np.concatenate([s, d])
    und_d = np.concatenate([d, s])
    data = np.ones(und_s.size, dtype=np.float64)
    a = sparse.coo_matrix(
        (data, (und_s, und_d)), shape=(graph.n_vertices, graph.n_vertices)
    ).tocsr()
    a.data[:] = 1.0  # collapse reciprocal duplicates
    a.sum_duplicates()
    a.data[:] = np.minimum(a.data, 1.0)
    deg = np.asarray(a.sum(axis=1)).ravel()
    wedges = float(np.sum(deg * (deg - 1)) / 2.0)
    if wedges == 0:
        return 0.0
    a2 = a @ a
    triangles6 = float((a2.multiply(a)).sum())  # = trace(A^3)
    return triangles6 / (2.0 * wedges)
