"""Directed property-multigraph substrate.

The paper formalises a property-graph as ``G = (V, E, Dv, De)`` where ``E``
is a *multi-set* of directed edges and ``Dv`` / ``De`` attach attribute
records to vertices and edges.  :class:`~repro.graph.property_graph.PropertyGraph`
realises that model with columnar NumPy storage — one int64 array per edge
endpoint and one array per attribute — so a ten-million-edge graph is a
handful of contiguous arrays rather than ten million Python objects.

Beside it: the edge-list files of :mod:`repro.graph.io`, and two
analytics —
:func:`pagerank`, which veracity scores, and
:func:`global_clustering_coefficient`.
"""

from repro.graph.property_graph import PropertyGraph
from repro.graph.analytics import global_clustering_coefficient
from repro.graph.pagerank import pagerank
from repro.graph import io

__all__ = [
    "PropertyGraph",
    "global_clustering_coefficient",
    "pagerank",
    "io",
]
