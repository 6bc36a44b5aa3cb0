"""Edge-level queries: attribute-filtered flow selection.

An :class:`EdgeFilter` is a conjunction of per-attribute predicates over
the Netflow edge columns — the property-graph equivalent of a Netflow
query like "all TCP flows to port 445 in state S0 moving fewer than 100
bytes" (a scan signature).

Evaluation routes through the graph's snapshot: when an equality
predicate pins one of the indexed columns (PROTOCOL, DEST_PORT, STATE),
the most selective index supplies a sorted candidate list via two
``searchsorted`` probes and the remaining predicates are verified by
gathers over just those candidates — a full-column boolean scan happens
only when no pinned column is indexed.  Either path selects the same
edges in the same order.

:func:`filter_edges` answers with an :class:`EdgeSelection`: the
matching edge ids over the snapshot's immutable graph, 8 bytes per edge.
Columns are gathered only when a caller asks for them
(:meth:`EdgeSelection.to_graph`), so a server holding many answers holds
ids, not copies of ``src``, ``dst`` and every edge column.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from repro.graph.property_graph import PropertyGraph

__all__ = ["EdgeFilter", "EdgeSelection", "filter_edges"]


@dataclass(frozen=True)
class EdgeFilter:
    """Conjunctive predicate over edge attributes.

    ``equals`` pins attributes to exact values; ``ranges`` bounds them with
    inclusive ``(low, high)`` intervals (either side may be None).
    """

    equals: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)

    def _column(self, graph, name: str) -> np.ndarray:
        col = graph.edge_properties.get(name)
        if col is None:
            raise KeyError(f"edge attribute {name!r} not present")
        return np.asarray(col)

    def mask(self, graph) -> np.ndarray:
        """Boolean edge mask (full-column scan); raises on unknown
        attributes."""
        out = np.ones(graph.n_edges, dtype=bool)
        for name, value in self.equals.items():
            out &= self._column(graph, name) == value
        for name, (low, high) in self.ranges.items():
            col = self._column(graph, name)
            if low is not None:
                out &= col >= low
            if high is not None:
                out &= col <= high
        return out

    def selection(self, graph) -> np.ndarray:
        """Matching edge ids in ascending order, using the snapshot's
        sorted indexes when an equality predicate pins an indexed
        column; equivalent to ``np.flatnonzero(self.mask(graph))``."""
        snap = graph.snapshot()
        # Validate every referenced column up front so the indexed and
        # scanning paths raise identically.
        for name in (*self.equals, *self.ranges):
            self._column(snap, name)
        indexed = {
            name: value
            for name, value in self.equals.items()
            if snap.has_edge_index(name)
        }
        if not indexed:
            return np.flatnonzero(self.mask(snap))
        # Probe the most selective index; stable argsort means the
        # candidate ids come back ascending, i.e. in edge order.
        probe = min(
            indexed, key=lambda n: snap.edge_indexes[n].count(indexed[n])
        )
        cand = snap.equality_candidates(probe, indexed[probe])
        for name, value in self.equals.items():
            if name == probe or cand.size == 0:
                continue
            cand = cand[self._column(snap, name)[cand] == value]
        for name, (low, high) in self.ranges.items():
            if cand.size == 0:
                break
            col = self._column(snap, name)[cand]
            keep = np.ones(cand.size, dtype=bool)
            if low is not None:
                keep &= col >= low
            if high is not None:
                keep &= col <= high
            cand = cand[keep]
        return np.ascontiguousarray(cand, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class EdgeSelection:
    """The edges of a graph that matched an :class:`EdgeFilter`.

    ``edge_ids`` are the matching edge ids, int64, ascending and
    read-only.  The selection pins the graph it was taken from by
    reference (copying nothing), so an answer taken before
    :meth:`~repro.serve.server.QueryServer.swap` keeps reading the old
    graph's rows.  That graph is an init-only argument, kept off the
    dataclass fields.
    """

    n_vertices: int
    edge_ids: np.ndarray
    base: InitVar[PropertyGraph]

    def __post_init__(self, base: PropertyGraph) -> None:
        # A view, so freezing it never changes the caller's array.
        ids = np.ascontiguousarray(self.edge_ids, dtype=np.int64).view()
        ids.flags.writeable = False
        object.__setattr__(self, "edge_ids", ids)
        object.__setattr__(self, "_base", base)

    @property
    def n_edges(self) -> int:
        return int(self.edge_ids.size)

    def to_graph(self) -> PropertyGraph:
        """Sub-multigraph of the selected edges (vertices preserved):
        ``src``, ``dst`` and every edge column gathered afresh."""
        return self._base.select_edges(self.edge_ids)


def filter_edges(graph, flt: EdgeFilter) -> EdgeSelection:
    """The edges matching ``flt``, as ids over the snapshot's graph."""
    snap = graph.snapshot()
    return EdgeSelection(snap.n_vertices, flt.selection(snap), snap.graph)
