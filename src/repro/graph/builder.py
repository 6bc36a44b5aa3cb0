"""Incremental construction of :class:`PropertyGraph` instances.

The generators grow graphs over many iterations; appending to NumPy arrays
one edge at a time would be quadratic.  :class:`GraphBuilder` buffers edge
blocks (whole arrays per iteration) and concatenates once at ``build()``,
so the amortised cost stays linear in the final edge count.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.graph.property_graph import PropertyGraph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates edge blocks and edge-property blocks.

    Usage::

        b = GraphBuilder.from_graph(seed)
        b.add_edges(src_block, dst_block)
        ...
        g = b.build()
    """

    def __init__(self, n_vertices: int = 0) -> None:
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        self._n_vertices = int(n_vertices)
        self._src_blocks: list[np.ndarray] = []
        self._dst_blocks: list[np.ndarray] = []
        self._prop_blocks: dict[str, list[np.ndarray]] = {}
        self._n_edges = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: PropertyGraph) -> "GraphBuilder":
        """Start from an existing graph (copies nothing; shares arrays)."""
        b = cls(graph.n_vertices)
        if graph.n_edges:
            b._src_blocks.append(graph.src)
            b._dst_blocks.append(graph.dst)
            b._n_edges = graph.n_edges
            for name, arr in graph.edge_properties.items():
                b._prop_blocks[name] = [np.asarray(arr)]
        else:
            for name in graph.edge_properties:
                b._prop_blocks[name] = []
        return b

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def add_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        properties: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Append a block of edges (and optionally aligned property blocks).

        Property columns must be consistent across blocks: once a property
        appears it must appear in every subsequent block, and vice versa.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be matching 1-D arrays")
        if src.size == 0:
            return
        if src.max() >= self._n_vertices or dst.max() >= self._n_vertices:
            raise ValueError("edge endpoint exceeds allocated vertex count")
        if src.min() < 0 or dst.min() < 0:
            raise ValueError("edge endpoints must be non-negative")
        props = dict(properties or {})
        known = set(self._prop_blocks)
        incoming = set(props)
        if self._n_edges and known != incoming:
            raise ValueError(
                f"inconsistent property columns: builder has {sorted(known)}, "
                f"block has {sorted(incoming)}"
            )
        self._src_blocks.append(src)
        self._dst_blocks.append(dst)
        for name, arr in props.items():
            arr = np.asarray(arr)
            if len(arr) != src.size:
                raise ValueError(
                    f"property {name!r} block length {len(arr)} != "
                    f"edge block length {src.size}"
                )
            self._prop_blocks.setdefault(name, []).append(arr)
        self._n_edges += src.size

    def build(self) -> PropertyGraph:
        """Concatenate all blocks into an immutable-ish PropertyGraph."""
        if self._src_blocks:
            src = np.concatenate(self._src_blocks)
            dst = np.concatenate(self._dst_blocks)
        else:
            src = np.empty(0, np.int64)
            dst = np.empty(0, np.int64)
        props: dict[str, np.ndarray] = {}
        for name, blocks in self._prop_blocks.items():
            if not blocks:
                continue
            col = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            if len(col) != src.size:
                raise ValueError(
                    f"property {name!r} covers {len(col)} of {src.size} edges"
                )
            props[name] = col
        return PropertyGraph(
            n_vertices=self._n_vertices,
            src=src,
            dst=dst,
            edge_properties=props,
        )
