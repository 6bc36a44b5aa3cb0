"""Columnar directed property multigraph.

Storage layout
--------------
Vertices are dense integers ``0 .. n_vertices-1``.  Edges are two parallel
int64 arrays ``src`` and ``dst``; parallel edges are simply repeated rows,
which is exactly the multi-set semantics the paper's ``E`` requires.
Vertex and edge attributes are name → array maps whose arrays align with the
vertex / edge index.  All analytics reduce to vectorised operations on these
arrays (``np.bincount`` for degrees, one sparse mat-vec per PageRank sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["PropertyGraph"]


@dataclass
class PropertyGraph:
    """A directed multigraph with columnar vertex and edge properties.

    Parameters
    ----------
    n_vertices:
        Number of vertices; vertex ids are ``0 .. n_vertices-1``.
    src, dst:
        Parallel int64 arrays of edge endpoints (may contain repeats —
        parallel edges — and self loops).
    vertex_properties, edge_properties:
        Attribute name → aligned array.
    """

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray
    vertex_properties: dict[str, np.ndarray] = field(default_factory=dict)
    edge_properties: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError(
                f"src {self.src.shape} and dst {self.dst.shape} must be "
                "matching 1-D arrays"
            )
        if self.n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        if self.src.size:
            top = max(int(self.src.max()), int(self.dst.max()))
            if top >= self.n_vertices:
                raise ValueError(
                    f"edge endpoint {top} out of range for "
                    f"{self.n_vertices} vertices"
                )
            low = min(int(self.src.min()), int(self.dst.min()))
            if low < 0:
                raise ValueError("edge endpoints must be non-negative")
        for name, arr in self.vertex_properties.items():
            if len(arr) != self.n_vertices:
                raise ValueError(
                    f"vertex property {name!r} has {len(arr)} entries for "
                    f"{self.n_vertices} vertices"
                )
        for name, arr in self.edge_properties.items():
            if len(arr) != self.src.size:
                raise ValueError(
                    f"edge property {name!r} has {len(arr)} entries for "
                    f"{self.src.size} edges"
                )

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def __len__(self) -> int:
        return self.n_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PropertyGraph(|V|={self.n_vertices}, |E|={self.n_edges}, "
            f"edge_props={sorted(self.edge_properties)})"
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "PropertyGraph":
        return cls(0, np.empty(0, np.int64), np.empty(0, np.int64))

    @classmethod
    def from_edge_list(
        cls,
        src,
        dst,
        *,
        n_vertices: int | None = None,
        edge_properties: Mapping[str, np.ndarray] | None = None,
    ) -> "PropertyGraph":
        """Build from endpoint arrays, inferring the vertex count."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if n_vertices is None:
            n_vertices = (
                int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
            )
        return cls(
            n_vertices=n_vertices,
            src=src,
            dst=dst,
            edge_properties=dict(edge_properties or {}),
        )

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, counting parallel edges."""
        return np.bincount(self.src, minlength=self.n_vertices)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, counting parallel edges."""
        return np.bincount(self.dst, minlength=self.n_vertices)

    def degrees(self) -> np.ndarray:
        """Total degree (in + out) of every vertex."""
        return self.out_degrees() + self.in_degrees()

    # ------------------------------------------------------------------
    # structure transforms
    # ------------------------------------------------------------------
    def distinct_edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The simple-graph projection: unique (src, dst) pairs.

        This is the ``E -> E^p`` step of PGSK (Fig. 3 lines 1-5): collapse
        the multi-set to a set via hashing.  Implemented by packing both
        endpoints into one int64 key when the graph is small enough,
        otherwise via lexicographic row de-duplication.
        """
        if self.n_edges == 0:
            return self.src.copy(), self.dst.copy()
        if self.n_vertices < (1 << 31):
            key = self.src * np.int64(self.n_vertices) + self.dst
            uniq = np.unique(key)
            return uniq // self.n_vertices, uniq % self.n_vertices
        pairs = np.stack([self.src, self.dst], axis=1)
        uniq = np.unique(pairs, axis=0)
        return uniq[:, 0].copy(), uniq[:, 1].copy()

    def edge_multiplicities(self) -> np.ndarray:
        """Multiplicity of every distinct (src, dst) pair.

        PGSK samples this distribution when re-expanding the simple graph
        back into a multigraph (Fig. 3 lines 9-12).
        """
        if self.n_edges == 0:
            return np.empty(0, np.int64)
        if self.n_vertices < (1 << 31):
            key = self.src * np.int64(self.n_vertices) + self.dst
            _, counts = np.unique(key, return_counts=True)
            return counts
        pairs = np.stack([self.src, self.dst], axis=1)
        _, counts = np.unique(pairs, axis=0, return_counts=True)
        return counts

    def simple_graph(self) -> "PropertyGraph":
        """Return the simple-graph projection (no attributes, no repeats)."""
        s, d = self.distinct_edge_pairs()
        return PropertyGraph(self.n_vertices, s, d)

    def reversed(self) -> "PropertyGraph":
        """Edge-reversed view (copies endpoint arrays, shares attributes)."""
        return PropertyGraph(
            self.n_vertices,
            self.dst.copy(),
            self.src.copy(),
            vertex_properties=dict(self.vertex_properties),
            edge_properties=dict(self.edge_properties),
        )

    def select_edges(self, mask_or_index: np.ndarray) -> "PropertyGraph":
        """Sub-multigraph keeping the selected edges and all vertices."""
        sel = np.asarray(mask_or_index)
        return PropertyGraph(
            self.n_vertices,
            self.src[sel],
            self.dst[sel],
            vertex_properties=dict(self.vertex_properties),
            edge_properties={
                k: np.asarray(v)[sel] for k, v in self.edge_properties.items()
            },
        )

    # ------------------------------------------------------------------
    # adjacency export
    # ------------------------------------------------------------------
    def snapshot(self):
        """The memoized query-serving snapshot of this graph.

        Builds a :class:`repro.serve.snapshot.GraphSnapshot` (CSR
        adjacency, degree arrays, attribute indexes) on first call and
        caches it on the instance, so a workload of many queries pays
        the O(E) index construction exactly once per graph.  The graph
        is treated as immutable once snapshotted — every structure
        transform here returns a new instance, which naturally gets a
        fresh snapshot (and a fresh cache epoch) of its own.
        """
        snap = self.__dict__.get("_snapshot")
        if snap is None:
            from repro.serve.snapshot import GraphSnapshot

            snap = GraphSnapshot.build(self)
            self.__dict__["_snapshot"] = snap
        return snap

    def to_sparse_adjacency(self, *, weighted: bool = True):
        """CSR adjacency matrix (multiplicities as weights when weighted)."""
        from scipy import sparse

        data = np.ones(self.n_edges, dtype=np.float64)
        mat = sparse.coo_matrix(
            (data, (self.src, self.dst)),
            shape=(self.n_vertices, self.n_vertices),
        ).tocsr()
        if not weighted:
            mat.data[:] = 1.0
        return mat

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Serialise to a compressed .npz archive."""
        payload: dict[str, np.ndarray] = {
            "n_vertices": np.asarray(self.n_vertices, dtype=np.int64),
            "src": self.src,
            "dst": self.dst,
        }
        for name, arr in self.vertex_properties.items():
            payload[f"vp__{name}"] = np.asarray(arr)
        for name, arr in self.edge_properties.items():
            payload[f"ep__{name}"] = np.asarray(arr)
        np.savez_compressed(path, **payload)

    @classmethod
    def load_npz(cls, path) -> "PropertyGraph":
        """Inverse of :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as data:
            vp = {
                k[4:]: data[k] for k in data.files if k.startswith("vp__")
            }
            ep = {
                k[4:]: data[k] for k in data.files if k.startswith("ep__")
            }
            return cls(
                n_vertices=int(data["n_vertices"]),
                src=data["src"],
                dst=data["dst"],
                vertex_properties=vp,
                edge_properties=ep,
            )

    def memory_bytes(self) -> int:
        """Resident bytes of all columnar arrays (used by Fig. 11 meter)."""
        total = self.src.nbytes + self.dst.nbytes
        for arr in self.vertex_properties.values():
            total += np.asarray(arr).nbytes
        for arr in self.edge_properties.values():
            total += np.asarray(arr).nbytes
        return total
