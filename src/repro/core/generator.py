"""Shared generator types: seed analysis, the property model, results.

``SeedAnalysis`` is the output of the Fig. 1 analysis step — everything a
generator needs to know about the seed, and nothing else.  ``PropertyModel``
implements the attribute decoration common to both algorithms (Fig. 2
lines 15-20 == Fig. 3 lines 13-18; the paper notes "the function for the
generation of the properties is the same in both synthesis methods").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.property_graph import PropertyGraph
from repro.netflow.attributes import (
    CONDITIONING_ATTRIBUTE,
    NETFLOW_EDGE_ATTRIBUTES,
)
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["SeedAnalysis", "PropertyModel", "GenerationResult"]


@dataclass(frozen=True)
class PropertyModel:
    """The Netflow attribute model extracted from the seed: its flows.

    ``columns`` maps each of the nine attributes to the seed's column, in
    its own dtype and read-only; row ``i`` of every column is seed flow
    ``i``.  Drawing one seed row per edge is the paper's p(IN_BYTES) and
    p(a | IN_BYTES) with the conditioner resolved exactly: a uniform row
    has the seed's IN_BYTES law, and given its IN_BYTES each attribute has
    the seed's conditional law.  All nine values come from one real flow,
    so together they never describe a flow the seed did not have.
    """

    columns: dict[str, np.ndarray]

    @classmethod
    def fit(cls, edge_properties: dict[str, np.ndarray]) -> "PropertyModel":
        """Keep the seed's edge-attribute columns."""
        missing = [
            a for a in NETFLOW_EDGE_ATTRIBUTES if a not in edge_properties
        ]
        if missing:
            raise ValueError(f"seed lacks Netflow attributes: {missing}")
        columns = {}
        for name in NETFLOW_EDGE_ATTRIBUTES:
            col = np.array(edge_properties[name])
            col.flags.writeable = False
            columns[name] = col
        if len({col.shape for col in columns.values()}) != 1:
            raise ValueError("seed attribute columns differ in length")
        if not columns[CONDITIONING_ATTRIBUTE].size:
            raise ValueError("cannot fit attributes on zero seed flows")
        return cls(columns=columns)

    def sample_columns(
        self,
        n_edges: int,
        rng: np.random.Generator,
        *,
        conditional: bool = True,
    ) -> dict[str, np.ndarray]:
        """Draw all nine attribute columns for ``n_edges`` edges.

        With ``conditional=True`` one seed row is drawn per edge and every
        column is gathered with it, keeping the seed's attribute couplings
        (big flows have many packets, long durations).  With
        ``conditional=False`` each column draws its own rows: the same
        marginals, no couplings (the attribute ablation).
        """
        n_seed = self.columns[CONDITIONING_ATTRIBUTE].size
        if conditional:
            rows = rng.integers(0, n_seed, n_edges)
            return {name: col[rows] for name, col in self.columns.items()}
        return {
            name: col[rng.integers(0, n_seed, n_edges)]
            for name, col in self.columns.items()
        }


@dataclass(frozen=True)
class SeedAnalysis:
    """Everything the generators consume about a seed graph (Fig. 1 output).

    ``multiplicity`` is the distribution of parallel-edge counts per
    distinct vertex pair — what PGSK's duplication stage samples by default
    (the figure labels this input "outDegree"; see DESIGN.md).
    """

    n_vertices: int
    n_edges: int
    in_degree: EmpiricalDistribution
    out_degree: EmpiricalDistribution
    multiplicity: EmpiricalDistribution
    properties: PropertyModel

    @classmethod
    def from_graph(cls, graph: PropertyGraph) -> "SeedAnalysis":
        if graph.n_edges == 0:
            raise ValueError("seed graph has no edges to analyse")
        # Degree distributions exclude isolated vertices: a grown vertex
        # must attach at least one edge, so degree 0 is not a valid target.
        in_deg = graph.in_degrees()
        out_deg = graph.out_degrees()
        in_dist = EmpiricalDistribution.from_samples(in_deg[in_deg > 0])
        out_dist = EmpiricalDistribution.from_samples(out_deg[out_deg > 0])
        props = {
            name: np.asarray(col)
            for name, col in graph.edge_properties.items()
            if name in NETFLOW_EDGE_ATTRIBUTES
        }
        return cls(
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            in_degree=in_dist,
            out_degree=out_dist,
            multiplicity=EmpiricalDistribution.from_samples(
                graph.edge_multiplicities()
            ),
            properties=PropertyModel.fit(props),
        )


@dataclass
class GenerationResult:
    """Output of one generator run.

    ``structure_seconds`` / ``property_seconds`` are *simulated* cluster
    times for the two phases — the split behind the paper's Fig. 10
    property-overhead observation (~50% for PGPBA, ~30% for PGSK).
    ``peak_node_memory_bytes`` feeds Fig. 11.
    """

    graph: PropertyGraph
    algorithm: str
    structure_seconds: float
    property_seconds: float
    peak_node_memory_bytes: int
    n_nodes: int
    iterations: int
    extra: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.structure_seconds + self.property_seconds

    @property
    def edges_per_second(self) -> float:
        """Throughput including property decoration (Fig. 10's metric)."""
        if self.total_seconds <= 0:
            return float("inf")
        return self.graph.n_edges / self.total_seconds

    @property
    def property_overhead(self) -> float:
        """property_seconds / structure_seconds, the Fig. 10 overhead."""
        if self.structure_seconds <= 0:
            return 0.0
        return self.property_seconds / self.structure_seconds
