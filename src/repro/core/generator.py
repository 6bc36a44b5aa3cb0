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
from repro.stats.conditional import ConditionalDistribution
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["SeedAnalysis", "PropertyModel", "GenerationResult"]


@dataclass(frozen=True)
class PropertyModel:
    """The Netflow attribute model extracted from the seed.

    ``anchor`` is the unconditional p(IN_BYTES); ``conditionals`` maps every
    other attribute ``a`` to p(a | IN_BYTES).  ``marginals`` keeps the
    unconditional distribution of every attribute, used when conditional
    sampling is disabled (the ablation knob in DESIGN.md).
    """

    anchor: EmpiricalDistribution
    conditionals: dict[str, ConditionalDistribution]
    marginals: dict[str, EmpiricalDistribution]

    @classmethod
    def fit(
        cls, edge_properties: dict[str, np.ndarray], *, n_bins: int = 16
    ) -> "PropertyModel":
        """Fit the model from seed edge-attribute columns."""
        missing = [
            a for a in NETFLOW_EDGE_ATTRIBUTES if a not in edge_properties
        ]
        if missing:
            raise ValueError(f"seed lacks Netflow attributes: {missing}")
        anchor_col = np.asarray(edge_properties[CONDITIONING_ATTRIBUTE])
        anchor = EmpiricalDistribution.from_samples(anchor_col)
        conditionals: dict[str, ConditionalDistribution] = {}
        marginals: dict[str, EmpiricalDistribution] = {}
        for name in NETFLOW_EDGE_ATTRIBUTES:
            col = np.asarray(edge_properties[name])
            marginals[name] = EmpiricalDistribution.from_samples(col)
            if name != CONDITIONING_ATTRIBUTE:
                conditionals[name] = ConditionalDistribution.fit(
                    anchor_col, col, n_bins=n_bins
                )
        return cls(anchor=anchor, conditionals=conditionals,
                   marginals=marginals)

    def sample_columns(
        self,
        n_edges: int,
        rng: np.random.Generator,
        *,
        conditional: bool = True,
    ) -> dict[str, np.ndarray]:
        """Draw all nine attribute columns for ``n_edges`` edges.

        With ``conditional=True`` the anchor attribute is drawn first and
        every other attribute conditions on it, preserving the seed's
        attribute couplings (big flows have many packets, long durations).
        """
        cols: dict[str, np.ndarray] = {}
        anchor_vals = self.anchor.sample(n_edges, rng)
        cols[CONDITIONING_ATTRIBUTE] = anchor_vals
        for name in NETFLOW_EDGE_ATTRIBUTES:
            if name == CONDITIONING_ATTRIBUTE:
                continue
            if conditional:
                cols[name] = self.conditionals[name].sample(anchor_vals, rng)
            else:
                cols[name] = self.marginals[name].sample(n_edges, rng)
        return cols


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
    def from_graph(
        cls, graph: PropertyGraph, *, n_bins: int = 16
    ) -> "SeedAnalysis":
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
            properties=PropertyModel.fit(props, n_bins=n_bins),
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
