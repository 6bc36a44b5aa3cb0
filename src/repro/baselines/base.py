"""Common machinery for the baseline generators."""

from __future__ import annotations

import abc

import numpy as np

from repro.core.generator import SeedAnalysis
from repro.graph.property_graph import PropertyGraph

__all__ = ["BaselineGenerator", "decorate_with_properties"]


def decorate_with_properties(
    graph: PropertyGraph,
    analysis: SeedAnalysis,
    rng: np.random.Generator,
    *,
    conditional: bool = True,
) -> PropertyGraph:
    """Attach the nine Netflow attribute columns to a structural graph:
    one seed flow per edge, as in the decoration stage of PGPBA/PGSK, so
    baselines produce fully comparable property graphs.
    """
    cols = analysis.properties.sample_columns(
        graph.n_edges, rng, conditional=conditional
    )
    return PropertyGraph(
        n_vertices=graph.n_vertices,
        src=graph.src,
        dst=graph.dst,
        vertex_properties=dict(graph.vertex_properties),
        edge_properties=cols,
    )


class BaselineGenerator(abc.ABC):
    """A structural graph generator with optional property decoration.

    Subclasses implement :meth:`edges` returning ``(n_vertices, src, dst)``;
    the base class handles validation, property decoration and the shared
    ``generate`` entry point so every baseline is interchangeable with the
    core generators in comparison experiments.
    """

    #: Human-readable model name for benchmark tables.
    name: str = "baseline"

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    @abc.abstractmethod
    def edges(
        self,
        n_vertices: int,
        n_edges: int,
        rng: np.random.Generator,
        analysis: SeedAnalysis | None,
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Produce the structural edge list.

        Returns the (possibly adjusted) vertex count plus endpoint arrays;
        models with structural constraints (powers of two, ring sizes) may
        return more vertices than requested, never fewer than 1.
        """

    def generate(
        self,
        analysis: SeedAnalysis,
        n_edges: int,
        *,
        n_vertices: int | None = None,
        with_properties: bool = True,
    ) -> PropertyGraph:
        """Generate a property graph of ~``n_edges`` edges.

        ``n_vertices`` defaults to scaling the seed's vertex count by the
        requested edge growth, preserving the seed's density.
        """
        if n_edges < 1:
            raise ValueError("n_edges must be >= 1")
        if n_vertices is None:
            scale = n_edges / max(analysis.n_edges, 1)
            n_vertices = max(2, int(round(analysis.n_vertices * scale)))
        if n_vertices < 2:
            raise ValueError("n_vertices must be >= 2")
        rng = np.random.default_rng((self.seed, n_vertices, n_edges))
        n_v, src, dst = self.edges(n_vertices, n_edges, rng, analysis)
        graph = PropertyGraph(
            n_vertices=n_v,
            src=np.ascontiguousarray(src, dtype=np.int64),
            dst=np.ascontiguousarray(dst, dtype=np.int64),
        )
        if with_properties:
            graph = decorate_with_properties(graph, analysis, rng)
        return graph
