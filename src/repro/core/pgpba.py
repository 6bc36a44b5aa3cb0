"""Property-Graph Parallel Barabási-Albert (PGPBA) — Fig. 2 of the paper.

Each iteration of the while loop:

1. ``sample`` — draw ``fraction * |E|`` edges uniformly from the edge RDD
   (line 3).  Because a vertex occurs in the edge list once per incident
   edge, uniform edge sampling *is* degree-proportional vertex sampling —
   the constant-time preferential attachment of Yoo & Henderson that the
   paper builds on.
2. ``grow`` — create one new vertex per sampled edge (lines 4-5), attach it
   to a uniformly chosen endpoint of its edge (line 7), and connect
   ``out ~ outDegree`` edges new→existing plus ``in ~ inDegree`` edges
   existing→new (lines 8-12).
3. Repeat until ``|E| >= desired_size``; then decorate every edge with
   Netflow attributes sampled from the seed's property model (lines 15-20).

The implementation runs on the :mod:`repro.engine` Map-Reduce substrate:
sampling uses ``RDD.sample`` on the edge RDD, growth is a per-partition map
with pre-allocated vertex-id blocks, and property decoration is one more
partitioned stage — mirroring the Spark realisation described in §III-A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.generator import GenerationResult, SeedAnalysis
from repro.engine.context import ClusterContext
from repro.graph.property_graph import PropertyGraph
from repro.netflow.attributes import NETFLOW_EDGE_ATTRIBUTES

__all__ = ["PGPBA"]


@dataclass
class PGPBA:
    """Configured PGPBA generator.

    Parameters
    ----------
    fraction:
        Ratio of newly added vertices to current edge count per iteration
        (the paper sweeps 0.1-0.9 for veracity and uses 2 for performance
        parity with PGSK's doubling).
    conditional_properties:
        Sample attributes from p(a | IN_BYTES) (True, the Fig. 1 model) or
        independently from the marginals (False; the DESIGN.md ablation).
    clamp_final_iteration:
        The paper notes it has "no fine grain control on the size of the
        produced graphs": each iteration multiplies the edge count by
        roughly ``1 + fraction * (mean_in + mean_out)`` and the last one
        can overshoot badly.  When True (default) the sampling fraction of
        the last iteration is shrunk so the expected new-edge count just
        covers the remainder — a size-control refinement on top of the
        paper's algorithm; set False for the strictly literal behaviour.
    max_iterations:
        Safety bound on the while loop.
    seed:
        Base RNG seed; all stages derive their streams from it.
    """

    fraction: float = 0.1
    conditional_properties: bool = True
    generate_properties: bool = True
    clamp_final_iteration: bool = True
    max_iterations: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fraction <= 0:
            raise ValueError("fraction must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    # ------------------------------------------------------------------
    def generate(
        self,
        seed_graph: PropertyGraph,
        analysis: SeedAnalysis,
        desired_size: int,
        *,
        context: ClusterContext | None = None,
    ) -> GenerationResult:
        """Grow ``seed_graph`` until it holds ``desired_size`` edges."""
        if seed_graph.n_edges == 0:
            raise ValueError("PGPBA needs a non-empty seed graph")
        if desired_size < seed_graph.n_edges:
            raise ValueError(
                f"desired_size {desired_size} is smaller than the seed "
                f"({seed_graph.n_edges} edges); PGPBA only grows graphs"
            )
        if context is None:
            with ClusterContext(n_nodes=1) as ctx:
                return self.generate(
                    seed_graph, analysis, desired_size, context=ctx
                )
        ctx = context
        start_clock = ctx.metrics.simulated_seconds

        # The edge RDD is the loop-carried state: persist it so every
        # iteration's sample reads the pinned partitions instead of
        # replaying the whole growth lineage, and so the driver-side
        # memory meter tracks what the loop keeps resident.
        edges = ctx.parallelize([seed_graph.src, seed_graph.dst]).persist()
        n_vertices = seed_graph.n_vertices
        n_edges = seed_graph.n_edges
        in_dist = analysis.in_degree
        out_dist = analysis.out_degree

        mean_new_edges = in_dist.mean() + out_dist.mean()
        iterations = 0
        while n_edges < desired_size and iterations < self.max_iterations:
            iterations += 1
            fraction = self.fraction
            if self.clamp_final_iteration and mean_new_edges > 0:
                remaining = desired_size - n_edges
                needed = remaining / (n_edges * mean_new_edges)
                fraction = min(fraction, max(needed, 1e-9))
            sampled = edges.sample(
                fraction, seed=self.seed + iterations, stage="pa:sample"
            )
            sizes = sampled.partition_sizes()
            offsets = n_vertices + np.concatenate(
                ([0], np.cumsum(sizes[:-1]))
            )
            n_new = int(sizes.sum())
            rng_base = self.seed * 1_000_003 + iterations

            def _grow(cols, pidx, _off=offsets, _rb=rng_base):
                # Draw order is pick, out_deg, in_deg; the out-edges
                # (new -> existing) come before the in-edges.
                src, dst = cols
                m = src.size
                if m == 0:
                    empty = np.empty(0, np.int64)
                    return empty, empty
                rng = np.random.default_rng((_rb, pidx))
                new_v = _off[pidx] + np.arange(m, dtype=np.int64)
                pick = rng.random(m) < 0.5
                dest_v = np.where(pick, src, dst)
                out_deg = out_dist.sample(m, rng).astype(np.int64)
                in_deg = in_dist.sample(m, rng).astype(np.int64)
                return (
                    np.concatenate(
                        (np.repeat(new_v, out_deg), np.repeat(dest_v, in_deg))
                    ),
                    np.concatenate(
                        (np.repeat(dest_v, out_deg), np.repeat(new_v, in_deg))
                    ),
                )

            new_edges = sampled.map_partitions(_grow, stage="pa:grow")
            n_vertices += n_new
            n_edges += new_edges.count()
            grown = edges.union(new_edges)
            if grown.n_partitions > 4 * ctx.max_real_partitions:
                grown = grown.repartition(ctx.max_real_partitions)
            edges.unpersist()
            edges = grown.persist()

        if n_edges < desired_size:
            raise RuntimeError(
                f"PGPBA did not reach {desired_size} edges within "
                f"{self.max_iterations} iterations (got {n_edges})"
            )
        structure_clock = ctx.metrics.simulated_seconds

        prop_cols: dict[str, np.ndarray] = {}
        if self.generate_properties:
            prop_cols = _decorate(
                ctx,
                edges,
                analysis,
                conditional=self.conditional_properties,
                seed=self.seed,
            )
        end_clock = ctx.metrics.simulated_seconds

        src, dst = edges.collect()[:2]
        edges.unpersist()
        graph = PropertyGraph(
            n_vertices=n_vertices,
            src=src,
            dst=dst,
            edge_properties=prop_cols,
        )
        return GenerationResult(
            graph=graph,
            algorithm="PGPBA",
            structure_seconds=structure_clock - start_clock,
            property_seconds=end_clock - structure_clock,
            peak_node_memory_bytes=ctx.metrics.peak_node_memory_bytes,
            n_nodes=ctx.n_nodes,
            iterations=iterations,
            extra={
                "fraction": self.fraction,
                "executor": ctx.executor.name,
                "local_workers": ctx.executor.workers,
            },
        )


def _decorate(
    ctx: ClusterContext,
    edges,
    analysis: SeedAnalysis,
    *,
    conditional: bool,
    seed: int,
) -> dict[str, np.ndarray]:
    """Shared Netflow-attribute decoration stage (Fig. 2 l.15-20 / Fig. 3
    l.13-18).  One partitioned pass samples all nine columns.

    Safe under every executor backend: ``model`` is frozen (immutable
    distributions, read-only CDF lookups) and each task derives a private
    RNG from ``(seed, 7919, partition_index)``, so concurrent partition
    tasks share no mutable state and the sampled columns are identical
    whichever backend runs them."""
    model = analysis.properties
    names = list(NETFLOW_EDGE_ATTRIBUTES)

    def _props(cols, pidx):
        n = cols[0].size
        rng = np.random.default_rng((seed, 7_919, pidx))
        sampled = model.sample_columns(n, rng, conditional=conditional)
        return tuple(sampled[name] for name in names)

    collected = edges.map_partitions(_props, stage="properties").collect()
    return {name: collected[j] for j, name in enumerate(names)}
