"""Property-Graph Stochastic Kronecker (PGSK) — Fig. 3 of the paper.

Pipeline:

1. Collapse the seed multigraph to a simple graph ``Gp`` (lines 1-5, the
   hashed de-duplication; :meth:`PropertyGraph.distinct_edge_pairs`).
2. ``KronFit`` a 2x2 stochastic initiator to ``Gp`` (line 6).
3. Expand by stochastic recursive descent to the desired size (line 7),
   executed as Map tasks that independently place edges and a
   ``distinct()`` reduce that drops probabilistic collisions, exactly as
   the §III-B Spark implementation describes.
4. Re-expand to a multigraph by duplicating every edge with a sampled
   multiplicity (lines 9-12).
5. Decorate all edges with Netflow attributes (lines 13-18).

Because the expected edge count of a depth-k descent is ``(sum Theta)^k``
and the classic fit has ``sum Theta ~ 2``, PGSK's output size roughly
doubles per extra level — the paper's stated exponential growth rate, and
the reason PGSK can also produce graphs *smaller* than the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.generator import GenerationResult, SeedAnalysis
from repro.core.pgpba import _decorate
from repro.engine.context import ClusterContext
from repro.graph.property_graph import PropertyGraph
from repro.kronecker.expand import descend_batch
from repro.kronecker.initiator import InitiatorMatrix
from repro.kronecker.kronfit import kronfit

__all__ = ["PGSK"]


@dataclass
class PGSK:
    """Configured PGSK generator.

    Parameters
    ----------
    duplication:
        Distribution used for the multigraph re-expansion (Fig. 3 line 10):
        ``"multiplicity"`` samples the seed's parallel-edge multiplicity
        (the semantically faithful choice); ``"out_degree"`` samples the
        seed out-degree distribution, matching the figure's literal label.
        DESIGN.md lists this as an ablation.
    deduplicate:
        Run the ``distinct()`` collision-removal loop (the paper's
        behaviour).  Off, collisions stay as parallel edges.
    kronfit_iterations, kronfit_swaps:
        Effort knobs for the fitting stage.
    """

    duplication: str = "multiplicity"
    conditional_properties: bool = True
    generate_properties: bool = True
    deduplicate: bool = True
    kronfit_iterations: int = 30
    kronfit_swaps: int = 100
    max_rounds: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duplication not in ("multiplicity", "out_degree"):
            raise ValueError(
                "duplication must be 'multiplicity' or 'out_degree'"
            )

    # ------------------------------------------------------------------
    def fit_initiator(self, seed_graph: PropertyGraph) -> InitiatorMatrix:
        """Lines 1-6: simple-graph projection + KronFit."""
        s, d = seed_graph.distinct_edge_pairs()
        result = kronfit(
            s,
            d,
            seed_graph.n_vertices,
            n_iterations=self.kronfit_iterations,
            swaps_per_iteration=self.kronfit_swaps,
            rng=np.random.default_rng(self.seed),
        )
        return result.initiator

    def generate(
        self,
        seed_graph: PropertyGraph,
        analysis: SeedAnalysis,
        desired_size: int,
        *,
        context: ClusterContext | None = None,
        initiator: InitiatorMatrix | None = None,
    ) -> GenerationResult:
        """Produce a synthetic property graph of ~``desired_size`` edges.

        ``desired_size`` counts *final multigraph* edges; the distinct-edge
        target is scaled down by the mean duplication factor.  Pass a
        pre-fitted ``initiator`` to skip KronFit (the benchmarks do, so the
        timed region matches the paper's generation-only measurements).
        """
        if desired_size < 1:
            raise ValueError("desired_size must be >= 1")
        if context is None:
            with ClusterContext(n_nodes=1) as ctx:
                return self.generate(
                    seed_graph, analysis, desired_size,
                    context=ctx, initiator=initiator,
                )
        ctx = context

        if initiator is None:
            initiator = self.fit_initiator(seed_graph)

        dup_dist = (
            analysis.multiplicity
            if self.duplication == "multiplicity"
            else analysis.out_degree
        )
        mean_dup = max(dup_dist.mean(), 1.0)
        distinct_target = max(1, int(round(desired_size / mean_dup)))
        k = initiator.levels_for_edges(distinct_target)
        n_vertices = initiator.n_vertices(k)

        start_clock = ctx.metrics.simulated_seconds

        # --- expansion: Map tasks descend independently, distinct() drops
        # collisions, loop until the target number of distinct edges.
        edges = None
        have = 0
        rounds = 0
        remaining = distinct_target
        while have < distinct_target and rounds < self.max_rounds:
            rounds += 1
            batch_size = max(16, int(np.ceil(remaining * 1.05)))
            rng_tag = (self.seed, k, rounds)

            def _descend(count, pidx, _tag=rng_tag):
                rng = np.random.default_rng((*_tag, pidx))
                return descend_batch(initiator, k, count, rng)

            batch = ctx.generate(batch_size, _descend, stage="kron:descend")
            merged = batch if edges is None else edges.union(batch)
            if self.deduplicate:
                merged = merged.distinct(
                    key_columns=(0, 1), stage="kron:distinct"
                )
            if edges is not None:
                edges.unpersist()
            # Pin the loop-carried edge set: the next round's union (and
            # the duplication pass after the loop) read the cached
            # partitions instead of replaying the descent lineage, and
            # the driver-side memory meter sees what stays resident.
            edges = merged.persist()
            have = edges.count()
            remaining = distinct_target - have
        if edges is None:
            raise RuntimeError("PGSK expansion produced no edges")
        if self.deduplicate and have > distinct_target:
            surplus_rng = np.random.default_rng((self.seed, 13))
            s, d = edges.collect()[:2]
            keep = surplus_rng.choice(
                s.size, size=distinct_target, replace=False
            )
            keep.sort()
            edges.unpersist()
            edges = ctx.parallelize([s[keep], d[keep]])

        # --- duplication: lines 9-12, one partitioned pass.
        dup_seed = (self.seed, 17)

        def _duplicate(cols, pidx):
            s, d = cols
            rng = np.random.default_rng((*dup_seed, pidx))
            n = dup_dist.sample(s.size, rng).astype(np.int64)
            n = np.maximum(n, 1)
            return np.repeat(s, n), np.repeat(d, n)

        distinct_edges = edges
        # Persist the multigraph: both the property-decoration pass and
        # the final collect read it, and without the pin the second
        # reader would re-run the duplication stage.  Duplication
        # multiplies every distinct edge by ~mean_dup parallel copies;
        # hint that expansion so the coalescer weighs these chains by
        # their output, not the smaller distinct-edge anchor.
        dup_hint = (
            distinct_edges.partition_bytes() * mean_dup
        ).astype(np.int64)
        edges = distinct_edges.map_partitions(
            _duplicate, stage="kron:duplicate", bytes_hint=dup_hint
        ).persist()
        # Force now so the duplication stage is charged to the structure
        # clock (not the property clock) exactly as on the eager path.
        edges.count()
        distinct_edges.unpersist()

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
            algorithm="PGSK",
            structure_seconds=structure_clock - start_clock,
            property_seconds=end_clock - structure_clock,
            peak_node_memory_bytes=ctx.metrics.peak_node_memory_bytes,
            n_nodes=ctx.n_nodes,
            iterations=k,
            extra={
                "k": k,
                "rounds": rounds,
                "initiator": initiator.theta.tolist(),
                "distinct_target": distinct_target,
                "executor": ctx.executor.name,
                "local_workers": ctx.executor.workers,
            },
        )
