"""Tests for the PGPBA generator (Fig. 2)."""

import hashlib

import numpy as np
import pytest

from repro.core import PGPBA
from repro.netflow.attributes import NETFLOW_EDGE_ATTRIBUTES


@pytest.fixture
def small_ctx(open_context):
    return open_context(n_nodes=2, executor_cores=2, partition_multiplier=1)


class TestGeneration:
    def test_reaches_desired_size(self, seed_graph, seed_analysis, small_ctx):
        res = PGPBA(fraction=0.2, seed=1).generate(
            seed_graph, seed_analysis, 5 * seed_graph.n_edges,
            context=small_ctx,
        )
        assert res.graph.n_edges >= 5 * seed_graph.n_edges
        assert res.algorithm == "PGPBA"

    def test_seed_edges_preserved(self, seed_graph, seed_analysis, small_ctx):
        """The synthetic graph contains the seed as a prefix (growth only)."""
        res = PGPBA(fraction=0.5, seed=2).generate(
            seed_graph, seed_analysis, 3 * seed_graph.n_edges,
            context=small_ctx,
        )
        n = seed_graph.n_edges
        assert np.array_equal(res.graph.src[:n], seed_graph.src)
        assert np.array_equal(res.graph.dst[:n], seed_graph.dst)

    def test_vertices_grow(self, seed_graph, seed_analysis, small_ctx):
        res = PGPBA(fraction=0.3, seed=3).generate(
            seed_graph, seed_analysis, 4 * seed_graph.n_edges,
            context=small_ctx,
        )
        assert res.graph.n_vertices > seed_graph.n_vertices

    def test_new_vertices_touch_seed_region(
        self, seed_graph, seed_analysis, small_ctx
    ):
        """Every added edge pairs a new vertex with an existing one (the
        attachment target is an endpoint of a sampled edge).  Uses the
        literal unclamped algorithm so growth completes in one iteration
        and "existing" means "seed"."""
        res = PGPBA(
            fraction=1.0, seed=4, generate_properties=False,
            clamp_final_iteration=False,
        ).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx,
        )
        n = seed_graph.n_edges
        new_src = res.graph.src[n:]
        new_dst = res.graph.dst[n:]
        old = seed_graph.n_vertices
        touches_both = (
            ((new_src >= old) & (new_dst < old))
            | ((new_src < old) & (new_dst >= old))
        )
        assert touches_both.all()

    def test_cannot_shrink(self, seed_graph, seed_analysis):
        with pytest.raises(ValueError, match="only grows"):
            PGPBA().generate(seed_graph, seed_analysis, 1)

    def test_empty_seed_rejected(self, seed_analysis):
        from repro.graph import PropertyGraph

        with pytest.raises(ValueError, match="non-empty"):
            PGPBA().generate(PropertyGraph.empty(), seed_analysis, 100)

    def test_max_iterations_guard(self, seed_graph, seed_analysis, small_ctx):
        with pytest.raises(RuntimeError, match="did not reach"):
            PGPBA(fraction=1e-9, max_iterations=1).generate(
                seed_graph, seed_analysis, 100 * seed_graph.n_edges,
                context=small_ctx,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            PGPBA(fraction=0.0)
        with pytest.raises(ValueError):
            PGPBA(max_iterations=0)

    @pytest.mark.parametrize(
        "kwargs", [{"storage_level": "disk_only"}, {"checkpoint_interval": 1}]
    )
    def test_out_of_core_fields_are_gone(self, kwargs):
        with pytest.raises(TypeError):
            PGPBA(**kwargs)


class TestProperties:
    def test_all_nine_attributes_generated(
        self, seed_graph, seed_analysis, small_ctx
    ):
        res = PGPBA(fraction=0.5, seed=5).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx,
        )
        for name in NETFLOW_EDGE_ATTRIBUTES:
            assert name in res.graph.edge_properties
            assert len(res.graph.edge_properties[name]) == res.graph.n_edges

    def test_property_values_from_seed_support(
        self, seed_graph, seed_analysis, small_ctx
    ):
        res = PGPBA(fraction=0.5, seed=6).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx,
        )
        seed_protocols = set(
            np.unique(seed_graph.edge_properties["PROTOCOL"]).tolist()
        )
        out_protocols = set(
            np.unique(res.graph.edge_properties["PROTOCOL"]).tolist()
        )
        assert out_protocols <= seed_protocols

    def test_skip_properties(self, seed_graph, seed_analysis, small_ctx):
        res = PGPBA(
            fraction=0.5, seed=7, generate_properties=False
        ).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx,
        )
        assert res.graph.edge_properties == {}
        assert res.property_seconds == 0.0

    def test_property_overhead_positive(
        self, seed_graph, seed_analysis, small_ctx
    ):
        res = PGPBA(fraction=0.5, seed=8).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx,
        )
        assert res.property_seconds > 0
        assert res.property_overhead > 0


class TestDeterminismAndScaling:
    def test_deterministic_given_seed(
        self, seed_graph, seed_analysis, open_context
    ):
        def run():
            ctx = open_context(
                n_nodes=2, executor_cores=2, partition_multiplier=1
            )
            return PGPBA(fraction=0.4, seed=42).generate(
                seed_graph, seed_analysis, 2 * seed_graph.n_edges,
                context=ctx,
            )

        a, b = run(), run()
        assert np.array_equal(a.graph.src, b.graph.src)
        assert np.array_equal(a.graph.dst, b.graph.dst)
        assert np.array_equal(
            a.graph.edge_properties["OUT_BYTES"],
            b.graph.edge_properties["OUT_BYTES"],
        )

    def test_fraction_controls_iterations(
        self, seed_graph, seed_analysis, open_context
    ):
        target = 6 * seed_graph.n_edges

        def iters(fraction):
            ctx = open_context(
                n_nodes=1, executor_cores=2, partition_multiplier=1
            )
            return PGPBA(fraction=fraction, seed=1).generate(
                seed_graph, seed_analysis, target, context=ctx
            ).iterations

        assert iters(0.9) < iters(0.1)

    def test_degree_distribution_heavy_tailed(
        self, seed_graph, seed_analysis, small_ctx
    ):
        """Preferential attachment must produce hubs: the max degree grows
        far beyond the mean."""
        res = PGPBA(fraction=0.3, seed=9, generate_properties=False).generate(
            seed_graph, seed_analysis, 10 * seed_graph.n_edges,
            context=small_ctx,
        )
        deg = res.graph.degrees()
        assert deg.max() > 10 * deg.mean()

    def test_simulated_time_recorded(
        self, seed_graph, seed_analysis, small_ctx
    ):
        res = PGPBA(fraction=0.5, seed=10).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx,
        )
        assert res.structure_seconds > 0
        assert res.total_seconds >= res.structure_seconds
        assert res.peak_node_memory_bytes > 0
        assert res.edges_per_second > 0


# sha256 over src, dst and every edge column in sorted name order.
GOLDEN_DIGEST = (
    "7ab896eba28dec5cf80177876273b8589684b18f1606cca5624bdfabe1f99c77"
)


@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_golden_digest(backend, seed_graph, seed_analysis, open_context):
    """Pins the generator's output bytes: any change to a random draw,
    its order or the edge order shows here."""
    ctx = open_context(n_nodes=4, executor=backend)
    g = PGPBA(fraction=2.0, seed=3).generate(
        seed_graph, seed_analysis, 20_000, context=ctx
    ).graph
    h = hashlib.sha256()
    for col in [g.src, g.dst] + [
        g.edge_properties[k] for k in sorted(g.edge_properties)
    ]:
        h.update(np.ascontiguousarray(col).tobytes())
    assert g.n_edges == 20_000
    assert h.hexdigest() == GOLDEN_DIGEST
