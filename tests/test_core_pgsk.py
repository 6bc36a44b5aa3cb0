"""Tests for the PGSK generator (Fig. 3)."""

import hashlib

import numpy as np
import pytest

from repro.core import PGSK
from repro.kronecker import InitiatorMatrix
from repro.netflow.attributes import NETFLOW_EDGE_ATTRIBUTES


@pytest.fixture
def small_ctx(open_context):
    return open_context(n_nodes=2, executor_cores=2, partition_multiplier=1)


@pytest.fixture(scope="module")
def fitted(seed_graph):
    """KronFit once for the whole module (it is the slow step)."""
    return PGSK(seed=0, kronfit_iterations=12, kronfit_swaps=40).fit_initiator(
        seed_graph
    )


class TestGeneration:
    def test_reaches_approximate_size(
        self, seed_graph, seed_analysis, small_ctx, fitted
    ):
        target = 4 * seed_graph.n_edges
        res = PGSK(seed=1).generate(
            seed_graph, seed_analysis, target,
            context=small_ctx, initiator=fitted,
        )
        # PGSK sizing is coarse (exponential levels x stochastic
        # duplication); the paper itself only matches sizes approximately.
        assert res.graph.n_edges == pytest.approx(target, rel=0.5)
        assert res.algorithm == "PGSK"

    def test_can_generate_smaller_than_seed(
        self, seed_graph, seed_analysis, small_ctx, fitted
    ):
        """The paper: "the PGSK can generate graphs which are smaller than
        the seed graph" (Fig. 6 discussion)."""
        res = PGSK(seed=2).generate(
            seed_graph, seed_analysis, 100,
            context=small_ctx, initiator=fitted,
        )
        assert res.graph.n_edges < seed_graph.n_edges

    def test_vertex_count_power_of_initiator(
        self, seed_graph, seed_analysis, small_ctx, fitted
    ):
        res = PGSK(seed=3).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx, initiator=fitted,
        )
        k = res.extra["k"]
        assert res.graph.n_vertices == 2 ** k

    def test_deduplicate_limits_parallel_edges(
        self, seed_graph, seed_analysis, fitted, open_context
    ):
        """With dedup, multiplicities come only from the duplication stage;
        without it, descent collisions add extra parallel edges."""
        target = 2 * seed_graph.n_edges

        def max_mult(dedup):
            ctx = open_context(
                n_nodes=1, executor_cores=2, partition_multiplier=1
            )
            res = PGSK(
                seed=4, deduplicate=dedup, generate_properties=False
            ).generate(
                seed_graph, seed_analysis, target,
                context=ctx, initiator=fitted,
            )
            return res.graph.edge_multiplicities().max()

        assert max_mult(False) >= max_mult(True)

    def test_duplication_distribution_choice(
        self, seed_graph, seed_analysis, small_ctx, fitted, open_context
    ):
        res_mult = PGSK(
            seed=5, duplication="multiplicity", generate_properties=False
        ).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx, initiator=fitted,
        )
        ctx2 = open_context(
            n_nodes=2, executor_cores=2, partition_multiplier=1
        )
        res_deg = PGSK(
            seed=5, duplication="out_degree", generate_properties=False
        ).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=ctx2, initiator=fitted,
        )
        # Out-degree duplication uses a heavier distribution than edge
        # multiplicity, so its multigraph has (weakly) larger multiplicity.
        assert (
            res_deg.graph.edge_multiplicities().mean()
            >= res_mult.graph.edge_multiplicities().mean()
        )

    def test_bad_duplication_rejected(self):
        with pytest.raises(ValueError):
            PGSK(duplication="bogus")

    def test_storage_level_field_is_gone(self):
        with pytest.raises(TypeError):
            PGSK(storage_level="disk_only")

    def test_bad_size_rejected(self, seed_graph, seed_analysis):
        with pytest.raises(ValueError):
            PGSK().generate(seed_graph, seed_analysis, 0)


class TestProperties:
    def test_all_nine_attributes(self, seed_graph, seed_analysis,
                                 small_ctx, fitted):
        res = PGSK(seed=6).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx, initiator=fitted,
        )
        for name in NETFLOW_EDGE_ATTRIBUTES:
            assert name in res.graph.edge_properties
            assert len(res.graph.edge_properties[name]) == res.graph.n_edges

    def test_property_support_from_seed(
        self, seed_graph, seed_analysis, small_ctx, fitted
    ):
        res = PGSK(seed=7).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx, initiator=fitted,
        )
        seed_states = set(
            np.unique(seed_graph.edge_properties["STATE"]).tolist()
        )
        out_states = set(
            np.unique(res.graph.edge_properties["STATE"]).tolist()
        )
        assert out_states <= seed_states


class TestDeterminism:
    def test_deterministic_given_seed(
        self, seed_graph, seed_analysis, fitted, open_context
    ):
        def run():
            ctx = open_context(
                n_nodes=2, executor_cores=2, partition_multiplier=1
            )
            return PGSK(seed=42).generate(
                seed_graph, seed_analysis, 2 * seed_graph.n_edges,
                context=ctx, initiator=fitted,
            )

        a, b = run(), run()
        assert np.array_equal(a.graph.src, b.graph.src)
        assert np.array_equal(
            a.graph.edge_properties["DURATION"],
            b.graph.edge_properties["DURATION"],
        )

    def test_fit_initiator_plausible(self, fitted):
        assert fitted.size == 2
        assert 1.0 < fitted.edge_weight_sum < 4.0
        # Scale-free fits are core-periphery: theta_00 dominates.
        assert fitted.theta[0, 0] == fitted.theta.max()

    def test_metrics_recorded(self, seed_graph, seed_analysis, small_ctx,
                              fitted):
        res = PGSK(seed=8).generate(
            seed_graph, seed_analysis, 2 * seed_graph.n_edges,
            context=small_ctx, initiator=fitted,
        )
        assert res.structure_seconds > 0
        assert res.property_seconds > 0
        assert res.extra["rounds"] >= 1
        assert res.extra["distinct_target"] >= 1


# sha256 over src, dst and every edge column in sorted name order.
GOLDEN_DIGEST = (
    "ec846a8964bbf0221fd71c22b78f4e1f9b494ea91ea9866cbe7193f20e799df2"
)


@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_golden_digest(backend, seed_graph, seed_analysis, open_context):
    """Pins the generator's output bytes, KronFit included: any change
    to a random draw, its order or the edge order shows here."""
    ctx = open_context(n_nodes=4, executor=backend)
    g = PGSK(seed=3).generate(
        seed_graph, seed_analysis, 20_000, context=ctx
    ).graph
    h = hashlib.sha256()
    for col in [g.src, g.dst] + [
        g.edge_properties[k] for k in sorted(g.edge_properties)
    ]:
        h.update(np.ascontiguousarray(col).tobytes())
    assert g.n_edges == 19_810
    assert h.hexdigest() == GOLDEN_DIGEST
