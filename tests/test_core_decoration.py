"""The decoration stage draws whole seed flows: what that must keep.

Both generators decorate every synthetic edge with the nine Netflow
attributes of one seed row (``PropertyModel.sample_columns``).  At 10^5
edges on a seed sized like the benchmark's (10^4 packets of a 12 s trace
at 60 sessions/s), these tests pin what follows from that: no attribute
combination the seed never had, the seed's couplings, the seed's
per-attribute laws, the ablation's per-attribute laws, and the same
columns on every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PGPBA, PGSK, build_seed
from repro.engine import ClusterContext
from repro.netflow.attributes import NETFLOW_EDGE_ATTRIBUTES
from repro.stats.histogram import kolmogorov_smirnov_distance
from repro.trace.synthesizer import TraceSynthesizer

EDGES = 100_000
COUPLINGS = (("IN_BYTES", "IN_PKTS"), ("OUT_BYTES", "OUT_PKTS"),
             ("IN_BYTES", "DURATION"))


@pytest.fixture(scope="module")
def seed():
    frames = TraceSynthesizer(session_rate=60.0, seed=11).generate(12.0)
    return build_seed(frames[:10_000])


@pytest.fixture(scope="module")
def generate(seed):
    """``generate(algorithm, executor=None, conditional=True)``, each
    graph made once per module.  ``executor=None`` takes the ambient
    backend (``REPRO_EXECUTOR``), so the pool CI job decorates on its
    pooled workers."""
    graphs = {}

    def generate_(algorithm, executor=None, conditional=True):
        key = (algorithm, executor, conditional)
        if key not in graphs:
            generator = (
                PGPBA(fraction=2.0, seed=11,
                      conditional_properties=conditional)
                if algorithm == "pgpba"
                else PGSK(seed=11, conditional_properties=conditional)
            )
            ctx = ClusterContext(n_nodes=4, executor=executor)
            try:
                graphs[key] = generator.generate(
                    seed.graph, seed.analysis, EDGES, context=ctx
                ).graph
            finally:
                ctx.close()
        return graphs[key]

    return generate_


@pytest.fixture(params=["pgpba", "pgsk"])
def synthetic(request, generate):
    return generate(request.param)


def _pairs(graph, a, b) -> set:
    cols = graph.edge_properties
    return set(zip(cols[a].tolist(), cols[b].tolist()))


def _corr(graph, a, b) -> float:
    x = np.asarray(graph.edge_properties[a], dtype=np.float64)
    y = np.asarray(graph.edge_properties[b], dtype=np.float64)
    return float(np.corrcoef(x, y)[0, 1])


@pytest.mark.parametrize("other", ["STATE", "DEST_PORT"])
def test_no_attribute_pair_the_seed_never_had(synthetic, seed, other):
    assert _pairs(synthetic, "PROTOCOL", other) <= _pairs(
        seed.graph, "PROTOCOL", other
    )


@pytest.mark.parametrize("a, b", COUPLINGS)
def test_couplings_are_the_seed_s(synthetic, seed, a, b):
    assert _corr(synthetic, a, b) == pytest.approx(
        _corr(seed.graph, a, b), abs=0.05
    )


@pytest.mark.parametrize("name", NETFLOW_EDGE_ATTRIBUTES)
def test_each_attribute_has_the_seed_law(synthetic, seed, name):
    assert kolmogorov_smirnov_distance(
        synthetic.edge_properties[name], seed.graph.edge_properties[name]
    ) <= 0.01


class TestMarginalAblation:
    """``conditional=False`` draws one row per column: the seed's laws
    stay (the couplings it loses are checked in
    ``test_core_pipeline.TestPropertyModel``)."""

    @pytest.mark.parametrize("name", NETFLOW_EDGE_ATTRIBUTES)
    def test_each_attribute_keeps_the_seed_law(self, generate, seed, name):
        marginal = generate("pgpba", conditional=False)
        assert kolmogorov_smirnov_distance(
            marginal.edge_properties[name], seed.graph.edge_properties[name]
        ) <= 0.01


@pytest.mark.parametrize("algorithm", ["pgpba", "pgsk"])
def test_pool_decoration_equals_serial(generate, algorithm):
    serial = generate(algorithm, executor="serial")
    pool = generate(algorithm, executor="pool")
    for name in NETFLOW_EDGE_ATTRIBUTES:
        a, b = serial.edge_properties[name], pool.edge_properties[name]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
