"""Tests for the Fig. 1 preliminary pipeline and seed analysis."""

import numpy as np
import pytest

from repro.core import SeedAnalysis, analyze_seed, build_seed
from repro.core.generator import PropertyModel
from repro.graph import PropertyGraph
from repro.netflow.attributes import (
    CONDITIONING_ATTRIBUTE,
    NETFLOW_EDGE_ATTRIBUTES,
)
from repro.pcap.writer import write_pcap
from repro.trace.synthesizer import synthesize_seed_packets


class TestBuildSeed:
    def test_from_frames(self, seed_bundle):
        assert len(seed_bundle.flow_table) > 50
        assert seed_bundle.graph.n_edges == len(seed_bundle.flow_table)
        assert seed_bundle.analysis.n_edges == seed_bundle.graph.n_edges

    def test_from_pcap_file_equivalent(self, tmp_path, seed_packets,
                                       seed_bundle):
        path = tmp_path / "seed.pcap"
        write_pcap(path, seed_packets)
        from_file = build_seed(path)
        assert len(from_file.flow_table) == len(seed_bundle.flow_table)
        assert from_file.graph.n_vertices == seed_bundle.graph.n_vertices

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="no flows"):
            build_seed([])

    def test_graph_has_all_nine_attributes(self, seed_graph):
        for name in NETFLOW_EDGE_ATTRIBUTES:
            assert name in seed_graph.edge_properties

    def test_vertices_carry_host_ids(self, seed_bundle):
        ids = seed_bundle.graph.vertex_properties["ID"]
        assert np.array_equal(ids, seed_bundle.flow_table.hosts())


class TestSeedAnalysis:
    def test_degree_distributions_exclude_zero(self, seed_analysis):
        assert 0 not in seed_analysis.in_degree.values
        assert 0 not in seed_analysis.out_degree.values

    def test_multiplicity_at_least_one(self, seed_analysis):
        assert seed_analysis.multiplicity.values.min() >= 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            analyze_seed(PropertyGraph.empty())

    def test_analyze_matches_from_graph(self, seed_graph):
        a = analyze_seed(seed_graph)
        b = SeedAnalysis.from_graph(seed_graph)
        assert np.array_equal(a.in_degree.values, b.in_degree.values)


def _columns(n):
    """Nine attribute columns whose row ``i`` is recognisable: every
    value is a multiple of ``i``."""
    i = np.arange(n)
    return {
        name: i * (k + 1) for k, name in enumerate(NETFLOW_EDGE_ATTRIBUTES)
    }


class TestPropertyModel:
    def test_fit_requires_all_attributes(self):
        with pytest.raises(ValueError, match="lacks"):
            PropertyModel.fit({"PROTOCOL": np.array([6])})

    def test_mismatched_lengths_rejected(self):
        cols = _columns(5)
        cols["STATE"] = cols["STATE"][:3]
        with pytest.raises(ValueError, match="differ in length"):
            PropertyModel.fit(cols)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError, match="zero seed flows"):
            PropertyModel.fit(_columns(0))

    def test_columns_are_read_only_copies(self):
        cols = _columns(5)
        model = PropertyModel.fit(cols)
        cols["IN_BYTES"][0] = 99
        assert model.columns["IN_BYTES"][0] == 0
        with pytest.raises(ValueError):
            model.columns["IN_BYTES"][0] = 99

    def test_zero_edges(self, seed_analysis, rng):
        cols = seed_analysis.properties.sample_columns(0, rng)
        assert all(v.size == 0 for v in cols.values())

    def test_deterministic_given_seed(self, seed_analysis):
        model = seed_analysis.properties
        a = model.sample_columns(100, np.random.default_rng(4))
        b = model.sample_columns(100, np.random.default_rng(4))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_rows_are_seed_flows(self, rng):
        """Every edge's nine values are one seed row."""
        cols = PropertyModel.fit(_columns(50)).sample_columns(400, rng)
        rows = cols["PROTOCOL"]
        for k, name in enumerate(NETFLOW_EDGE_ATTRIBUTES):
            assert np.array_equal(cols[name], rows * (k + 1))

    def test_sample_columns_shapes(self, seed_analysis, rng):
        cols = seed_analysis.properties.sample_columns(100, rng)
        assert set(cols) == set(NETFLOW_EDGE_ATTRIBUTES)
        assert all(len(v) == 100 for v in cols.values())

    def test_samples_stay_on_seed_support(self, seed_analysis, rng):
        model = seed_analysis.properties
        cols = model.sample_columns(500, rng)
        for name in NETFLOW_EDGE_ATTRIBUTES:
            seed_support = set(np.unique(model.columns[name]).tolist())
            assert set(np.unique(cols[name]).tolist()) <= seed_support

    def test_conditional_coupling_preserved(self, seed_analysis, rng):
        """Big IN_BYTES draws should come with big IN_PKTS draws."""
        model = seed_analysis.properties
        cols = model.sample_columns(4000, rng, conditional=True)
        anchor = cols[CONDITIONING_ATTRIBUTE].astype(np.float64)
        pkts = cols["IN_PKTS"].astype(np.float64)
        if np.std(anchor) > 0 and np.std(pkts) > 0:
            # Pearson on heavy-tailed byte counts is noisy; the point is
            # that a clearly positive coupling survives sampling.
            corr = np.corrcoef(anchor, pkts)[0, 1]
            assert corr > 0.15

    def test_unconditional_decouples(self, seed_analysis, rng):
        """Row draws keep the three couplings the attribute ablation
        reads; per-column draws lose each by the ablation's 0.1 margin
        (0.2 for IN_BYTES~IN_PKTS)."""
        model = seed_analysis.properties
        cond = model.sample_columns(4000, rng, conditional=True)
        unc = model.sample_columns(4000, rng, conditional=False)

        def corr(cols, a, b):
            return np.corrcoef(
                cols[a].astype(np.float64), cols[b].astype(np.float64)
            )[0, 1]

        for a, b, margin in (
            (CONDITIONING_ATTRIBUTE, "IN_PKTS", 0.2),
            ("OUT_BYTES", "OUT_PKTS", 0.1),
            (CONDITIONING_ATTRIBUTE, "DURATION", 0.1),
        ):
            assert corr(cond, a, b) > corr(unc, a, b) + margin, (a, b)

    def test_protocol_mix_preserved(self, seed_analysis, rng):
        model = seed_analysis.properties
        cols = model.sample_columns(5000, rng)
        seed_tcp = np.mean(model.columns["PROTOCOL"] == 6)
        sampled_tcp = np.mean(cols["PROTOCOL"] == 6)
        assert sampled_tcp == pytest.approx(seed_tcp, abs=0.05)
