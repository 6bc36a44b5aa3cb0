"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import PropertyGraph
from repro.kronecker import InitiatorMatrix
from repro.kronecker.expand import descend_batch
from repro.pcap.format import PcapRecordHeader
from repro.pcap.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TcpFlags,
    build_ethernet_ipv4_packet,
    parse_ethernet_ipv4_packet,
)
from repro.stats import EmpiricalDistribution
from repro.stats.histogram import (
    aligned_euclidean_distance,
    kolmogorov_smirnov_distance,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

int_samples = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(1, 200),
    elements=st.integers(-1000, 1000),
)

positive_samples = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(1, 200),
    elements=st.integers(1, 500),
)


@st.composite
def edge_lists(draw):
    n_vertices = draw(st.integers(1, 50))
    n_edges = draw(st.integers(0, 200))
    src = draw(
        hnp.arrays(np.int64, n_edges, elements=st.integers(0, n_vertices - 1))
    )
    dst = draw(
        hnp.arrays(np.int64, n_edges, elements=st.integers(0, n_vertices - 1))
    )
    return n_vertices, src, dst


# ---------------------------------------------------------------------------
# EmpiricalDistribution invariants
# ---------------------------------------------------------------------------


class TestEmpiricalInvariants:
    @given(int_samples)
    def test_probabilities_sum_to_one(self, samples):
        d = EmpiricalDistribution.from_samples(samples)
        np.testing.assert_allclose(d.probabilities.sum(), 1.0, rtol=1e-9)

    @given(int_samples)
    def test_support_sorted_and_unique(self, samples):
        d = EmpiricalDistribution.from_samples(samples)
        assert np.all(np.diff(d.values) > 0)

    @given(int_samples, st.integers(0, 2**32 - 1))
    def test_samples_live_on_support(self, samples, seed):
        d = EmpiricalDistribution.from_samples(samples)
        out = d.sample(64, np.random.default_rng(seed))
        assert np.isin(out, d.values).all()

    @given(int_samples)
    def test_cdf_monotone(self, samples):
        d = EmpiricalDistribution.from_samples(samples)
        grid = np.linspace(samples.min() - 1, samples.max() + 1, 50)
        c = d.cdf(grid)
        assert np.all(np.diff(c) >= -1e-12)
        assert 0.0 <= c[0] and c[-1] <= 1.0 + 1e-12

    @given(int_samples, st.floats(0.0, 1.0))
    def test_quantile_cdf_inverse(self, samples, q):
        d = EmpiricalDistribution.from_samples(samples)
        v = d.quantile([q])[0]
        assert d.cdf([v])[0] >= q - 1e-12

    @given(int_samples)
    def test_mean_within_range(self, samples):
        d = EmpiricalDistribution.from_samples(samples)
        assert samples.min() <= d.mean() <= samples.max()


# ---------------------------------------------------------------------------
# distance metrics
# ---------------------------------------------------------------------------


class TestMetricInvariants:
    @given(positive_samples, positive_samples)
    def test_euclidean_symmetric_nonnegative(self, a, b):
        d_ab = aligned_euclidean_distance(a, b)
        d_ba = aligned_euclidean_distance(b, a)
        assert d_ab >= 0
        np.testing.assert_allclose(d_ab, d_ba, rtol=1e-9)

    @given(positive_samples)
    def test_euclidean_identity(self, a):
        assert aligned_euclidean_distance(a, a.copy()) == 0.0

    @given(positive_samples, positive_samples)
    def test_ks_bounded(self, a, b):
        d = kolmogorov_smirnov_distance(a, b)
        assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# PropertyGraph invariants
# ---------------------------------------------------------------------------


class TestGraphInvariants:
    @given(edge_lists())
    def test_degree_sums_equal_edge_count(self, data):
        n, src, dst = data
        g = PropertyGraph(n, src, dst)
        assert g.in_degrees().sum() == g.n_edges
        assert g.out_degrees().sum() == g.n_edges

    @given(edge_lists())
    def test_simple_projection_bounds(self, data):
        n, src, dst = data
        g = PropertyGraph(n, src, dst)
        s, d = g.distinct_edge_pairs()
        assert s.size <= g.n_edges
        mult = g.edge_multiplicities()
        assert mult.sum() == g.n_edges
        assert mult.size == s.size

    @given(edge_lists())
    def test_multiplicity_reconstruction(self, data):
        n, src, dst = data
        g = PropertyGraph(n, src, dst)
        s, d = g.distinct_edge_pairs()
        mult = g.edge_multiplicities()
        rebuilt = PropertyGraph(n, np.repeat(s, mult), np.repeat(d, mult))
        assert np.array_equal(
            np.sort(rebuilt.src * n + rebuilt.dst),
            np.sort(g.src * n + g.dst),
        )

    @given(edge_lists())
    def test_reverse_swaps_degrees(self, data):
        n, src, dst = data
        g = PropertyGraph(n, src, dst)
        r = g.reversed()
        assert np.array_equal(g.in_degrees(), r.out_degrees())

    @given(edge_lists())
    @settings(max_examples=25)
    def test_npz_roundtrip(self, data):
        import io

        n, src, dst = data
        g = PropertyGraph(n, src, dst)
        buf = io.BytesIO()
        g.save_npz(buf)
        buf.seek(0)
        back = PropertyGraph.load_npz(buf)
        assert back.n_vertices == n
        assert np.array_equal(back.src, src)


# ---------------------------------------------------------------------------
# packet codec roundtrip
# ---------------------------------------------------------------------------


class TestPacketInvariants:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
        st.integers(0, 65535),
        st.integers(0, 65535),
        st.integers(0, 1400),
        st.integers(0, 63),
    )
    @settings(max_examples=200)
    def test_build_parse_roundtrip(
        self, src_ip, dst_ip, proto, sport, dport, payload, flag_bits
    ):
        frame = build_ethernet_ipv4_packet(
            src_ip=src_ip, dst_ip=dst_ip, protocol=proto,
            src_port=sport, dst_port=dport,
            tcp_flags=TcpFlags(flag_bits), payload_len=payload,
        )
        p = parse_ethernet_ipv4_packet(frame)
        assert p is not None
        assert p.src_ip == src_ip
        assert p.dst_ip == dst_ip
        assert p.transport == proto
        assert p.src_port == sport
        assert p.dst_port == dport
        assert p.payload_len == payload
        if proto == PROTO_TCP:
            assert p.tcp_flags == TcpFlags(flag_bits)

    @given(st.floats(0, 2**31, allow_nan=False), st.integers(0, 65535))
    def test_record_header_timestamp(self, ts, length):
        r = PcapRecordHeader.from_timestamp(ts, incl_len=length)
        assert abs(r.timestamp - ts) < 1e-5
        assert 0 <= r.ts_usec < 1_000_000


# ---------------------------------------------------------------------------
# Kronecker descent invariants
# ---------------------------------------------------------------------------


class TestKroneckerInvariants:
    @given(
        st.integers(1, 10),
        st.integers(1, 500),
        st.integers(0, 2**32 - 1),
    )
    def test_descent_in_range(self, k, n_edges, seed):
        init = InitiatorMatrix.classic()
        src, dst = descend_batch(
            init, k, n_edges, np.random.default_rng(seed)
        )
        assert src.size == dst.size == n_edges
        limit = 2**k
        assert src.min(initial=0) >= 0 and src.max(initial=0) < limit
        assert dst.min(initial=0) >= 0 and dst.max(initial=0) < limit

    @given(
        hnp.arrays(
            np.float64, (2, 2), elements=st.floats(0.05, 1.0)
        ),
        st.integers(1, 8),
    )
    def test_expected_edges_consistent(self, theta, k):
        init = InitiatorMatrix(theta)
        np.testing.assert_allclose(
            init.expected_edges(k), theta.sum() ** k, rtol=1e-9
        )
