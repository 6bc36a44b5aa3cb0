"""Unit tests for flow assembly (packets -> Netflow records).

Every case runs twice: the ``Test*`` classes through ``assemble_flows``
(the columnar kernel), their ``*Incremental`` subclasses through the
oracle :class:`~tests.flow_oracle.FlowAssembler` fed packet by packet.
"""

import pytest

from repro.netflow import Protocol, TcpState, assemble_flows
from repro.pcap.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TcpFlags,
    build_ethernet_ipv4_packet,
    parse_ethernet_ipv4_packet,
)
from tests.flow_oracle import FlowAssembler

A, B = 0x0A000001, 0x0A000002


def pkt(t, src, dst, sport, dport, proto=PROTO_TCP, flags=TcpFlags(0), size=0):
    raw = build_ethernet_ipv4_packet(
        src_ip=src, dst_ip=dst, protocol=proto,
        src_port=sport, dst_port=dport, tcp_flags=flags, payload_len=size,
    )
    return parse_ethernet_ipv4_packet(raw, timestamp=t)


def tcp_session(t0=0.0, size_out=100, size_in=500):
    """A full handshake + one exchange + orderly teardown."""
    f = TcpFlags
    return [
        pkt(t0 + 0.00, A, B, 1000, 80, flags=f.SYN),
        pkt(t0 + 0.01, B, A, 80, 1000, flags=f.SYN | f.ACK),
        pkt(t0 + 0.02, A, B, 1000, 80, flags=f.ACK),
        pkt(t0 + 0.03, A, B, 1000, 80, flags=f.PSH | f.ACK, size=size_out),
        pkt(t0 + 0.04, B, A, 80, 1000, flags=f.PSH | f.ACK, size=size_in),
        pkt(t0 + 0.05, A, B, 1000, 80, flags=f.FIN | f.ACK),
        pkt(t0 + 0.06, B, A, 80, 1000, flags=f.FIN | f.ACK),
        pkt(t0 + 0.07, A, B, 1000, 80, flags=f.ACK),
    ]


def kernel(packets, **timeouts):
    return list(assemble_flows(packets, **timeouts))


def incremental(packets, **timeouts):
    asm = FlowAssembler(**timeouts)
    flows = [flow for p in packets for flow in asm.process(p)]
    return flows + asm.flush()


class TestTcpStates:
    assemble = staticmethod(kernel)

    def test_normal_session_sf(self):
        flows = self.assemble(tcp_session())
        assert len(flows) == 1
        r = flows[0]
        assert r.state is TcpState.SF
        assert r.protocol is Protocol.TCP
        assert (r.src_ip, r.dst_ip) == (A, B)

    def test_directional_counters(self):
        r = self.assemble(tcp_session())[0]
        assert r.out_bytes == 100
        assert r.in_bytes == 500
        assert r.out_pkts == 5
        assert r.in_pkts == 3

    def test_duration_ms(self):
        r = self.assemble(tcp_session())[0]
        assert r.duration_ms == pytest.approx(70.0, abs=1.0)

    def test_unanswered_syn_is_s0(self):
        flows = self.assemble([pkt(0, A, B, 1, 80, flags=TcpFlags.SYN)])
        assert flows[0].state is TcpState.S0

    def test_rejected_syn_is_rej(self):
        f = TcpFlags
        flows = self.assemble(
            [
                pkt(0.0, A, B, 1, 80, flags=f.SYN),
                pkt(0.1, B, A, 80, 1, flags=f.RST | f.ACK),
            ]
        )
        assert flows[0].state is TcpState.REJ

    def test_established_never_closed_is_s1(self):
        f = TcpFlags
        flows = self.assemble(
            [
                pkt(0.0, A, B, 1, 80, flags=f.SYN),
                pkt(0.1, B, A, 80, 1, flags=f.SYN | f.ACK),
                pkt(0.2, A, B, 1, 80, flags=f.ACK),
            ]
        )
        assert flows[0].state is TcpState.S1

    def test_originator_rst_is_rsto(self):
        f = TcpFlags
        flows = self.assemble(
            [
                pkt(0.0, A, B, 1, 80, flags=f.SYN),
                pkt(0.1, B, A, 80, 1, flags=f.SYN | f.ACK),
                pkt(0.2, A, B, 1, 80, flags=f.ACK),
                pkt(0.3, A, B, 1, 80, flags=f.RST),
            ]
        )
        assert flows[0].state is TcpState.RSTO

    def test_responder_rst_is_rstr(self):
        f = TcpFlags
        flows = self.assemble(
            [
                pkt(0.0, A, B, 1, 80, flags=f.SYN),
                pkt(0.1, B, A, 80, 1, flags=f.SYN | f.ACK),
                pkt(0.2, A, B, 1, 80, flags=f.ACK),
                pkt(0.3, B, A, 80, 1, flags=f.RST),
            ]
        )
        assert flows[0].state is TcpState.RSTR

    def test_syn_then_fin_no_reply_is_sh(self):
        f = TcpFlags
        flows = self.assemble(
            [
                pkt(0.0, A, B, 1, 80, flags=f.SYN),
                pkt(0.1, A, B, 1, 80, flags=f.FIN),
            ]
        )
        assert flows[0].state is TcpState.SH

    def test_midstream_is_oth(self):
        flows = self.assemble(
            [pkt(0.0, A, B, 1, 80, flags=TcpFlags.ACK, size=10)]
        )
        assert flows[0].state is TcpState.OTH

    def test_syn_ack_counts(self):
        r = self.assemble(tcp_session())[0]
        assert r.syn_count == 2  # SYN + SYN/ACK
        assert r.ack_count == 7


class TestNonTcp:
    assemble = staticmethod(kernel)

    def test_udp_stream_aggregates(self):
        flows = self.assemble(
            [
                pkt(0.0, A, B, 5000, 53, proto=PROTO_UDP, size=30),
                pkt(0.1, B, A, 53, 5000, proto=PROTO_UDP, size=120),
            ]
        )
        assert len(flows) == 1
        r = flows[0]
        assert r.protocol is Protocol.UDP
        assert r.state is TcpState.NONE
        assert (r.out_bytes, r.in_bytes) == (30, 120)

    def test_icmp_flow(self):
        flows = self.assemble(
            [pkt(0.0, A, B, 9, 0, proto=PROTO_ICMP, size=56)]
        )
        assert flows[0].protocol is Protocol.ICMP


class TestLifecycle:
    assemble = staticmethod(kernel)

    def test_idle_timeout_splits_flows(self):
        packets = [
            pkt(0.0, A, B, 5000, 53, proto=PROTO_UDP, size=10),
            pkt(200.0, A, B, 5000, 53, proto=PROTO_UDP, size=10),
        ]
        flows = self.assemble(packets, idle_timeout=60.0)
        assert len(flows) == 2

    def test_same_tuple_sequential_tcp_sessions(self):
        packets = tcp_session(0.0) + tcp_session(10.0)
        flows = self.assemble(packets)
        assert len(flows) == 2
        assert all(f.state is TcpState.SF for f in flows)

    def test_flush_returns_open_flows(self):
        asm = FlowAssembler()
        asm.process(pkt(0.0, A, B, 1, 80, flags=TcpFlags.SYN))
        assert len(asm.flush()) == 1
        assert asm.flush() == []

    def test_max_duration_caps_flow(self):
        packets = [
            pkt(float(t), A, B, 5000, 53, proto=PROTO_UDP, size=1)
            for t in range(0, 100, 10)
        ]
        flows = self.assemble(
            packets, idle_timeout=1000.0, max_flow_duration=35.0
        )
        assert [fl.out_pkts for fl in flows] == [4, 4, 2]

    def test_bad_timeouts_rejected(self):
        with pytest.raises(ValueError):
            self.assemble([], idle_timeout=0)

    def test_unknown_transport_skipped(self):
        raw = build_ethernet_ipv4_packet(
            src_ip=A, dst_ip=B, protocol=47, payload_len=5
        )
        p = parse_ethernet_ipv4_packet(raw, timestamp=0.0)
        assert self.assemble([p]) == []

    def test_concurrent_flows_tracked_separately(self):
        f = TcpFlags
        packets = [
            pkt(0.0, A, B, 1000, 80, flags=f.SYN),
            pkt(0.0, A, B, 2000, 80, flags=f.SYN),
            pkt(0.1, B, A, 80, 1000, flags=f.SYN | f.ACK),
        ]
        flows = self.assemble(packets)
        assert len(flows) == 2
        states = sorted(fl.state.name for fl in flows)
        assert states == ["S0", "S0"] or "S0" in states


class TestTcpStatesIncremental(TestTcpStates):
    assemble = staticmethod(incremental)


class TestNonTcpIncremental(TestNonTcp):
    assemble = staticmethod(incremental)


class TestLifecycleIncremental(TestLifecycle):
    assemble = staticmethod(incremental)
