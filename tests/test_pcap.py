"""Unit tests for the pcap substrate: format, packet codecs, reader/writer."""

import struct

import numpy as np
import pytest

from repro.pcap import (
    LINKTYPE_ETHERNET,
    ParsedPacket,
    PcapGlobalHeader,
    PcapRecordHeader,
    PcapReader,
    PcapWriter,
    TcpFlags,
    build_ethernet_ipv4_packet,
    ipv4_checksum,
    parse_ethernet_ipv4_packet,
    write_pcap,
)
from repro.pcap.format import GLOBAL_HEADER_LEN
from repro.pcap.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP


class TestHeaders:
    def test_global_header_roundtrip(self):
        h = PcapGlobalHeader(snaplen=4096)
        parsed, endian = PcapGlobalHeader.unpack(h.pack())
        assert parsed.snaplen == 4096
        assert parsed.network == LINKTYPE_ETHERNET
        assert endian == "<"

    def test_global_header_length(self):
        assert len(PcapGlobalHeader().pack()) == GLOBAL_HEADER_LEN == 24

    def test_byteswapped_magic_detected(self):
        h = PcapGlobalHeader().pack()
        swapped = h[:4][::-1] + h[4:]
        # Byte-swapping just the magic makes the remaining fields read in
        # big-endian order; the parser must still accept the magic.
        _, endian = PcapGlobalHeader.unpack(swapped)
        assert endian == ">"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            PcapGlobalHeader.unpack(b"\x00" * 24)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            PcapGlobalHeader.unpack(b"\x00" * 10)

    def test_record_header_timestamp_roundtrip(self):
        r = PcapRecordHeader.from_timestamp(1234.567891, incl_len=60)
        assert r.timestamp == pytest.approx(1234.567891, abs=1e-6)
        back = PcapRecordHeader.unpack(r.pack())
        assert back == r

    def test_record_usec_carry(self):
        r = PcapRecordHeader.from_timestamp(1.9999999, incl_len=1)
        assert r.ts_usec < 1_000_000


class TestChecksum:
    def test_rfc791_example_zeroes(self):
        # checksum of a header whose checksum field is correct verifies to 0
        pkt = build_ethernet_ipv4_packet(
            src_ip=0x0A000001, dst_ip=0x0A000002, protocol=PROTO_UDP,
            src_port=1, dst_port=2, payload_len=4,
        )
        ip_header = pkt[14:34]
        assert ipv4_checksum(ip_header) == 0

    def test_odd_length_padded(self):
        assert ipv4_checksum(b"\x01") == ipv4_checksum(b"\x01\x00")


class TestPacketCodec:
    def test_tcp_roundtrip(self):
        pkt = build_ethernet_ipv4_packet(
            src_ip=0x0A010101, dst_ip=0x0A020202, protocol=PROTO_TCP,
            src_port=4242, dst_port=80,
            tcp_flags=TcpFlags.SYN | TcpFlags.ACK, payload_len=100,
        )
        p = parse_ethernet_ipv4_packet(pkt, timestamp=5.0)
        assert p is not None and p.is_tcp
        assert (p.src_ip, p.dst_ip) == (0x0A010101, 0x0A020202)
        assert (p.src_port, p.dst_port) == (4242, 80)
        assert p.tcp_flags == TcpFlags.SYN | TcpFlags.ACK
        assert p.payload_len == 100
        assert p.timestamp == 5.0

    def test_udp_roundtrip(self):
        pkt = build_ethernet_ipv4_packet(
            src_ip=1, dst_ip=2, protocol=PROTO_UDP,
            src_port=5353, dst_port=53, payload_len=33,
        )
        p = parse_ethernet_ipv4_packet(pkt)
        assert p.is_udp and p.payload_len == 33

    def test_icmp_roundtrip(self):
        pkt = build_ethernet_ipv4_packet(
            src_ip=1, dst_ip=2, protocol=PROTO_ICMP,
            src_port=77, dst_port=3, payload_len=56,
        )
        p = parse_ethernet_ipv4_packet(pkt)
        assert p.is_icmp
        assert (p.src_port, p.dst_port) == (77, 3)
        assert p.payload_len == 56

    def test_non_ipv4_returns_none(self):
        frame = b"\x00" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 30
        assert parse_ethernet_ipv4_packet(frame) is None

    def test_short_frame_returns_none(self):
        assert parse_ethernet_ipv4_packet(b"\x00" * 10) is None

    def test_unknown_transport_kept_with_none(self):
        pkt = build_ethernet_ipv4_packet(
            src_ip=1, dst_ip=2, protocol=47, payload_len=10  # GRE
        )
        p = parse_ethernet_ipv4_packet(pkt)
        assert p is not None and p.transport is None

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError, match="16 bits"):
            build_ethernet_ipv4_packet(
                src_ip=1, dst_ip=2, protocol=PROTO_TCP, src_port=70000
            )

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            build_ethernet_ipv4_packet(
                src_ip=1, dst_ip=2, protocol=PROTO_UDP, payload_len=-1
            )

    def test_total_len_field(self):
        pkt = build_ethernet_ipv4_packet(
            src_ip=1, dst_ip=2, protocol=PROTO_UDP, payload_len=10
        )
        p = parse_ethernet_ipv4_packet(pkt)
        assert p.total_len == 20 + 8 + 10  # IP + UDP + payload


class TestFileIO:
    def _frames(self, n=5):
        return [
            (
                float(i),
                build_ethernet_ipv4_packet(
                    src_ip=i + 1, dst_ip=100, protocol=PROTO_UDP,
                    src_port=1000 + i, dst_port=53, payload_len=i,
                ),
            )
            for i in range(n)
        ]

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "t.pcap"
        frames = self._frames()
        assert write_pcap(path, frames) == 5
        with PcapReader(path) as reader:
            packets = list(reader.parsed_packets())
        assert len(packets) == 5
        assert [p.src_ip for p in packets] == [1, 2, 3, 4, 5]
        assert packets[3].timestamp == pytest.approx(3.0)

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path) as w:
            w.write_packet(10.0, b"\x00" * 60)
            with pytest.raises(ValueError, match="out-of-order"):
                w.write_packet(5.0, b"\x00" * 60)

    def test_snaplen_truncates(self, tmp_path):
        path = tmp_path / "t.pcap"
        big = build_ethernet_ipv4_packet(
            src_ip=1, dst_ip=2, protocol=PROTO_UDP, payload_len=500
        )
        with PcapWriter(path, snaplen=100) as w:
            w.write_packet(0.0, big)
        with PcapReader(path) as r:
            rec, data = next(iter(r))
        assert rec.incl_len == 100
        assert rec.orig_len == len(big)

    def test_reader_requires_context(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, self._frames(1))
        r = PcapReader(path)
        with pytest.raises(RuntimeError, match="context manager"):
            next(iter(r))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, self._frames(2))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            with PcapReader(path) as reader:
                list(reader.parsed_packets())

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, [])
        with PcapReader(path) as reader:
            assert list(reader.parsed_packets()) == []
