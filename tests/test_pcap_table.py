"""The columnar decoder against the scalar parser: typed errors, window
straddling, and a fuzz over corrupted captures."""

import dataclasses
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pcap import (
    PacketTable,
    PcapError,
    PcapReader,
    build_ethernet_ipv4_packet,
    parse_ethernet_ipv4_packet,
    read_packet_table,
    write_pcap,
)
from repro.pcap import table as table_module
from repro.pcap.format import GLOBAL_HEADER_LEN, RECORD_HEADER_LEN
from repro.pcap.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, TcpFlags


def capture_bytes(frames, *, endian="<", snaplen=65535) -> bytes:
    """A capture in either byte order (``PcapWriter`` only writes '<')."""
    out = [struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1)]
    for i, frame in enumerate(frames):
        data = frame[:snaplen]
        out.append(struct.pack(
            endian + "IIII", 1_000 + i // 3, (i * 333_333) % 1_000_000,
            len(data), len(frame),
        ))
        out.append(data)
    return b"".join(out)


def scalar_reference(path):
    """The scalar parser over the raw record iterator."""
    with PcapReader(path) as reader:
        return [
            pkt
            for rec, data in reader
            if (pkt := parse_ethernet_ipv4_packet(data, rec.timestamp))
            is not None
        ]


def outcome(read, path):
    try:
        return read(path)
    except PcapError:
        return PcapError


def frame(protocol=PROTO_TCP, **fields) -> bytes:
    return build_ethernet_ipv4_packet(
        src_ip=0x0A000001, dst_ip=0x0A000002, protocol=protocol, **fields
    )


# ----------------------------------------------------------------------
class TestPacketTable:
    def test_rows_are_26_bytes(self):
        table = PacketTable.empty()
        assert sum(
            getattr(table, name).dtype.itemsize for name in table.__slots__
        ) == 26

    def test_pack_parsed_packets_roundtrips(self):
        packets = [
            parse_ethernet_ipv4_packet(f, timestamp=float(i))
            for i, f in enumerate([
                frame(PROTO_TCP, src_port=1, dst_port=80,
                      tcp_flags=TcpFlags.SYN | TcpFlags.ACK, payload_len=7),
                frame(PROTO_UDP, src_port=53, dst_port=5353, payload_len=30),
                frame(PROTO_ICMP, src_port=9, dst_port=2, payload_len=56),
                frame(47, payload_len=5),  # transport=None kept
            ])
        ]
        table = PacketTable.pack(packets)
        assert len(table) == 4
        assert list(table) == packets
        assert list(table)[3].transport is None
        assert PacketTable.pack(table) is table

    def test_pack_frames_skips_unparseable(self):
        frames = [(0.5, frame(payload_len=3)), (0.6, b"\x00" * 10),
                  (0.7, frame(PROTO_UDP, payload_len=1))]
        table = PacketTable.pack(iter(frames))
        assert list(table) == [
            parse_ethernet_ipv4_packet(frames[0][1], 0.5),
            parse_ethernet_ipv4_packet(frames[2][1], 0.7),
        ]

    def test_empty_sources(self):
        assert len(PacketTable.pack([])) == 0
        assert len(PacketTable.pack([(0.0, b"")])) == 0
        assert list(PacketTable.concat([])) == []

    def test_slices_masks_and_concat(self):
        frames = [(float(i), frame(PROTO_UDP, src_port=i, payload_len=i))
                  for i in range(10)]
        table = PacketTable.pack(frames)
        assert [p.src_port for p in table[2:5]] == [2, 3, 4]
        assert [p.src_port for p in table[table.src_port % 2 == 1]] == [
            1, 3, 5, 7, 9,
        ]
        joined = PacketTable.concat([table[:3], table[3:]])
        assert list(joined) == list(table)

    def test_out_of_range_field_is_refused(self):
        pkt = parse_ethernet_ipv4_packet(frame(), timestamp=0.0)
        bad = dataclasses.replace(pkt, src_port=70_000)
        with pytest.raises(OverflowError):
            PacketTable.pack([bad])


# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_is_a_value_error(self):
        assert issubclass(PcapError, ValueError)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(PcapError, match="magic"):
            read_packet_table(path)

    def test_truncated_global_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(capture_bytes([])[:10])
        with pytest.raises(PcapError, match="global header"):
            read_packet_table(path)

    def test_truncated_record_header(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(capture_bytes([frame()]) + b"\x01\x02\x03")
        with pytest.raises(PcapError, match="record header"):
            read_packet_table(path)

    def test_incl_len_past_eof_reads_nothing(self, tmp_path):
        path = tmp_path / "t.pcap"
        body = bytearray(capture_bytes([frame(), frame()]))
        # the second record claims 4 GiB - 1
        second = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + len(frame())
        body[second + 8 : second + 12] = b"\xff\xff\xff\xff"
        path.write_bytes(bytes(body))
        with pytest.raises(PcapError, match="packet body"):
            read_packet_table(path)
        with pytest.raises(PcapError, match="packet body"):
            scalar_reference(path)

    def test_error_leaves_no_partial_table(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(capture_bytes([frame()] * 50)[:-5])
        with mock.patch.object(table_module, "WINDOW_BYTES", 256):
            with pytest.raises(PcapError):
                read_packet_table(path)
            with pytest.raises(PcapError), PcapReader(path) as reader:
                list(reader.parsed_packets())


# ----------------------------------------------------------------------
class TestWindows:
    @pytest.mark.parametrize("window", [16, 17, 100, 1 << 12])
    def test_records_straddle_and_exceed_the_window(self, tmp_path, window):
        frames = [frame(payload_len=n) for n in (0, 700, 3, 1200, 64, 0)]
        path = tmp_path / "t.pcap"
        path.write_bytes(capture_bytes(frames))
        with mock.patch.object(table_module, "WINDOW_BYTES", window):
            assert list(read_packet_table(path)) == scalar_reference(path)
            assert list(PacketTable.pack(
                (float(i), f) for i, f in enumerate(frames)
            )) == [
                parse_ethernet_ipv4_packet(f, float(i))
                for i, f in enumerate(frames)
            ]

    def test_big_endian_capture(self, tmp_path):
        path = tmp_path / "be.pcap"
        path.write_bytes(capture_bytes(
            [frame(payload_len=9), frame(PROTO_UDP)], endian=">"
        ))
        with PcapReader(path) as reader:
            packets = list(reader.parsed_packets())
        assert packets == scalar_reference(path)
        assert [p.timestamp for p in packets] == [
            1000.0, 1000 + 333_333 * 1e-6,
        ]

    def test_tables_continue_after_raw_records(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, [(float(i), frame(src_port=i)) for i in range(5)])
        with PcapReader(path) as reader:
            raw = iter(reader)
            next(raw), next(raw)
            rest = PacketTable.concat(reader.tables())
        assert [p.src_port for p in rest] == [2, 3, 4]


# ----------------------------------------------------------------------
def _ipv4(version_ihl=0x45, total_len=None, protocol=PROTO_TCP, l4=b""):
    """A hand-built Ethernet/IPv4 frame whose header fields may lie."""
    ihl = (version_ihl & 0x0F) * 4
    options = bytes(max(0, ihl - 20))
    if total_len is None:
        total_len = 20 + len(options) + len(l4)
    ip = struct.pack(
        "!BBHHHBBH4s4s", version_ihl, 0, total_len & 0xFFFF, 0, 0, 64,
        protocol, 0, b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02",
    )
    return bytes(12) + b"\x08\x00" + ip + options + l4


_l4 = st.binary(min_size=0, max_size=48)
_frames = st.one_of(
    st.builds(
        frame,
        protocol=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47]),
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        tcp_flags=st.integers(0, 63).map(TcpFlags),
        payload_len=st.integers(0, 300),
    ),
    st.builds(
        _ipv4,
        version_ihl=st.sampled_from(
            [0x45, 0x46, 0x4F, 0x44, 0x40, 0x65, 0x05]
        ),
        total_len=st.one_of(st.none(), st.integers(0, 65535)),
        protocol=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 0, 47]),
        l4=_l4,
    ),
    st.binary(min_size=0, max_size=60),  # zero-length, short, non-IPv4
    st.just(bytes(12) + b"\x86\xdd" + bytes(40)),  # IPv6
)


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(_frames, max_size=12),
    endian=st.sampled_from("<>"),
    snaplen=st.sampled_from([65535, 60, 34, 20]),
    window=st.sampled_from([16, 50, 300, table_module.WINDOW_BYTES]),
    cut=st.one_of(st.none(), st.integers(0, 2_000)),
    lie=st.one_of(st.none(), st.tuples(
        st.integers(0, 11), st.sampled_from([0, 1, 5_000, 0xFFFFFFFF]),
    )),
)
def test_fuzz_decoder_equals_scalar_parser_or_raises(
    tmp_path_factory, frames, endian, snaplen, window, cut, lie
):
    data = bytearray(capture_bytes(frames, endian=endian, snaplen=snaplen))
    if lie is not None and lie[0] < len(frames):
        # overwrite one record's incl_len
        at = GLOBAL_HEADER_LEN
        for f in frames[: lie[0]]:
            at += RECORD_HEADER_LEN + len(f[:snaplen])
        data[at + 8 : at + 12] = struct.pack(endian + "I", lie[1])
    if cut is not None:
        del data[cut:]
    path = tmp_path_factory.mktemp("fuzz") / "f.pcap"
    path.write_bytes(bytes(data))

    expected = outcome(scalar_reference, path)
    with mock.patch.object(table_module, "WINDOW_BYTES", window):
        got = outcome(lambda p: list(read_packet_table(p)), path)
        assert got == expected
        if expected is not PcapError:
            with PcapReader(path) as reader:
                raw = [(rec.timestamp, body) for rec, body in reader]
            assert list(PacketTable.pack(raw)) == expected


def test_decoder_never_reads_past_a_frame():
    """Frames packed back to back: a gather that ran past its own frame
    would pick up the neighbour's bytes and disagree with the scalar
    parser, which only ever sees the one frame."""
    rng = np.random.default_rng(5)
    frames = []
    for _ in range(400):
        body = bytearray(frame(
            rng.choice([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
            src_port=int(rng.integers(65536)),
            tcp_flags=TcpFlags(int(rng.integers(64))),
            payload_len=int(rng.integers(0, 40)),
        ))
        body[14] = int(rng.choice([0x45, 0x46, 0x4A, 0x4F]))
        body[16:18] = int(rng.integers(0, 120)).to_bytes(2, "big")
        frames.append(bytes(body[: int(rng.integers(30, len(body) + 1))]))
    expected = [
        p for i, f in enumerate(frames)
        if (p := parse_ethernet_ipv4_packet(f, float(i))) is not None
    ]
    assert expected
    got = PacketTable.pack((float(i), f) for i, f in enumerate(frames))
    assert list(got) == expected
