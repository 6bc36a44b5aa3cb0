"""The columnar flow kernel against the packet-at-a-time oracle
(``tests/flow_oracle.py``): same flows, same order, on the capture
clock."""

import dataclasses
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.pipeline import build_seed
from repro.netflow import FlowTable, assemble_table
from repro.netflow import kernel
from repro.netflow.kernel import OpenFlows, assemble_batch
from repro.netflow.record import NetflowRecord
from repro.pcap import PacketTable, write_pcap
from repro.pcap.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    ParsedPacket,
    TcpFlags,
)
from repro.trace.synthesizer import TraceSynthesizer
from tests.flow_oracle import FlowAssembler

F = TcpFlags
SYN, ACK, FIN, RST, PSH = F.SYN, F.ACK, F.FIN, F.RST, F.PSH


def incremental(packets, **timeouts) -> list[NetflowRecord]:
    assembler = FlowAssembler(**timeouts)
    out = []
    for pkt in packets:
        out.extend(assembler.process(pkt))
    out.extend(assembler.flush())
    return out


def packet(ts, src, dst, sport, dport, proto=PROTO_TCP, flags=0, size=0):
    return ParsedPacket(
        ts, src, dst, proto, sport, dport, TcpFlags(flags), size, 40 + size
    )


def assert_kernel_matches(packets, **timeouts):
    expected = incremental(packets, **timeouts)
    table = assemble_table(PacketTable.pack(packets), **timeouts)
    assert list(table.records()) == expected
    reference = FlowTable.from_records(expected)
    for name in FlowTable.COLUMN_NAMES:
        assert table[name].dtype == reference[name].dtype
        assert np.array_equal(table[name], reference[name])
    return expected


# ----------------------------------------------------------------------
# Hypothesis: interleaved scripted conversations on a few 5-tuples
# ----------------------------------------------------------------------
_HANDSHAKE = [(0, SYN), (1, SYN | ACK), (0, ACK)]
_DATA = [(0, PSH | ACK), (1, PSH | ACK)]
SCRIPTS = {
    "full": _HANDSHAKE + _DATA + [(0, FIN | ACK), (1, FIN | ACK), (0, ACK)],
    "rej": [(0, SYN), (1, RST | ACK)],
    "s0": [(0, SYN), (0, SYN)],
    "sh": [(0, SYN), (0, FIN)],
    "simultaneous_close": _HANDSHAKE
    + [(0, FIN | ACK), (1, FIN | ACK), (1, ACK), (0, ACK)],
    "half_close": _HANDSHAKE
    + [(1, FIN | ACK), (0, ACK), (0, PSH | ACK), (0, FIN | ACK), (1, ACK)],
    "rsto": _HANDSHAKE + [(0, RST)],
    "rstr": _HANDSHAKE + [(1, RST | ACK)],
    "trailing_acks": _HANDSHAKE
    + [(1, FIN | ACK), (0, FIN | ACK), (1, ACK), (0, ACK), (1, ACK)],
    "midstream": [(0, ACK), (1, PSH | ACK), (1, FIN)],
}
TIMEOUTS = [
    (60.0, 3600.0), (5.0, 3600.0), (1.0, 4.0), (0.2, 1.0), (0.01, 0.02),
    (2.0, 0.5),
]
_hosts = st.sampled_from([0x0A000001, 0x0A000002, 0x0A000003])
_ports = st.sampled_from([80, 1024, 1025])
_slots = st.tuples(
    st.sampled_from(sorted(SCRIPTS) + ["tcp", "udp", "icmp", "unknown"]),
    _hosts, _hosts, _ports, _ports,
)


@st.composite
def traces(draw):
    idle, longest = draw(st.sampled_from(TIMEOUTS))
    # gaps at, and one ulp either side of, both timeouts
    edges = [
        g
        for limit in (idle, longest)
        for g in (limit, math.nextafter(limit, 0), math.nextafter(limit, 9e9))
    ]
    gap = st.one_of(
        st.sampled_from([0.0, 0.0, 1e-4, 0.4 * idle, 2 * idle] + edges),
        st.floats(0, 1, allow_nan=False),
    )
    slots = draw(st.lists(_slots, min_size=1, max_size=4))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, len(slots) - 1), gap, st.integers(0, 63),
            st.booleans(), st.integers(0, 1400),
        ),
        max_size=60,
    ))
    now = draw(st.sampled_from([0.0, 1_000_000.0]))
    cursor = [0] * len(slots)
    packets = []
    for which, wait, flags, reverse, size in steps:
        kind, a, b, pa, pb = slots[which]
        now += wait
        if kind in SCRIPTS:  # the next step of the script, wrapping
            script = SCRIPTS[kind]
            reverse, flags = script[cursor[which] % len(script)]
            cursor[which] += 1
            proto = PROTO_TCP
        else:
            proto = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP,
                     "unknown": None}[kind]
        if reverse:
            a, b, pa, pb = b, a, pb, pa
        packets.append(packet(now, a, b, pa, pb, proto, int(flags), size))
    return packets, {"idle_timeout": idle, "max_flow_duration": longest}


@settings(max_examples=400, deadline=None)
@given(traces())
def test_kernel_equals_the_incremental_assembler(trace):
    packets, timeouts = trace
    assert_kernel_matches(packets, **timeouts)


def batched(packets, cuts, **timeouts):
    """Feed ``packets`` cut at ``cuts`` through the kernel with carried
    state and through one assembler: the flows each batch closed, per
    batch, from both, then both ends' open flows."""
    table = PacketTable.pack(packets)
    bounds = [0, *sorted(cuts), len(packets)]
    assembler = FlowAssembler(**timeouts)
    carry = OpenFlows.empty()
    got, expected = [], []
    for a, b in zip(bounds, bounds[1:]):
        closed, carry = assemble_batch(table[a:b], carry, **timeouts)
        got.append(list(closed.records()))
        expected.append(
            [r for pkt in packets[a:b] for r in assembler.process(pkt)]
        )
    return got, expected, carry, assembler


@st.composite
def cut_traces(draw, regressions=False):
    packets, timeouts = draw(traces())
    if regressions:  # move some packets back in time
        for i in draw(st.lists(st.integers(0, max(len(packets) - 1, 0)),
                               max_size=4)):
            if packets:
                back = draw(st.sampled_from([1e-4, timeouts["idle_timeout"],
                                             5.0]))
                packets[i] = dataclasses.replace(
                    packets[i], timestamp=packets[i].timestamp - back
                )
    cuts = draw(st.lists(st.integers(0, len(packets)), max_size=6))
    return packets, cuts, timeouts


@settings(max_examples=400, deadline=None)
@given(cut_traces())
def test_batch_cuts_change_nothing(trace):
    """Rows, their order and the carried state at the end do not depend
    on where the batches are cut."""
    packets, cuts, timeouts = trace
    got, expected, carry, assembler = batched(packets, cuts, **timeouts)
    assert got == expected
    assert list(carry.table().records()) == assembler.flush()
    whole_closed, whole = assemble_batch(
        PacketTable.pack(packets), OpenFlows.empty(), **timeouts
    )
    assert [r for rows in got for r in rows] == list(whole_closed.records())
    assert np.array_equal(carry.ordered(), whole.ordered())
    assert (carry.clock, carry.seen) == (whole.clock, whole.seen)


@settings(max_examples=200, deadline=None)
@given(cut_traces(regressions=True))
def test_timestamp_regressions_are_clamped_to_the_clock(trace):
    """Timestamps that go backwards, inside a batch or across a cut, are
    read on the capture clock: the rows, their order and the carried
    state at the end equal the clamping oracle's, wherever the cuts
    fall."""
    packets, cuts, timeouts = trace
    got, expected, carry, assembler = batched(packets, cuts, **timeouts)
    assert got == expected
    assert (carry.clock, carry.seen) == (assembler._clock, assembler._seen)
    assert list(carry.table().records()) == assembler.flush()


def test_a_late_packet_is_taken_at_the_capture_clock():
    """A packet stamped 5 s behind the clock arrives at the clock: the
    flow it opens starts at the clock and idles from it, and a flow idle
    for longer than ``idle_timeout`` before the clock is not continued
    by it, though its own stamp is within ``idle_timeout`` of that
    flow's last packet."""
    udp = lambda ts, sport: packet(ts, 1, 2, sport, 53, PROTO_UDP, size=1)
    packets = [
        udp(88.0, 1000),   # X: 12 s idle at the clock, 7 s at the stamp
        udp(100.0, 2000),  # sets the clock to 100 and expires X
        udp(95.0, 1000),   # 5 s late: opens a flow on X's key at 100
        udp(107.0, 2000),  # 7 s after the clock, 12 s after the stamp
    ]
    rows = assert_kernel_matches(packets, idle_timeout=10.0)
    assert [(r.src_port, r.start_time, r.out_pkts) for r in rows] == [
        (1000, 88.0, 1), (2000, 100.0, 2), (1000, 100.0, 1),
    ]
    assert rows[2].duration_ms == 0.0


# ----------------------------------------------------------------------
def conversation(t0, sport, script, src=1, dst=2, dport=80, step=0.01):
    return [
        packet(t0 + i * step, *((dst, src, dport, sport) if back
                                else (src, dst, sport, dport)),
               flags=int(flags))
        for i, (back, flags) in enumerate(SCRIPTS[script])
    ]


class TestRoutes:
    def test_empty_and_unknown_only(self):
        assert len(assemble_table(PacketTable.empty())) == 0
        only = [packet(0.0, 1, 2, 0, 0, None)]
        assert len(assemble_table(PacketTable.pack(only))) == 0

    def test_bad_timeouts_rejected(self):
        with pytest.raises(ValueError):
            assemble_table(PacketTable.empty(), idle_timeout=0)
        with pytest.raises(ValueError):
            assemble_table(PacketTable.empty(), max_flow_duration=-1)


class TestEmissionOrderNeedsAllThreeKeys:
    """One trace per component of ``(emit, torn, created)``: each matches
    the incremental assembler as written and stops matching when its
    component is dropped."""

    # a torn-down flow is emitted at its closing packet, long before an
    # older flow that the packet at t=100 expires
    needs_emit = (
        [packet(0.0, 9, 10, 53, 53, PROTO_UDP)]
        + conversation(1.0, 1000, "rej")
        + [packet(100.0, 9, 10, 53, 53, PROTO_UDP)]
    )
    # the RST at t=62 expires the UDP flow (created second) and then
    # tears down the TCP flow (created first): expired before torn
    needs_torn = [
        packet(0.0, 1, 2, 1000, 80, flags=int(SYN)),
        packet(1.0, 3, 4, 53, 53, PROTO_UDP),
        packet(30.0, 1, 2, 1000, 80, flags=int(ACK)),
        packet(62.0, 1, 2, 1000, 80, flags=int(RST)),
    ]
    # the packet at t=100 expires both; the higher key was created first
    needs_created = [
        packet(0.0, 9, 10, 53, 53, PROTO_UDP),
        packet(1.0, 1, 2, 53, 53, PROTO_UDP),
        packet(100.0, 5, 6, 53, 53, PROTO_UDP),
    ]

    @pytest.mark.parametrize("trace, keep", [
        (needs_emit, lambda emit, torn, created: (created, torn)),
        (needs_torn, lambda emit, torn, created: (created, emit)),
        (needs_created, lambda emit, torn, created: (torn, emit)),
    ], ids=["emit", "torn", "created"])
    def test_dropping_a_key_breaks_equivalence(self, trace, keep):
        expected = assert_kernel_matches(trace)
        with mock.patch.object(
            kernel, "_emission_order",
            lambda *keys: np.lexsort(keep(*keys)),
        ):
            got = list(assemble_table(PacketTable.pack(trace)).records())
        assert sorted(got, key=repr) == sorted(expected, key=repr)
        assert got != expected


# ----------------------------------------------------------------------
class TestNoObjectPerPacket:
    def test_build_seed_from_a_capture_builds_no_packet_or_flow_objects(
        self, tmp_path
    ):
        frames = TraceSynthesizer(session_rate=40.0, seed=3).generate(5.0)
        path = tmp_path / "seed.pcap"
        write_pcap(path, frames)
        made = {ParsedPacket: 0, NetflowRecord: 0}

        def counting(cls):
            init = cls.__init__

            def __init__(self, *args, **kwargs):
                made[cls] += 1
                init(self, *args, **kwargs)

            return mock.patch.object(cls, "__init__", __init__)

        with counting(ParsedPacket), counting(NetflowRecord):
            bundle = build_seed(path)
        assert len(frames) > 4_000 and len(bundle.flow_table) > 100
        assert made == {ParsedPacket: 0, NetflowRecord: 0}

    def test_src_has_one_flow_assembler_and_no_flow_codecs(self):
        """The kernel is the one flow assembler in ``src/``: the
        packet-at-a-time oracle lives in ``tests/``, and flow tables are
        stored only as ``.npz``."""
        src = Path(repro.__file__).parent
        named = {
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if re.search(r"FlowAssembler|_FlowState|netflow\.codec",
                         path.read_text())
        }
        assert named == set()
