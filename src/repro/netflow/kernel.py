"""Columnar flow assembly: :class:`PacketTable` → :class:`FlowTable`.

Sort → split → reduce, one micro-batch at a time.  Packets are stably
sorted by the canonical 5-tuple, the sorted run is split into flows where
the Bro-style state machine closes one and opens the next, and every flow
attribute is a segmented reduction — the flows a packet-at-a-time
assembler would yield, in the same order, without a Python object per
packet.

Capture clock
-------------
Every timestamp is read through the capture clock, the running maximum of
the timestamps so far (the carried clock included), like Zeek's network
time: a packet stamped before the clock is taken as arriving at the
clock.  So the kernel only ever sees non-decreasing times, inside a batch
and across batches, and expiry, flow starts and durations are all read
on that one clock.

Carried state
-------------
A batch starts from the flows earlier batches left open, an
:class:`OpenFlows`: per flow its key, originator, first and last
timestamps, creation sequence, the ``reduceat`` counters and the flag
summary the Bro state reads.  Each open flow enters the sort as one *held*
row ahead of its key's packets: its last timestamp stands in for the
previous packet's, its first timestamp for the flow's start, and its
counters and flags add into the reductions.  A batch is a fixed number of
NumPy calls over O(batch + open flows) rows, and no result depends on
where the batches are cut.  :func:`assemble_table` (bounded input) is one
batch from empty state followed by the flush.

Where a flow ends
-----------------
Some ends do not depend on where the flow began and are cut first: the
key changes, the gap to the previous packet exceeds ``idle_timeout``, or
the previous packet carried a RST.  Inside such a segment a flow ends at
the first ACK-without-FIN at or after the later of the two directions'
first FIN (symmetric in direction, so it does not matter who originated),
or just before the first packet further than ``max_flow_duration`` from
the flow's first; both depend on the start, so they are found in rounds —
round *k* places the *k*-th successive flow of every segment.

Emission order
--------------
A packet-at-a-time assembler yields, per packet, the flows that packet
expires (in creation order) and then the flow it tears down; the end of
the capture yields the rest in creation order.  So rows are sorted by
``(emit index, expired-before-torn, creation index)``: a torn-down flow
emits at its closing packet, an expired one at the first later packet of
*any* flow that satisfies the original float predicate (found by
bisection on that predicate itself, not on a rearranged one); the rest
stay open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.netflow.attributes import TcpState
from repro.netflow.record import FlowTable, NetflowRecord
from repro.pcap.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, TcpFlags
from repro.pcap.table import PacketTable

__all__ = ["OpenFlows", "assemble_batch", "assemble_table", "assemble_flows"]

# What an open flow carries besides its key.
_COUNTERS = ("out_pkts", "in_pkts", "out_bytes", "in_bytes", "syn_count",
             "ack_count")
_FLAGS = ("orig_syn", "resp_synack", "established", "orig_fin", "resp_fin",
          "orig_rst", "resp_rst")
_STATE_FIELDS = ("first_ts", "last_ts", "created") + _COUNTERS + _FLAGS
# Open flows travel as one float64 matrix, a row per flow and a column per
# field: every field is a timestamp or an integer below 2**53, which a
# float64 holds exactly, and gathering or joining flows is one call, not
# one per field.
_FIELDS = ("lo", "hi", "transport", "origin_lo") + _STATE_FIELDS
_COL = {name: i for i, name in enumerate(_FIELDS)}
_DTYPE = {
    name: np.float64 if name.endswith("_ts")
    else np.bool_ if name in ("origin_lo",) + _FLAGS
    else np.int64
    for name in _FIELDS
}


def _fields(flows: np.ndarray) -> dict:
    """A flow matrix's columns by name, each in its own dtype."""
    return {name: flows[:, i].astype(_DTYPE[name])
            for i, name in enumerate(_FIELDS)}


@dataclass(frozen=True)
class OpenFlows:
    """The flows a batch left open, a row each in no particular order
    (columns ``_FIELDS``: ``lo``/``hi`` are ``ip << 16 | port`` endpoints,
    ``origin_lo`` says which one originated, ``created`` orders them), plus
    the packet clock and the number of packets consumed so far — the next
    flow's creation sequence."""

    flows: np.ndarray
    clock: float = -math.inf
    seen: int = 0

    @classmethod
    def empty(cls) -> "OpenFlows":
        return cls(np.empty((0, len(_FIELDS))))

    def ordered(self) -> np.ndarray:
        """The rows in creation order."""
        return self.flows[np.argsort(self.flows[:, _COL["created"]])]

    def table(self) -> FlowTable:
        """The open flows as rows, in creation order: what a flush emits."""
        return _flow_table(self.ordered())


def _mix(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A hash of an endpoint pair: equal pairs hash equal (so a match
    between different pairs costs one row in the sort, no more)."""
    return lo * 0x9E3779B1 ^ hi


def _flow_table(flows: np.ndarray) -> FlowTable:
    """Flow rows from a flow matrix."""
    f = _fields(flows)
    origin = np.where(f["origin_lo"], f["lo"], f["hi"])
    responder = np.where(f["origin_lo"], f["hi"], f["lo"])
    established = f["established"]
    state = np.select(
        [
            f["transport"] != PROTO_TCP,
            ~f["orig_syn"],
            f["resp_rst"] & ~established,
            ~established & f["orig_fin"],
            ~established,
            f["orig_rst"],
            f["resp_rst"],
            f["orig_fin"] & f["resp_fin"],
        ],
        [
            TcpState.NONE, TcpState.OTH, TcpState.REJ, TcpState.SH,
            TcpState.S0, TcpState.RSTO, TcpState.RSTR, TcpState.SF,
        ],
        default=TcpState.S1,
    )
    return FlowTable({
        "SRC_IP": origin >> 16,
        "DST_IP": responder >> 16,
        "PROTOCOL": f["transport"],
        "SRC_PORT": origin & 0xFFFF,
        "DEST_PORT": responder & 0xFFFF,
        "START_TIME": f["first_ts"],
        "DURATION": np.maximum(0.0, (f["last_ts"] - f["first_ts"]) * 1e3),
        "OUT_BYTES": f["out_bytes"],
        "IN_BYTES": f["in_bytes"],
        "OUT_PKTS": f["out_pkts"],
        "IN_PKTS": f["in_pkts"],
        "STATE": state,
        "SYN_COUNT": f["syn_count"],
        "ACK_COUNT": f["ack_count"],
    })


def _first_exceeding(ts, lo, hi, base, limit) -> np.ndarray:
    """Per row, the smallest ``i`` in ``[lo, hi)`` with ``ts[i] - base >
    limit``, or ``hi``; ``ts`` is non-decreasing on every such range, and
    float subtraction is monotone, so bisection on the predicate is exact."""
    found = hi.copy()
    rows = np.flatnonzero(lo < hi)
    # most rows never exceed: one test of the range's last element
    rows = rows[ts[hi[rows] - 1] - base[rows] > limit]
    lo = lo[rows]
    hi = hi[rows]
    live = np.arange(rows.size)
    while live.size:
        mid = (lo[live] + hi[live]) >> 1
        past = ts[mid] - base[rows[live]] > limit
        hi[live[past]] = mid[past]
        lo[live[~past]] = mid[~past] + 1
        live = live[lo[live] < hi[live]]
    found[rows] = lo
    return found


def _emission_order(emit, torn, created) -> np.ndarray:
    """Row order by ``(emit index, expired-before-torn, creation index)``."""
    return np.lexsort((created, torn, emit))


def assemble_batch(
    packets: PacketTable,
    carry: OpenFlows,
    *,
    idle_timeout: float = 60.0,
    max_flow_duration: float = 3600.0,
) -> tuple[FlowTable, OpenFlows]:
    """Feed one packet micro-batch on top of the flows ``carry`` holds
    open, on the capture clock: the flows it closed, in the order they
    close packet by packet, and the flows still open."""
    if idle_timeout <= 0 or max_flow_duration <= 0:
        raise ValueError("timeouts must be positive")
    proto = packets.transport
    known = (proto == PROTO_TCP) | (proto == PROTO_UDP) | (proto == PROTO_ICMP)
    if not known.all():
        packets = packets[known]
    n = len(packets)
    if n == 0:
        return FlowTable.empty(), carry
    ts = np.maximum.accumulate(np.maximum(packets.timestamp, carry.clock))
    held = carry.flows
    src_ep = packets.src_ip.astype(np.int64) << 16 | packets.src_port
    dst_ep = packets.dst_ip.astype(np.int64) << 16 | packets.dst_port
    from_lo = src_ep <= dst_ep
    lo = np.where(from_lo, src_ep, dst_ep)
    hi = np.where(from_lo, dst_ep, src_ep)
    # Only the open flows a packet of this batch may continue enter the
    # sort; the others can only expire.
    pairs = np.sort(_mix(lo, hi))
    key = _mix(held[:, _COL["lo"]].astype(np.int64),
               held[:, _COL["hi"]].astype(np.int64))
    touched = pairs[np.minimum(np.searchsorted(pairs, key), n - 1)] == key
    enter = _fields(held[touched])
    j = int(touched.sum())

    # -- sort: by canonical key; stable, and the held rows go first, so a
    # key's open flow leads its packets, which stay in time order
    lo = np.concatenate([enter["lo"], lo])
    hi = np.concatenate([enter["hi"], hi])
    transport = np.concatenate([enter["transport"], packets.transport])
    order = np.lexsort((transport, hi, lo))
    lo, hi, transport = lo[order], hi[order], transport[order]
    m = j + n
    at = np.maximum(order - j, -1)  # index in the batch; -1 on a held row
    from_lo = np.concatenate([enter["origin_lo"], from_lo])[order]
    sorted_ts = np.concatenate([enter["last_ts"], ts])[order]
    lead = np.flatnonzero(at < 0)
    # the held rows, in the order of their positions in the sort
    enter = {name: col[order[lead]] for name, col in enter.items()}
    born = sorted_ts.copy()
    born[lead] = enter["first_ts"]
    packet = at >= 0
    flags = np.where(
        packet & (transport == PROTO_TCP), packets.tcp_flags[at], 0
    )
    fin = flags & int(TcpFlags.FIN) != 0
    syn = flags & int(TcpFlags.SYN) != 0
    rst = flags & int(TcpFlags.RST) != 0
    ack = flags & int(TcpFlags.ACK) != 0

    # -- split: segment cuts first, then the start-dependent ends in rounds
    cut = np.ones(m, dtype=bool)
    cut[1:] = (
        (lo[1:] != lo[:-1])
        | (hi[1:] != hi[:-1])
        | (transport[1:] != transport[:-1])
        | (sorted_ts[1:] - sorted_ts[:-1] > idle_timeout)
        | rst[:-1]
    )
    position = np.arange(m + 1)

    def next_true(mask) -> np.ndarray:
        """``out[i]`` = smallest ``j >= i`` with ``mask[j]``, else ``m``."""
        out = position.copy()
        out[:m][~mask] = m
        return np.minimum.accumulate(out[::-1])[::-1]

    fin_lo, fin_hi = fin & from_lo, fin & ~from_lo
    fin_lo[lead] = np.where(enter["origin_lo"], enter["orig_fin"],
                            enter["resp_fin"])
    fin_hi[lead] = np.where(enter["origin_lo"], enter["resp_fin"],
                            enter["orig_fin"])
    next_close = next_true(ack & ~fin)
    next_fin_lo = next_true(fin_lo)
    next_fin_hi = next_true(fin_hi)
    start = np.flatnonzero(cut)
    seg_last = np.append(start[1:], m) - 1
    firsts, lasts, torn_flags = [], [], []
    while start.size:
        close = next_close[np.maximum(next_fin_lo[start], next_fin_hi[start])]
        too_old = _first_exceeding(
            sorted_ts, start + 1, seg_last + 1, born[start],
            max_flow_duration,
        )
        last = np.minimum(np.minimum(close, too_old - 1), seg_last)
        firsts.append(start)
        lasts.append(last)
        torn_flags.append((close == last) | rst[last])
        more = last < seg_last
        start = last[more] + 1
        seg_last = seg_last[more]
    first = np.concatenate(firsts)
    by_position = np.argsort(first)
    first = first[by_position]
    last = np.concatenate(lasts)[by_position]
    torn = np.concatenate(torn_flags)[by_position]

    # -- reduce: flows are contiguous runs of the sorted rows.  A held row
    # starts a segment, so it leads a flow, and adds what it carries; it
    # counts as outbound (its own originator) and has no flags.
    flow_of = np.repeat(np.arange(first.size), last - first + 1)
    outbound = from_lo == from_lo[first][flow_of]
    inbound = ~outbound
    payload = np.where(packet, packets.payload_len[at], 0)
    led = np.flatnonzero(at[first] < 0)  # in step with ``enter``

    def total(name, values) -> np.ndarray:
        out = np.add.reduceat(values, first, dtype=np.int64)
        out[led] += enter[name]
        return out

    def seen(name, mask) -> np.ndarray:
        out = np.logical_or.reduceat(mask, first)
        out[led] |= enter[name]
        return out

    created = carry.seen + at[first]
    created[led] = enter["created"]
    # an outbound ACK after the responder's SYN+ACK; a carried SYN+ACK
    # sits at the held row, before every packet of its flow
    synack = np.minimum.reduceat(
        np.where(inbound & syn & ack, position[:m], m), first
    )
    synack[led] = np.where(enter["resp_synack"], lead, synack[led])
    established = np.maximum.reduceat(
        np.where(outbound & ack, position[:m], -1), first
    ) > synack
    established[led] |= enter["established"]
    flows = {
        "lo": lo[first],
        "hi": hi[first],
        "transport": transport[first],
        "origin_lo": from_lo[first],
        "first_ts": born[first],
        "last_ts": sorted_ts[last],
        "created": created,
        "out_pkts": total("out_pkts", outbound & packet),
        "in_pkts": total("in_pkts", inbound),
        "out_bytes": total("out_bytes", np.where(outbound, payload, 0)),
        "in_bytes": total("in_bytes", np.where(inbound, payload, 0)),
        "syn_count": total("syn_count", syn),
        "ack_count": total("ack_count", ack),
        "orig_syn": seen("orig_syn", outbound & syn & ~ack),
        "resp_synack": seen("resp_synack", inbound & syn & ack),
        "established": established,
        "orig_fin": seen("orig_fin", outbound & fin),
        "resp_fin": seen("resp_fin", inbound & fin),
        "orig_rst": seen("orig_rst", outbound & rst),
        "resp_rst": seen("resp_rst", inbound & rst),
    }

    # -- order: as process() would have yielded the records.  The open
    # flows no packet touched can only expire; the others stay open.
    flows = np.column_stack([flows[name] for name in _FIELDS])

    def expiry(after, matrix) -> np.ndarray:
        """The first packet from ``after`` on that expires each flow."""
        end = np.full(after.size, n)
        return np.minimum(
            _first_exceeding(ts, after, end, matrix[:, _COL["last_ts"]],
                             idle_timeout),
            _first_exceeding(ts, after, end, matrix[:, _COL["first_ts"]],
                             max_flow_duration),
        )

    closed = at[last]
    held_emit = expiry(np.zeros(len(held), dtype=np.int64), held)
    gone = ~touched & (held_emit < n)
    flows = np.concatenate([flows, held[gone]])
    emit = np.concatenate([
        np.where(torn, closed, expiry(closed + 1, flows[:closed.size])),
        held_emit[gone],
    ])
    torn = np.concatenate([torn, np.zeros(gone.sum(), dtype=bool)])
    created = flows[:, _COL["created"]]
    done = np.flatnonzero(emit < n)
    done = done[_emission_order(emit[done], torn[done], created[done])]
    return _flow_table(flows[done]), OpenFlows(
        np.concatenate([held[~touched & ~gone], flows[emit == n]]),
        clock=float(ts[-1]), seen=carry.seen + n,
    )


def assemble_table(
    packets: PacketTable,
    *,
    idle_timeout: float = 60.0,
    max_flow_duration: float = 3600.0,
) -> FlowTable:
    """Assemble a bounded packet table into flows — one batch from empty
    state, then the flush: every flow, in the order it closes."""
    closed, still_open = assemble_batch(
        packets, OpenFlows.empty(), idle_timeout=idle_timeout,
        max_flow_duration=max_flow_duration,
    )
    return closed.concat(still_open.table())


def assemble_flows(
    packets,
    *,
    idle_timeout: float = 60.0,
    max_flow_duration: float = 3600.0,
) -> Iterator[NetflowRecord]:
    """Assemble a bounded packet source — a :class:`PacketTable`, or an
    iterable of parsed packets or ``(timestamp, frame)`` pairs, packed
    first — yielding the flows as records in the order they close, then
    everything left open at the end."""
    yield from assemble_table(
        PacketTable.pack(packets),
        idle_timeout=idle_timeout,
        max_flow_duration=max_flow_duration,
    ).records()
