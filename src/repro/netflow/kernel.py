"""Columnar flow assembly: :class:`PacketTable` → :class:`FlowTable`.

Sort → split → reduce.  Packets are stably sorted by the canonical
5-tuple, the sorted run is split into flows where the incremental
:class:`~repro.netflow.flow_assembler.FlowAssembler` would close one and
open the next, and every flow attribute is a segmented reduction — the
same flows, in the same order, without a Python object per packet.

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
``FlowAssembler.process`` yields, per packet, the flows that packet
expires (in creation order) and then the flow it tears down; ``flush``
yields the rest in creation order.  So rows are sorted by ``(emit index,
expired-before-torn, creation index)``: a torn-down flow emits at its
closing packet, an expired one at the first later packet of *any* flow
that satisfies the original float predicate (found by bisection on that
predicate itself, not on a rearranged one), the rest at end of input.

The precondition is non-decreasing timestamps (``PcapWriter`` enforces
it); input that violates it is run through the incremental assembler.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.netflow.attributes import TcpState
from repro.netflow.flow_assembler import FlowAssembler
from repro.netflow.record import FlowTable, NetflowRecord
from repro.pcap.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, TcpFlags
from repro.pcap.table import PacketTable

__all__ = ["assemble_table", "assemble_flows"]


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


def _incremental(packets: PacketTable, **timeouts) -> Iterator[NetflowRecord]:
    assembler = FlowAssembler(**timeouts)
    for pkt in packets:
        yield from assembler.process(pkt)
    yield from assembler.flush()


def assemble_table(
    packets: PacketTable,
    *,
    idle_timeout: float = 60.0,
    max_flow_duration: float = 3600.0,
) -> FlowTable:
    """Assemble a bounded packet table into flows: the rows, and the row
    order, of a :class:`FlowAssembler` fed the same packets one by one."""
    if idle_timeout <= 0 or max_flow_duration <= 0:
        raise ValueError("timeouts must be positive")
    known = np.isin(packets.transport, (PROTO_TCP, PROTO_UDP, PROTO_ICMP))
    if not known.all():
        packets = packets[known]
    ts = packets.timestamp
    n = ts.size
    if n == 0:
        return FlowTable.empty()
    if not np.all(ts[1:] >= ts[:-1]):
        return FlowTable.from_records(list(_incremental(
            packets, idle_timeout=idle_timeout,
            max_flow_duration=max_flow_duration,
        )))

    # -- sort: by canonical key; stable, so time order survives in a key
    src_ep = packets.src_ip.astype(np.int64) << 16 | packets.src_port
    dst_ep = packets.dst_ip.astype(np.int64) << 16 | packets.dst_port
    from_lo = src_ep <= dst_ep
    lo = np.where(from_lo, src_ep, dst_ep)
    hi = np.where(from_lo, dst_ep, src_ep)
    order = np.lexsort((packets.transport, hi, lo))
    lo, hi, from_lo = lo[order], hi[order], from_lo[order]
    transport = packets.transport[order]
    sorted_ts = ts[order]
    is_tcp = transport == PROTO_TCP
    flags = np.where(is_tcp, packets.tcp_flags[order], 0)
    fin = flags & int(TcpFlags.FIN) != 0
    syn = flags & int(TcpFlags.SYN) != 0
    rst = flags & int(TcpFlags.RST) != 0
    ack = flags & int(TcpFlags.ACK) != 0

    # -- split: segment cuts first, then the start-dependent ends in rounds
    cut = np.ones(n, dtype=bool)
    cut[1:] = (
        (lo[1:] != lo[:-1])
        | (hi[1:] != hi[:-1])
        | (transport[1:] != transport[:-1])
        | (sorted_ts[1:] - sorted_ts[:-1] > idle_timeout)
        | rst[:-1]
    )
    position = np.arange(n + 1)

    def next_true(mask) -> np.ndarray:
        """``out[i]`` = smallest ``j >= i`` with ``mask[j]``, else ``n``."""
        out = position.copy()
        out[:n][~mask] = n
        return np.minimum.accumulate(out[::-1])[::-1]

    next_close = next_true(ack & ~fin)
    next_fin_lo = next_true(fin & from_lo)
    next_fin_hi = next_true(fin & ~from_lo)
    start = np.flatnonzero(cut)
    seg_last = np.append(start[1:], n) - 1
    firsts, lasts, torn_flags = [], [], []
    while start.size:
        close = next_close[np.maximum(next_fin_lo[start], next_fin_hi[start])]
        too_old = _first_exceeding(
            sorted_ts, start + 1, seg_last + 1, sorted_ts[start],
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

    # -- reduce: flows are contiguous runs of the sorted packets
    n_packets = last - first + 1
    flow_of = np.repeat(np.arange(first.size), n_packets)
    outbound = from_lo == from_lo[first][flow_of]
    inbound = ~outbound

    def total(values) -> np.ndarray:
        return np.add.reduceat(values.astype(np.int64), first)

    def seen(mask) -> np.ndarray:
        return np.logical_or.reduceat(mask, first)

    payload = packets.payload_len[order].astype(np.int64)
    out_pkts = total(outbound)
    out_bytes = total(np.where(outbound, payload, 0))
    orig_syn = seen(outbound & syn & ~ack)
    orig_fin = seen(outbound & fin)
    resp_fin = seen(inbound & fin)
    orig_rst = seen(outbound & rst)
    resp_rst = seen(inbound & rst)
    # an outbound ACK after the responder's SYN+ACK
    established = np.maximum.reduceat(
        np.where(outbound & ack, position[:n], -1), first
    ) > np.minimum.reduceat(
        np.where(inbound & syn & ack, position[:n], n), first
    )
    state = np.select(
        [
            ~is_tcp[first],
            ~orig_syn,
            resp_rst & ~established,
            ~established & orig_fin,
            ~established,
            orig_rst,
            resp_rst,
            orig_fin & resp_fin,
        ],
        [
            TcpState.NONE, TcpState.OTH, TcpState.REJ, TcpState.SH,
            TcpState.S0, TcpState.RSTO, TcpState.RSTR, TcpState.SF,
        ],
        default=TcpState.S1,
    )

    # -- order: as process()/flush() would have yielded the records
    first_ts = sorted_ts[first]
    last_ts = sorted_ts[last]
    created = order[first]
    closed = order[last]
    end = np.full(first.size, n)
    expired = np.minimum(
        _first_exceeding(ts, closed + 1, end, last_ts, idle_timeout),
        _first_exceeding(ts, closed + 1, end, first_ts, max_flow_duration),
    )
    rows = _emission_order(np.where(torn, closed, expired), torn, created)

    # the originator is whoever sent the flow's first packet
    origin = np.where(from_lo[first], lo[first], hi[first])
    responder = np.where(from_lo[first], hi[first], lo[first])
    columns = {
        "SRC_IP": origin >> 16,
        "DST_IP": responder >> 16,
        "PROTOCOL": transport[first],
        "SRC_PORT": origin & 0xFFFF,
        "DEST_PORT": responder & 0xFFFF,
        "START_TIME": first_ts,
        "DURATION": np.maximum(0.0, (last_ts - first_ts) * 1e3),
        "OUT_BYTES": out_bytes,
        "IN_BYTES": total(payload) - out_bytes,
        "OUT_PKTS": out_pkts,
        "IN_PKTS": n_packets - out_pkts,
        "STATE": state,
        "SYN_COUNT": total(syn),
        "ACK_COUNT": total(ack),
    }
    return FlowTable({name: col[rows] for name, col in columns.items()})


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
