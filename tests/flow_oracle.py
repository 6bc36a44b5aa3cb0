"""The packet-at-a-time flow assembler: the oracle the columnar kernel is
tested against.

It consumes packets one by one and emits one :class:`NetflowRecord` per
TCP connection / UDP stream / ICMP exchange, with bidirectional byte and
packet counters and a Bro-style connection state.  The program assembles
every input with :mod:`repro.netflow.kernel`, which must yield the same
flows in the same order; this class restates the same rules one packet at
a time, plainly enough to check by reading.

Capture clock
-------------
The clock is the running maximum of the packet timestamps, like Zeek's
network time.  A packet stamped before the clock is taken as arriving at
the clock: it expires, opens and extends flows at the clock's time.

Flow keying
-----------
A flow is identified by the canonical 5-tuple; the *originator* is the
endpoint that sent the first packet observed for the tuple.  TCP flows end
on connection teardown (FIN handshake or RST) or idle timeout; UDP/ICMP
flows end on idle timeout only.  A (src, dst, sport, dport, proto) tuple may
therefore yield several successive flows — which is precisely what makes the
property graph a *multi*graph.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.netflow.attributes import Protocol, TcpState
from repro.netflow.record import NetflowRecord
from repro.pcap.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    ParsedPacket,
    TcpFlags,
)

__all__ = ["FlowAssembler"]

_PROTOCOL_OF = {
    PROTO_TCP: Protocol.TCP,
    PROTO_UDP: Protocol.UDP,
    PROTO_ICMP: Protocol.ICMP,
}


@dataclass
class _FlowState:
    """Mutable accumulator for one in-progress flow."""

    src_ip: int
    dst_ip: int
    protocol: Protocol
    src_port: int
    dst_port: int
    first_ts: float
    last_ts: float
    # packets the assembler had taken before the one that opened the flow
    created: int = 0
    out_bytes: int = 0
    in_bytes: int = 0
    out_pkts: int = 0
    in_pkts: int = 0
    syn_count: int = 0
    ack_count: int = 0
    # TCP handshake/teardown tracking
    orig_syn: bool = False
    resp_synack: bool = False
    established: bool = False
    orig_fin: bool = False
    resp_fin: bool = False
    orig_rst: bool = False
    resp_rst: bool = False

    def record(self) -> NetflowRecord:
        return NetflowRecord(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            protocol=self.protocol,
            src_port=self.src_port,
            dst_port=self.dst_port,
            start_time=self.first_ts,
            duration_ms=max(0.0, (self.last_ts - self.first_ts) * 1e3),
            out_bytes=self.out_bytes,
            in_bytes=self.in_bytes,
            out_pkts=self.out_pkts,
            in_pkts=self.in_pkts,
            state=self._tcp_state(),
            syn_count=self.syn_count,
            ack_count=self.ack_count,
        )

    def _tcp_state(self) -> TcpState:
        """Collapse the observed handshake into a Bro-style conn_state."""
        if self.protocol is not Protocol.TCP:
            return TcpState.NONE
        if not self.orig_syn:
            return TcpState.OTH
        if self.resp_rst and not self.established:
            return TcpState.REJ
        if not self.established:
            if self.orig_fin:
                return TcpState.SH
            return TcpState.S0
        if self.orig_rst:
            return TcpState.RSTO
        if self.resp_rst:
            return TcpState.RSTR
        if self.orig_fin and self.resp_fin:
            return TcpState.SF
        return TcpState.S1


class FlowAssembler:
    """Streaming packet → flow converter.

    Parameters
    ----------
    idle_timeout:
        Seconds of inactivity after which a flow is expired.  Bro's default
        UDP inactivity timeout is 60 s; the same value works for this model.
    max_flow_duration:
        Hard cap: flows older than this are force-expired even when active,
        bounding state for pathological long-lived connections.
    """

    def __init__(
        self,
        *,
        idle_timeout: float = 60.0,
        max_flow_duration: float = 3600.0,
    ) -> None:
        if idle_timeout <= 0 or max_flow_duration <= 0:
            raise ValueError("timeouts must be positive")
        self._idle_timeout = idle_timeout
        self._max_duration = max_flow_duration
        self._flows: dict[tuple, _FlowState] = {}
        self._clock = float("-inf")
        self._seen = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _key(pkt: ParsedPacket) -> tuple:
        """Direction-agnostic flow key: ordered endpoint pair + protocol."""
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        return (lo, hi, pkt.transport)

    def process(self, pkt: ParsedPacket) -> list[NetflowRecord]:
        """Feed one packet; returns any flows expired by time progression."""
        if pkt.transport not in _PROTOCOL_OF:
            return []
        if pkt.timestamp < self._clock:  # a late packet arrives at the clock
            pkt = dataclasses.replace(pkt, timestamp=self._clock)
        expired = self._expire(pkt.timestamp)
        key = self._key(pkt)
        state = self._flows.get(key)
        if state is None:
            state = _FlowState(
                src_ip=pkt.src_ip,
                dst_ip=pkt.dst_ip,
                protocol=_PROTOCOL_OF[pkt.transport],
                src_port=pkt.src_port,
                dst_port=pkt.dst_port,
                first_ts=pkt.timestamp,
                last_ts=pkt.timestamp,
                created=self._seen,
            )
            self._flows[key] = state
        self._seen += 1
        self._update(state, pkt)
        if self._teardown_complete(state, pkt):
            del self._flows[key]
            expired.append(state.record())
        return expired

    def flush(self) -> list[NetflowRecord]:
        """Expire and return everything still open (end of capture)."""
        out = [s.record() for s in self._flows.values()]
        self._flows.clear()
        return out

    # ------------------------------------------------------------------
    def _expire(self, now: float) -> list[NetflowRecord]:
        self._clock = max(self._clock, now)
        if not self._flows:
            return []
        dead = [
            k
            for k, s in self._flows.items()
            if now - s.last_ts > self._idle_timeout
            or now - s.first_ts > self._max_duration
        ]
        out = []
        for k in dead:
            out.append(self._flows.pop(k).record())
        return out

    def _update(self, state: _FlowState, pkt: ParsedPacket) -> None:
        state.last_ts = max(state.last_ts, pkt.timestamp)
        outbound = (
            pkt.src_ip == state.src_ip and pkt.src_port == state.src_port
        )
        if outbound:
            state.out_pkts += 1
            state.out_bytes += pkt.payload_len
        else:
            state.in_pkts += 1
            state.in_bytes += pkt.payload_len
        if pkt.transport != PROTO_TCP:
            return
        flags = pkt.tcp_flags
        if flags & TcpFlags.SYN:
            state.syn_count += 1
            if outbound and not (flags & TcpFlags.ACK):
                state.orig_syn = True
            if not outbound and (flags & TcpFlags.ACK):
                state.resp_synack = True
        if flags & TcpFlags.ACK:
            state.ack_count += 1
            if outbound and state.resp_synack:
                state.established = True
        if flags & TcpFlags.FIN:
            if outbound:
                state.orig_fin = True
            else:
                state.resp_fin = True
        if flags & TcpFlags.RST:
            if outbound:
                state.orig_rst = True
            else:
                state.resp_rst = True

    @staticmethod
    def _teardown_complete(state: _FlowState, pkt: ParsedPacket) -> bool:
        if state.protocol is not Protocol.TCP:
            return False
        if state.orig_rst or state.resp_rst:
            return True
        # Close on the final ACK after both FINs.
        return (
            state.orig_fin
            and state.resp_fin
            and bool(pkt.tcp_flags & TcpFlags.ACK)
            and not (pkt.tcp_flags & TcpFlags.FIN)
        )
