"""Traffic-pattern aggregation (the graph-leveraging step of Fig. 4).

The detector's first move is to "aggregate the network traffic by either
the same destination or the source IP".  On a property graph this is a
group-by over edge endpoints; here it is one sort-based pass per
direction: :func:`_unique_pairs` labels every flow with its (window, IP)
group once, every sum is an ``np.bincount`` over those labels, and the two
distinct counts sort packed (group, value) keys and count where the key
changes.  The START_TIME window index is the major half of the group key,
so all windows aggregate in the same pass; unwindowed input is window 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netflow.attributes import Protocol

__all__ = ["TrafficPatterns", "build_traffic_patterns", "window_index"]

_REQUIRED = (
    "SRC_IP", "DST_IP", "DEST_PORT", "OUT_BYTES", "IN_BYTES",
    "OUT_PKTS", "IN_PKTS", "PROTOCOL", "SYN_COUNT", "ACK_COUNT",
)


@dataclass(frozen=True)
class TrafficPatterns:
    """Per-detection-IP aggregates, aligned arrays indexed by group.

    ``direction`` is "destination" (grouped by DST_IP; ``n_distinct_peers``
    counts distinct sources — the paper's N(S_IP)) or "source" (grouped by
    SRC_IP; ``n_distinct_peers`` counts distinct destinations — N(D_IP)).
    Groups are (window, IP) pairs in ascending order.
    """

    direction: str
    ips: np.ndarray                # the detection IPs (group keys)
    window: np.ndarray             # START_TIME window index of each group
    n_flows: np.ndarray            # N(flow)
    n_distinct_peers: np.ndarray   # N(S_IP) or N(D_IP)
    n_distinct_ports: np.ndarray   # N(D_port)
    sum_flow_size: np.ndarray      # Sum(flowSize), bytes
    avg_flow_size: np.ndarray      # Avg(flowSize)
    sum_packets: np.ndarray        # Sum(nPacket)
    avg_packets: np.ndarray        # Avg(nPacket)
    syn_count: np.ndarray          # N(SYN)
    ack_count: np.ndarray          # N(ACK)
    tcp_flows: np.ndarray
    udp_flows: np.ndarray
    icmp_flows: np.ndarray

    def __len__(self) -> int:
        return int(self.ips.size)

    def ack_syn_ratio(self) -> np.ndarray:
        """N(ACK)/N(SYN) with SYN-less groups mapped to a high ratio
        (no handshake pressure -> not a SYN flood candidate)."""
        syn = self.syn_count.astype(np.float64)
        out = np.full(syn.shape, np.inf)
        has = syn > 0
        out[has] = self.ack_count[has] / syn[has]
        return out

    def dominant_protocol(self) -> np.ndarray:
        """Protocol code carrying the most flows per group."""
        stack = np.stack([self.tcp_flows, self.udp_flows, self.icmp_flows])
        codes = np.asarray(
            [int(Protocol.TCP), int(Protocol.UDP), int(Protocol.ICMP)],
            dtype=np.int64,
        )
        return codes[np.argmax(stack, axis=0)]


def _starts(col: np.ndarray) -> np.ndarray:
    """Where a non-empty sorted column differs from the row before."""
    return np.concatenate(([True], col[1:] != col[:-1]))


def _unique_pairs(major: np.ndarray, minor: np.ndarray, *, labels: bool):
    """Distinct ``(major, minor)`` int64 rows in ascending order, as two
    columns, plus each row's index into them (None when the packed path
    runs without ``labels``).

    The pair travels as one int64, ``(major - min) << shift | (minor -
    min)``, whenever both spans fit in 63 bits together — always true of
    group labels, window indexes, IPv4 addresses and ports — so one sort
    of a flat integer column does the work.  Any other input is lexsorted.
    """
    if major.size == 0:
        return major, minor, (np.zeros(0, np.int64) if labels else None)
    lo, lo_minor = int(major.min()), int(minor.min())
    shift = (int(minor.max()) - lo_minor).bit_length()
    if (int(major.max()) - lo).bit_length() + shift <= 63:
        key = ((major - lo) << shift) | (minor - lo_minor)
        if labels:
            key, inverse = np.unique(key, return_inverse=True)
        else:
            key.sort()
            key, inverse = key[_starts(key)], None
        minor = (key & ((1 << shift) - 1)) + lo_minor
        return (key >> shift) + lo, minor, inverse
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    first = _starts(major) | _starts(minor)
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return major[first], minor[first], inverse


def _distinct_per_group(
    group_idx: np.ndarray, values: np.ndarray, n_groups: int
) -> np.ndarray:
    """Count distinct ``values`` per group (``group_idx`` is int64)."""
    values = np.asarray(values).astype(np.int64)
    groups, _, _ = _unique_pairs(group_idx, values, labels=False)
    return np.bincount(groups, minlength=n_groups)


def window_index(
    flow_columns, window_seconds: float
) -> tuple[float, np.ndarray]:
    """``(t0, index)``: each flow's START_TIME window, counted from the
    earliest start ``t0``.

    Attacks are bursts; aggregating a whole capture dilutes a ten-second
    scan into a victim's day of legitimate traffic.  Both calibration and
    detection therefore aggregate per window, mirroring the interval
    reports a Netflow monitor emits.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    times = _get(flow_columns, "START_TIME")
    if times is None:
        raise ValueError("flow columns lack START_TIME; cannot window")
    times = np.asarray(times, dtype=np.float64)
    t0 = float(times.min()) if times.size else 0.0
    return t0, ((times - t0) // window_seconds).astype(np.int64)


def build_traffic_patterns(
    flow_columns, *, direction: str, window: np.ndarray | None = None
) -> TrafficPatterns:
    """Aggregate flow columns into per-(window, IP) traffic patterns.

    ``flow_columns`` is any mapping providing the Netflow columns (a
    :class:`~repro.netflow.record.FlowTable` works, as does the dict from
    :func:`~repro.netflow.mapping.property_graph_to_flow_columns`);
    ``window`` is each flow's window index from :func:`window_index`
    (None: every flow in window 0).
    """
    if direction not in ("destination", "source"):
        raise ValueError("direction must be 'destination' or 'source'")
    missing = [c for c in _REQUIRED if _get(flow_columns, c) is None]
    if missing:
        raise ValueError(f"flow columns missing: {missing}")

    def col(name: str, dtype=np.float64) -> np.ndarray:
        return np.asarray(_get(flow_columns, name), dtype=dtype)

    key_col = "DST_IP" if direction == "destination" else "SRC_IP"
    peer_col = "SRC_IP" if direction == "destination" else "DST_IP"
    keys = col(key_col, np.int64)
    if window is None:
        window = np.zeros(keys.size, dtype=np.int64)
    group_window, ips, group_idx = _unique_pairs(
        np.asarray(window, dtype=np.int64), keys, labels=True
    )
    n = ips.size

    def summed(values: np.ndarray, dtype=np.float64) -> np.ndarray:
        return np.bincount(
            group_idx, weights=values, minlength=n
        ).astype(dtype, copy=False)

    proto = col("PROTOCOL", np.int64)
    sum_flow_size = summed(col("OUT_BYTES") + col("IN_BYTES"))
    sum_packets = summed(col("OUT_PKTS") + col("IN_PKTS"))
    n_flows = np.bincount(group_idx, minlength=n)
    safe = np.maximum(n_flows, 1).astype(np.float64)
    # ICMP has no ports (the DEST_PORT column carries echo sequence
    # numbers there), so port diversity is counted on TCP/UDP only —
    # otherwise an ICMP flood masquerades as a port scan.
    ported = proto != int(Protocol.ICMP)
    ports = np.asarray(_get(flow_columns, "DEST_PORT"))[ported]
    return TrafficPatterns(
        direction=direction,
        ips=ips,
        window=group_window,
        n_flows=n_flows,
        n_distinct_peers=_distinct_per_group(
            group_idx, _get(flow_columns, peer_col), n
        ),
        n_distinct_ports=_distinct_per_group(group_idx[ported], ports, n),
        sum_flow_size=sum_flow_size,
        avg_flow_size=sum_flow_size / safe,
        sum_packets=sum_packets,
        avg_packets=sum_packets / safe,
        syn_count=summed(col("SYN_COUNT"), np.int64),
        ack_count=summed(col("ACK_COUNT"), np.int64),
        tcp_flows=summed(proto == int(Protocol.TCP), np.int64),
        udp_flows=summed(proto == int(Protocol.UDP), np.int64),
        icmp_flows=summed(proto == int(Protocol.ICMP), np.int64),
    )


def _get(columns, name: str):
    """Mapping-or-FlowTable column access."""
    try:
        return columns[name]
    except (KeyError, IndexError):
        return None
