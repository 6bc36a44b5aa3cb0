"""The Fig. 4 detection flow chart.

Destination-based patterns are checked first (DoS/DDoS, SYN flood, host
scan all concentrate on a victim), then source-based patterns (network
scans and flooding *sources*), exactly as the paper's §IV narrative walks
the chart.  All rules are vectorised comparisons over the aggregated
pattern arrays; one pass classifies every (window, detection IP) group at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detect.patterns import (
    TrafficPatterns,
    build_traffic_patterns,
    window_index,
)
from repro.detect.thresholds import DetectionThresholds
from repro.netflow.attributes import Protocol

__all__ = ["Detection", "NetflowAnomalyDetector"]

_FLOOD_KIND_BY_PROTOCOL = {
    int(Protocol.TCP): "tcp_flood",
    int(Protocol.UDP): "udp_flood",
    int(Protocol.ICMP): "icmp_flood",
}


@dataclass(frozen=True)
class Detection:
    """One raised alarm.

    ``ip`` is the detection IP the pattern was keyed on: the *victim* for
    destination-based detections, the *attacker* for source-based ones.
    """

    kind: str
    ip: int
    direction: str
    evidence: dict = field(default_factory=dict, compare=False)


class NetflowAnomalyDetector:
    """Threshold detector over aggregated traffic patterns."""

    def __init__(self, thresholds: DetectionThresholds | None = None) -> None:
        self.thresholds = thresholds or DetectionThresholds()

    # ------------------------------------------------------------------
    def detect(self, flow_columns) -> list[Detection]:
        """Run the full flow chart over a flow table / column mapping."""
        return [det for _, det in self.detect_per_window(flow_columns)]

    def detect_windowed(
        self, flow_columns, *, window_seconds: float
    ) -> list[Detection]:
        """Run the flow chart per START_TIME window and de-duplicate,
        keeping each alarm's first occurrence.

        Attacks are bursts; windowing keeps a ten-second scan from being
        averaged away by a victim's day of normal traffic.  The window
        length must match the one the thresholds were calibrated with
        (:meth:`DetectionThresholds.fit_normal`'s ``window_seconds``).
        """
        _, window = window_index(flow_columns, window_seconds)
        seen: set[tuple[str, int, str]] = set()
        out: list[Detection] = []
        for _, det in self.detect_per_window(flow_columns, window):
            key = (det.kind, det.ip, det.direction)
            if key not in seen:
                seen.add(key)
                out.append(det)
        return out

    def detect_per_window(
        self, flow_columns, window: np.ndarray | None = None
    ) -> list[tuple[int, Detection]]:
        """``(window index, detection)`` for every window in one pass.

        ``window`` is each flow's index from
        :func:`~repro.detect.patterns.window_index` (None: one window).
        Each direction aggregates all its (window, IP) groups at once and
        the rules run once over them.  Order: window ascending, then the
        destination rules and then the source rules in flow-chart order,
        IPs ascending within a rule.
        """
        hits = []
        for direction, rules in (("destination", self._destination_hits),
                                 ("source", self._source_hits)):
            p = build_traffic_patterns(
                flow_columns, direction=direction, window=window
            )
            hits += [(p, i, kind) for i, kind in rules(p)]
        hits.sort(key=lambda hit: hit[0].window[hit[1]])  # stable
        return [
            (int(p.window[i]), self._make(kind, p, i)) for p, i, kind in hits
        ]

    # ------------------------------------------------------------------
    def _destination_hits(
        self, patterns: TrafficPatterns
    ) -> list[tuple[int, str]]:
        """``(group, kind)`` of the destination rules, in rule order:

        * many small flows + starving ACK/SYN ratio + few ports → TCP SYN
          flood; with many distinct sources → DDoS variant;
        * many small flows + many destination ports → host scanning;
        * high total bandwidth + high packet count → protocol flood.
        """
        t = self.thresholds
        many_small = self._many_small(patterns)
        ratio = patterns.ack_syn_ratio()
        # Port diversity splits the two many-small-flow signatures: a SYN
        # flood hammers one service (few ports, counting the victim's
        # legitimate background), a host scan sweeps the port space.
        syn_flood = many_small & (ratio < t.sa_t) & (
            patterns.n_distinct_ports <= t.dp_ht
        )
        host_scan = many_small & (patterns.n_distinct_ports > t.dp_ht)
        flood = (
            (patterns.sum_flow_size > t.fs_ht)
            & (patterns.sum_packets > t.np_ht)
            & ~syn_flood
        )
        dominant = patterns.dominant_protocol()
        distributed = patterns.n_distinct_peers > t.sip_t
        return (
            [(int(i), "ddos_syn_flood" if distributed[i] else "syn_flood")
             for i in np.flatnonzero(syn_flood)]
            + [(int(i), "host_scan") for i in np.flatnonzero(host_scan)]
            + [(int(i), _FLOOD_KIND_BY_PROTOCOL[int(dominant[i])])
               for i in np.flatnonzero(flood)]
        )

    def _source_hits(self, patterns: TrafficPatterns) -> list[tuple[int, str]]:
        """``(group, kind)`` of the source rules, in rule order:

        * many small flows toward many distinct destinations on few ports →
          network scanning;
        * very high outbound volume from one host → flooding source.
        """
        t = self.thresholds
        net_scan = (
            self._many_small(patterns)
            & (patterns.n_distinct_peers > t.dip_t)
            & (patterns.n_distinct_ports <= t.dp_lt)
        )
        flood_src = (
            (patterns.sum_flow_size > t.fs_ht)
            & (patterns.sum_packets > t.np_ht)
            & ~net_scan
        )
        dominant = patterns.dominant_protocol()
        return (
            [(int(i), "network_scan") for i in np.flatnonzero(net_scan)]
            + [(int(i), _FLOOD_KIND_BY_PROTOCOL[int(dominant[i])] + "_source")
               for i in np.flatnonzero(flood_src)]
        )

    def _many_small(self, patterns: TrafficPatterns) -> np.ndarray:
        t = self.thresholds
        return (
            (patterns.n_flows > t.nf_t)
            & (patterns.avg_flow_size < t.fs_lt)
            & (patterns.avg_packets < t.np_lt)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _make(kind: str, p: TrafficPatterns, i: int) -> Detection:
        return Detection(
            kind=kind,
            ip=int(p.ips[i]),
            direction=p.direction,
            evidence={
                "n_flows": int(p.n_flows[i]),
                "n_distinct_peers": int(p.n_distinct_peers[i]),
                "n_distinct_ports": int(p.n_distinct_ports[i]),
                "avg_flow_size": float(p.avg_flow_size[i]),
                "avg_packets": float(p.avg_packets[i]),
                "sum_flow_size": float(p.sum_flow_size[i]),
                "sum_packets": float(p.sum_packets[i]),
                "syn_count": int(p.syn_count[i]),
                "ack_count": int(p.ack_count[i]),
            },
        )
