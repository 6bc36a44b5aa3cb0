"""Offline intrusion detection over property graphs.

The paper's §VI future work: "extend the platform to fully support
off-line intrusion detection".  This pipeline runs the Fig. 4 detector
over a property graph carrying Netflow edge attributes — seed graphs or
*generated* synthetic graphs alike — optionally windowed by START_TIME so
long captures are analysed in slices, as a streaming deployment would.

Generated graphs carry only the paper's nine attributes, so the SYN/ACK
tallies Table I needs are reconstructed from PROTOCOL and STATE: every TCP
flow implies one SYN, and states that include an established handshake
(S1, SF, RSTO, RSTR) imply ACKs roughly proportional to the packet count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detect.detector import Detection, NetflowAnomalyDetector
from repro.detect.patterns import window_index
from repro.detect.thresholds import DetectionThresholds
from repro.graph.property_graph import PropertyGraph
from repro.netflow.attributes import Protocol, TcpState
from repro.netflow.mapping import property_graph_to_flow_columns

__all__ = ["OfflineDetectionPipeline", "WindowedDetections"]

_ESTABLISHED_STATES = (
    int(TcpState.S1),
    int(TcpState.SF),
    int(TcpState.RSTO),
    int(TcpState.RSTR),
)


@dataclass(frozen=True)
class WindowedDetections:
    """Detections raised within one time window."""

    window_start: float
    window_end: float
    detections: tuple[Detection, ...]


class OfflineDetectionPipeline:
    """Graph-in, alarms-out offline detector."""

    def __init__(
        self, thresholds: DetectionThresholds | None = None
    ) -> None:
        self.detector = NetflowAnomalyDetector(thresholds)

    # ------------------------------------------------------------------
    def detect(self, graph: PropertyGraph) -> list[Detection]:
        """Detect over the whole graph at once."""
        cols = self._columns(graph)
        return self.detector.detect(cols)

    def detect_windowed(
        self, graph: PropertyGraph, *, window_seconds: float
    ) -> list[WindowedDetections]:
        """Slice the graph's flows by START_TIME and detect per window:
        one :class:`WindowedDetections` for every window holding a flow.
        Graphs without a START_TIME edge attribute need :meth:`detect`."""
        cols = self._columns(graph)
        t0, window = window_index(cols, window_seconds)
        found: dict[int, list[Detection]] = {
            int(w): [] for w in np.unique(window)
        }
        for w, det in self.detector.detect_per_window(cols, window):
            found[w].append(det)
        return [
            WindowedDetections(
                window_start=t0 + w * window_seconds,
                window_end=t0 + (w + 1) * window_seconds,
                detections=tuple(dets),
            )
            for w, dets in found.items()
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _columns(graph: PropertyGraph) -> dict[str, np.ndarray]:
        cols = property_graph_to_flow_columns(graph)
        required = ("PROTOCOL", "DEST_PORT", "OUT_BYTES", "IN_BYTES",
                    "OUT_PKTS", "IN_PKTS", "STATE")
        missing = [c for c in required if c not in cols]
        if missing:
            raise ValueError(
                f"graph lacks Netflow edge attributes: {missing}"
            )
        if "SYN_COUNT" not in cols or "ACK_COUNT" not in cols:
            proto = np.asarray(cols["PROTOCOL"], dtype=np.int64)
            state = np.asarray(cols["STATE"], dtype=np.int64)
            pkts = (
                np.asarray(cols["OUT_PKTS"], dtype=np.int64)
                + np.asarray(cols["IN_PKTS"], dtype=np.int64)
            )
            is_tcp = proto == int(Protocol.TCP)
            established = np.isin(state, _ESTABLISHED_STATES)
            cols = dict(cols)
            cols["SYN_COUNT"] = np.where(is_tcp, 1, 0).astype(np.int64)
            cols["ACK_COUNT"] = np.where(
                is_tcp & established, np.maximum(pkts - 1, 1), 0
            ).astype(np.int64)
        return cols
