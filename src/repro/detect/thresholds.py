"""Table I: the anomaly-detection threshold parameters.

Field names follow the paper's notation (``dip_t`` = ``dip-T`` etc.):

======================  =====================================================
``dip_t``               max normal distinct destination IPs per source IP
``sip_t``               max normal distinct source IPs per destination IP
``dp_lt``, ``dp_ht``    low / high bounds on destination-port counts
``nf_t``                max normal flow count per detection IP
``fs_lt``, ``fs_ht``    low / high bounds on flow size (bytes)
``np_lt``, ``np_ht``    low / high bounds on packet counts
``sa_t``                min normal ACK/SYN ratio (below = half-open storm)
======================  =====================================================

The paper notes these values are "network driven" and must be trained per
target network; :meth:`DetectionThresholds.fit_normal` calibrates them from
attack-free traffic quantiles, and :func:`repro.detect.pso.tune_thresholds`
optimises them against labelled data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = ["DetectionThresholds"]


@dataclass(frozen=True)
class DetectionThresholds:
    """One concrete setting of the Table I parameters."""

    dip_t: float = 50.0
    sip_t: float = 50.0
    dp_lt: float = 5.0
    dp_ht: float = 100.0
    nf_t: float = 100.0
    fs_lt: float = 60.0
    fs_ht: float = 1_000_000.0
    np_lt: float = 4.0
    np_ht: float = 10_000.0
    sa_t: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"threshold {f.name} must be non-negative")
        if self.dp_lt > self.dp_ht:
            raise ValueError("dp_lt must not exceed dp_ht")
        if self.fs_lt > self.fs_ht:
            raise ValueError("fs_lt must not exceed fs_ht")
        if self.np_lt > self.np_ht:
            raise ValueError("np_lt must not exceed np_ht")

    # ------------------------------------------------------------------
    @classmethod
    def fit_normal(
        cls,
        flow_columns: dict[str, np.ndarray],
        *,
        quantile: float = 0.99,
        margin: float = 2.0,
        window_seconds: float | None = None,
    ) -> "DetectionThresholds":
        """Calibrate from attack-free traffic: the ``quantile`` of each
        per-IP aggregate times ``margin`` becomes the normal bound.

        This is the paper's "training must be used to set the threshold
        values based on the parameters of each target network".  When
        ``window_seconds`` is given, aggregates are computed per START_TIME
        window and the quantiles taken across (IP, window) pairs — use the
        same window length at detection time
        (:meth:`NetflowAnomalyDetector.detect_windowed`).
        """
        from repro.detect.patterns import build_traffic_patterns, window_index

        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must lie in (0, 1]")
        if margin < 1.0:
            raise ValueError("margin must be >= 1")

        window = None
        if window_seconds is not None:
            _, window = window_index(flow_columns, window_seconds)
        dst, src = (
            build_traffic_patterns(flow_columns, direction=d, window=window)
            for d in ("destination", "source")
        )

        def q(arr: np.ndarray, default: float, at: float = quantile) -> float:
            if arr.size == 0:
                return default
            return float(np.quantile(arr, at))

        flow_sizes = (
            flow_columns["OUT_BYTES"] + flow_columns["IN_BYTES"]
        ).astype(np.float64)
        pkts = (
            flow_columns["OUT_PKTS"] + flow_columns["IN_PKTS"]
        ).astype(np.float64)
        # Upper bounds ("maximum normal ...") sit a margin above the largest
        # value attack-free traffic ever produced, so a popular server's
        # legitimate fan-in never trips them.  Lower bounds sit below the
        # bulk of normal flows: probe/SYN traffic carries ~0 payload bytes
        # and a single packet, while any real exchange moves >= 2 packets.
        return cls(
            dip_t=margin * q(src.n_distinct_peers, 50.0, 1.0),
            sip_t=margin * q(dst.n_distinct_peers, 50.0, 1.0),
            dp_lt=max(1.0, q(dst.n_distinct_ports, 5.0, 0.5)),
            dp_ht=margin * q(dst.n_distinct_ports, 100.0, 1.0),
            nf_t=margin * q(
                np.concatenate([dst.n_flows, src.n_flows]), 100.0, 0.75
            ),
            fs_lt=max(2.0, q(flow_sizes, 60.0, 0.5) / margin),
            fs_ht=margin * q(
                np.concatenate([dst.sum_flow_size, src.sum_flow_size]),
                1e6,
                1.0,
            ),
            np_lt=max(2.0, q(pkts, 4.0, 0.5) / margin),
            np_ht=margin * q(
                np.concatenate([dst.sum_packets, src.sum_packets]),
                1e4,
                1.0,
            ),
            sa_t=0.5,
        )

    # ------------------------------------------------------------------
    def as_vector(self) -> np.ndarray:
        """Pack into the optimisation vector used by the PSO tuner."""
        return np.asarray(
            [getattr(self, f.name) for f in fields(self)], dtype=np.float64
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "DetectionThresholds":
        names = [f.name for f in fields(cls)]
        if len(vec) != len(names):
            raise ValueError(
                f"expected {len(names)} threshold values, got {len(vec)}"
            )
        values = dict(zip(names, (float(v) for v in vec)))
        # Repair ordering constraints instead of failing: PSO particles roam.
        values["dp_lt"], values["dp_ht"] = sorted(
            (values["dp_lt"], values["dp_ht"])
        )
        values["fs_lt"], values["fs_ht"] = sorted(
            (values["fs_lt"], values["fs_ht"])
        )
        values["np_lt"], values["np_ht"] = sorted(
            (values["np_lt"], values["np_ht"])
        )
        values = {k: max(0.0, v) for k, v in values.items()}
        return cls(**values)

    def scaled(self, factor: float) -> "DetectionThresholds":
        """Uniformly loosen (>1) or tighten (<1) every bound — a quick
        sensitivity knob for the Table I benchmark."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        upper = dict(
            dip_t=self.dip_t * factor,
            sip_t=self.sip_t * factor,
            dp_ht=self.dp_ht * factor,
            nf_t=self.nf_t * factor,
            fs_ht=self.fs_ht * factor,
            np_ht=self.np_ht * factor,
        )
        lower = dict(
            dp_lt=self.dp_lt / factor,
            fs_lt=self.fs_lt / factor,
            np_lt=self.np_lt / factor,
            sa_t=self.sa_t / factor,
        )
        return replace(self, **upper, **lower)
