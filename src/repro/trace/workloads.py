"""Application workload profiles.

Each :class:`ApplicationProfile` describes how one protocol behaves on the
wire: destination port, transport, how many request/response exchanges a
session contains, and how large the payloads are.  The standard mix below
is weighted roughly like enterprise edge traffic (web-dominant, steady DNS
chatter, occasional bulk transfers), producing the long-tailed byte and
packet distributions the paper's attribute model must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pcap.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP

__all__ = ["ApplicationProfile", "STANDARD_WORKLOADS", "sample_workload"]


@dataclass(frozen=True)
class ApplicationProfile:
    """Wire behaviour of one application.

    ``request_bytes`` / ``response_bytes`` are (log-mean, log-sigma) of a
    lognormal per-exchange payload size; ``exchanges`` is (min, max) count
    of request/response rounds per session; ``inter_packet_gap`` is the
    mean seconds between packets of a session (exponential).
    """

    name: str
    transport: int
    dst_port: int
    weight: float
    exchanges: tuple[int, int]
    request_bytes: tuple[float, float]
    response_bytes: tuple[float, float]
    inter_packet_gap: float

    def sample_exchanges(self, rng: np.random.Generator) -> int:
        lo, hi = self.exchanges
        return int(rng.integers(lo, hi + 1))

    def sample_request_size(self, rng: np.random.Generator) -> int:
        mu, sigma = self.request_bytes
        return int(min(max(rng.lognormal(mu, sigma), 1), 1_400))

    def sample_response_size(self, rng: np.random.Generator) -> int:
        mu, sigma = self.response_bytes
        return int(min(max(rng.lognormal(mu, sigma), 1), 1_400))


#: Default enterprise mix.  Weights need not sum to 1; they are normalised.
STANDARD_WORKLOADS: tuple[ApplicationProfile, ...] = (
    ApplicationProfile(
        name="http",
        transport=PROTO_TCP,
        dst_port=80,
        weight=0.30,
        exchanges=(1, 8),
        request_bytes=(5.5, 0.6),
        response_bytes=(7.2, 1.0),
        inter_packet_gap=0.02,
    ),
    ApplicationProfile(
        name="https",
        transport=PROTO_TCP,
        dst_port=443,
        weight=0.32,
        exchanges=(2, 12),
        request_bytes=(5.8, 0.7),
        response_bytes=(7.0, 1.1),
        inter_packet_gap=0.02,
    ),
    ApplicationProfile(
        name="dns",
        transport=PROTO_UDP,
        dst_port=53,
        weight=0.20,
        exchanges=(1, 2),
        request_bytes=(3.7, 0.3),
        response_bytes=(4.6, 0.5),
        inter_packet_gap=0.005,
    ),
    ApplicationProfile(
        name="ssh",
        transport=PROTO_TCP,
        dst_port=22,
        weight=0.05,
        exchanges=(5, 60),
        request_bytes=(4.2, 0.8),
        response_bytes=(4.6, 0.9),
        inter_packet_gap=0.15,
    ),
    ApplicationProfile(
        name="smtp",
        transport=PROTO_TCP,
        dst_port=25,
        weight=0.05,
        exchanges=(3, 10),
        request_bytes=(6.5, 1.2),
        response_bytes=(4.0, 0.4),
        inter_packet_gap=0.05,
    ),
    ApplicationProfile(
        name="ntp",
        transport=PROTO_UDP,
        dst_port=123,
        weight=0.04,
        exchanges=(1, 1),
        request_bytes=(3.9, 0.1),
        response_bytes=(3.9, 0.1),
        inter_packet_gap=0.001,
    ),
    ApplicationProfile(
        name="bulk-transfer",
        transport=PROTO_TCP,
        dst_port=8080,
        weight=0.03,
        exchanges=(20, 200),
        request_bytes=(4.0, 0.3),
        response_bytes=(7.2, 0.2),
        inter_packet_gap=0.01,
    ),
    ApplicationProfile(
        name="ping",
        transport=PROTO_ICMP,
        dst_port=0,
        weight=0.01,
        exchanges=(1, 4),
        request_bytes=(4.0, 0.1),
        response_bytes=(4.0, 0.1),
        inter_packet_gap=1.0,
    ),
)


def sample_workload(
    rng: np.random.Generator,
    workloads: tuple[ApplicationProfile, ...] = STANDARD_WORKLOADS,
) -> ApplicationProfile:
    """Weighted draw of an application profile."""
    weights = np.asarray([w.weight for w in workloads], dtype=np.float64)
    weights /= weights.sum()
    return workloads[int(rng.choice(len(workloads), p=weights))]
