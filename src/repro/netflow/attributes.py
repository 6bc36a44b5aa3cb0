"""Netflow attribute vocabulary.

``NETFLOW_EDGE_ATTRIBUTES`` lists, in order, the nine edge attributes the
paper attaches to property-graph edges (Section III).  ``Protocol`` and
``TcpState`` give them integer codings so attribute columns stay numeric
NumPy arrays end to end.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = [
    "Protocol",
    "TcpState",
    "NETFLOW_EDGE_ATTRIBUTES",
    "CONDITIONING_ATTRIBUTE",
]


class Protocol(IntEnum):
    """Transport protocol of a flow.  The paper supports TCP and UDP; ICMP
    is carried as well because the anomaly detector (Section IV) must see
    ICMP flood traffic."""

    TCP = 6
    UDP = 17
    ICMP = 1


class TcpState(IntEnum):
    """Bro-style TCP connection summary states.

    Mirrors Bro's ``conn_state`` vocabulary, which is what analysing the
    seed trace "with Bro IDS" (Fig. 1) would produce:

    * ``S0``  — connection attempt seen, no reply (scan signature).
    * ``S1``  — established, never closed.
    * ``SF``  — normal establish + finish.
    * ``REJ`` — attempt rejected (RST to SYN).
    * ``RSTO`` — established, originator aborted with RST.
    * ``RSTR`` — established, responder aborted with RST.
    * ``SH``  — originator sent SYN then FIN, no responder traffic.
    * ``OTH`` — mid-stream traffic, no SYN observed.
    * ``NONE`` — used for non-TCP flows.
    """

    NONE = 0
    S0 = 1
    S1 = 2
    SF = 3
    REJ = 4
    RSTO = 5
    RSTR = 6
    SH = 7
    OTH = 8


#: The nine per-edge attributes from Section III, in canonical column order.
NETFLOW_EDGE_ATTRIBUTES: tuple[str, ...] = (
    "PROTOCOL",
    "SRC_PORT",
    "DEST_PORT",
    "DURATION",
    "OUT_BYTES",
    "IN_BYTES",
    "OUT_PKTS",
    "IN_PKTS",
    "STATE",
)

#: Attribute the paper conditions every other one on, p(a | IN_BYTES) (Fig. 1);
#: drawing whole seed rows keeps that law exactly.
CONDITIONING_ATTRIBUTE = "IN_BYTES"
