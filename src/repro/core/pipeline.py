"""The preliminary steps of Fig. 1: pcap → Netflow → property-graph → analysis.

``build_seed`` accepts either a pcap file path or an in-memory list of
timestamped frames (as produced by :mod:`repro.trace`), decodes it into a
packet table, assembles the flow table from that, maps the flow table onto
a property graph, and analyses its structural and attribute distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.generator import SeedAnalysis
from repro.graph.property_graph import PropertyGraph
from repro.netflow.kernel import assemble_table
from repro.netflow.mapping import flow_table_to_property_graph
from repro.netflow.record import FlowTable
from repro.pcap.reader import read_packet_table
from repro.pcap.table import PacketTable

__all__ = ["SeedBundle", "build_seed", "analyze_seed", "packets_from"]


@dataclass(frozen=True)
class SeedBundle:
    """Everything the preliminary pipeline produces."""

    flow_table: FlowTable
    graph: PropertyGraph
    analysis: SeedAnalysis


def analyze_seed(graph: PropertyGraph) -> SeedAnalysis:
    """Analysis of structural + attribute properties (Fig. 1 last step)."""
    return SeedAnalysis.from_graph(graph)


def build_seed(
    source,
    *,
    idle_timeout: float = 60.0,
) -> SeedBundle:
    """Run the full preliminary pipeline.

    Parameters
    ----------
    source:
        Either a pcap file path, or an iterable of ``(timestamp, frame
        bytes)`` pairs (e.g. :func:`repro.trace.synthesize_seed_packets`
        output), or an iterable of already-parsed packets.
    """
    table = assemble_table(packets_from(source), idle_timeout=idle_timeout)
    if not len(table):
        raise ValueError("the source produced no flows")
    graph = flow_table_to_property_graph(table)
    analysis = analyze_seed(graph)
    return SeedBundle(flow_table=table, graph=graph, analysis=analysis)


def packets_from(source) -> PacketTable:
    """Decode a packet source into a :class:`PacketTable`.

    Accepts a pcap file path, an iterable of ``(timestamp, frame bytes)``
    pairs, or an iterable of already-parsed packets; unparseable frames
    are skipped.  The table iterates as :class:`ParsedPacket` rows.
    """
    if isinstance(source, (str, Path)):
        return read_packet_table(source)
    return PacketTable.pack(source)
