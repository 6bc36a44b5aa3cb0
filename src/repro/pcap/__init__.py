"""PCAP substrate: libpcap-format file I/O and packet codecs.

The paper's seed pipeline starts "with some source data in PCAP format"
(Fig. 1).  The original experiments used the SMIA 2011 trace; this package
provides everything needed to consume *any* pcap file — a reader/writer for
the classic libpcap container, builders/parsers for Ethernet + IPv4 +
TCP/UDP/ICMP packets and a columnar decoder (:class:`PacketTable`) that
turns capture bytes into aligned arrays — so the synthetic trace generator in
:mod:`repro.trace` can emit byte-exact pcap files that the pipeline then
re-parses, exercising the identical code path as a captured trace.
"""

from repro.pcap.format import (
    PcapError,
    PcapGlobalHeader,
    PcapRecordHeader,
    LINKTYPE_ETHERNET,
)
from repro.pcap.packet import (
    ParsedPacket,
    TcpFlags,
    build_ethernet_ipv4_packet,
    parse_ethernet_ipv4_packet,
    ipv4_checksum,
)
from repro.pcap.table import PacketTable
from repro.pcap.reader import PcapReader, read_packet_table
from repro.pcap.writer import PcapWriter, write_pcap

__all__ = [
    "PcapError",
    "PcapGlobalHeader",
    "PcapRecordHeader",
    "LINKTYPE_ETHERNET",
    "ParsedPacket",
    "TcpFlags",
    "build_ethernet_ipv4_packet",
    "parse_ethernet_ipv4_packet",
    "ipv4_checksum",
    "PacketTable",
    "PcapReader",
    "read_packet_table",
    "PcapWriter",
    "write_pcap",
]
