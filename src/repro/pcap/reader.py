"""Streaming pcap reader.

Reads the global header once, then yields either raw
``(PcapRecordHeader, bytes)`` pairs or decoded
:class:`~repro.pcap.table.PacketTable` windows, without ever loading the
whole capture into memory.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

from repro.pcap.format import (
    GLOBAL_HEADER_LEN,
    RECORD_HEADER_LEN,
    PcapError,
    PcapGlobalHeader,
    PcapRecordHeader,
)
from repro.pcap.packet import ParsedPacket
from repro.pcap.table import PacketTable, record_tables

__all__ = ["PcapReader", "read_packet_table"]


class PcapReader:
    """Context-manager over a pcap file.

    Iterating yields raw ``(record_header, packet_bytes)``;
    :meth:`tables` decodes Ethernet/IPv4 frames a window at a time and
    :meth:`parsed_packets` iterates those tables row by row.
    """

    def __init__(self, path) -> None:
        self._path = Path(path)
        self._fh = None
        self.header: PcapGlobalHeader | None = None
        self._endian = "<"

    def __enter__(self) -> "PcapReader":
        fh = self._path.open("rb")
        try:
            self.header, self._endian = PcapGlobalHeader.unpack(
                fh.read(GLOBAL_HEADER_LEN)
            )
        except PcapError:
            fh.close()
            raise
        self._fh = fh
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _open_file(self):
        if self._fh is None:
            raise RuntimeError("PcapReader must be used as a context manager")
        return self._fh

    def __iter__(self) -> Iterator[tuple[PcapRecordHeader, bytes]]:
        fh = self._open_file()
        end_of_file = os.fstat(fh.fileno()).st_size
        while True:
            raw = fh.read(RECORD_HEADER_LEN)
            if not raw:
                return
            if len(raw) < RECORD_HEADER_LEN:
                raise PcapError("truncated pcap record header at EOF")
            rec = PcapRecordHeader.unpack(raw, self._endian)
            # checked before the read: a lying length allocates nothing
            if fh.tell() + rec.incl_len > end_of_file:
                raise PcapError("truncated pcap packet body at EOF")
            yield rec, fh.read(rec.incl_len)

    def tables(self) -> Iterator[PacketTable]:
        """Yield the remaining records decoded, one table per read
        window; non-IPv4 frames are silently skipped."""
        return record_tables(self._open_file(), self._endian)

    def parsed_packets(self) -> Iterator[ParsedPacket]:
        """Yield decoded IPv4 packets, silently skipping non-IPv4 frames."""
        for table in self.tables():
            yield from table


def read_packet_table(path) -> PacketTable:
    """Decode an entire capture into one table."""
    with PcapReader(path) as reader:
        return PacketTable.concat(reader.tables())
