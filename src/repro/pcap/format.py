"""Binary layout of the classic libpcap capture file.

Reference: the de-facto libpcap file format — a 24-byte global header
followed by (16-byte record header, packet bytes) pairs.  Both byte orders
are supported on read (magic ``0xa1b2c3d4`` vs byte-swapped
``0xd4c3b2a1``); writes always use the native little-endian microsecond
variant, which every tool accepts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "PcapError",
    "MAGIC_USEC",
    "MAGIC_USEC_SWAPPED",
    "LINKTYPE_ETHERNET",
    "PcapGlobalHeader",
    "PcapRecordHeader",
]


class PcapError(ValueError):
    """The bytes are not a well-formed libpcap capture (bad magic, a
    truncated header, a record length running past the end of the file)."""


MAGIC_USEC = 0xA1B2C3D4
MAGIC_USEC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1

_GLOBAL_FMT = "IHHiIII"  # magic, major, minor, thiszone, sigfigs, snaplen, network
_RECORD_FMT = "IIII"  # ts_sec, ts_usec, incl_len, orig_len
GLOBAL_HEADER_LEN = struct.calcsize("<" + _GLOBAL_FMT)
RECORD_HEADER_LEN = struct.calcsize("<" + _RECORD_FMT)


@dataclass(frozen=True)
class PcapGlobalHeader:
    """The 24-byte file header."""

    snaplen: int = 65535
    network: int = LINKTYPE_ETHERNET
    version_major: int = 2
    version_minor: int = 4
    thiszone: int = 0
    sigfigs: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            "<" + _GLOBAL_FMT,
            MAGIC_USEC,
            self.version_major,
            self.version_minor,
            self.thiszone,
            self.sigfigs,
            self.snaplen,
            self.network,
        )

    @classmethod
    def unpack(cls, data: bytes) -> tuple["PcapGlobalHeader", str]:
        """Parse the header; returns ``(header, endianness)`` where the
        endianness character ('<' or '>') must be used for record headers."""
        if len(data) < GLOBAL_HEADER_LEN:
            raise PcapError(
                f"truncated pcap global header: {len(data)} bytes"
            )
        (magic,) = struct.unpack("<I", data[:4])
        if magic == MAGIC_USEC:
            endian = "<"
        elif magic == MAGIC_USEC_SWAPPED:
            endian = ">"
        else:
            raise PcapError(f"not a pcap file (magic 0x{magic:08x})")
        fields = struct.unpack(endian + _GLOBAL_FMT, data[:GLOBAL_HEADER_LEN])
        _, major, minor, thiszone, sigfigs, snaplen, network = fields
        header = cls(
            snaplen=snaplen,
            network=network,
            version_major=major,
            version_minor=minor,
            thiszone=thiszone,
            sigfigs=sigfigs,
        )
        return header, endian


@dataclass(frozen=True)
class PcapRecordHeader:
    """The 16-byte per-packet record header."""

    ts_sec: int
    ts_usec: int
    incl_len: int
    orig_len: int

    @property
    def timestamp(self) -> float:
        return self.ts_sec + self.ts_usec * 1e-6

    @classmethod
    def from_timestamp(
        cls, timestamp: float, incl_len: int, orig_len: int | None = None
    ) -> "PcapRecordHeader":
        sec = int(timestamp)
        usec = int(round((timestamp - sec) * 1e6))
        if usec >= 1_000_000:
            sec += 1
            usec -= 1_000_000
        return cls(
            ts_sec=sec,
            ts_usec=usec,
            incl_len=incl_len,
            orig_len=orig_len if orig_len is not None else incl_len,
        )

    def pack(self) -> bytes:
        return struct.pack(
            "<" + _RECORD_FMT,
            self.ts_sec,
            self.ts_usec,
            self.incl_len,
            self.orig_len,
        )

    @classmethod
    def unpack(cls, data: bytes, endian: str = "<") -> "PcapRecordHeader":
        if len(data) < RECORD_HEADER_LEN:
            raise PcapError(
                f"truncated pcap record header: {len(data)} bytes"
            )
        ts_sec, ts_usec, incl_len, orig_len = struct.unpack(
            endian + _RECORD_FMT, data[:RECORD_HEADER_LEN]
        )
        return cls(ts_sec, ts_usec, incl_len, orig_len)
