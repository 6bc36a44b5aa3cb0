"""Stream sources: live synthetic traffic and capture replay.

A source yields :class:`Batch` objects — micro-batches of either decoded
packets (``kind="packets"``, a :class:`~repro.pcap.table.PacketTable`
slice) or already-assembled flows (``kind="records"``, a
:class:`~repro.netflow.record.FlowTable` slice).  Packet batches flow
through the windowed flow assembler; record batches skip assembly and go
straight to windowing.

* :class:`TraceSource` — wraps :class:`~repro.trace.TraceSynthesizer`
  plus any number of :mod:`repro.trace.attacks` ground truths, merging
  background and attack frames into one time-sorted stream.  The exact
  frame sequence is exposed via :meth:`TraceSource.frames` so a batch
  reference run can consume the identical input (the byte-identity
  contract).
* :class:`ReplaySource` — replays a capture file: ``.pcap`` files are
  decoded a read window at a time (the same code path a SMIA-2011 capture
  would take); ``.npz`` files are treated as saved
  :class:`~repro.netflow.record.FlowTable` archives and replayed as
  table slices in (stable) flow start-time order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.netflow.record import FlowTable
from repro.pcap.reader import PcapReader
from repro.pcap.table import PacketTable, frame_tables
from repro.trace.attacks import AttackGroundTruth
from repro.trace.synthesizer import TimedFrame, TraceSynthesizer

__all__ = ["Batch", "TraceSource", "ReplaySource", "DEFAULT_BATCH_PACKETS"]

DEFAULT_BATCH_PACKETS = 256


@dataclass(frozen=True)
class Batch:
    """One micro-batch of source events."""

    kind: str  # "packets" | "records"
    items: PacketTable | FlowTable

    def __len__(self) -> int:
        return len(self.items)


def _chunked(items, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


def _packet_batches(tables, size: int) -> Iterator[Batch]:
    """Re-cut decoder windows into batches of exactly ``size`` packets
    (the last one may be short)."""
    rest = PacketTable.empty()
    for table in tables:
        table = PacketTable.concat([rest, table]) if len(rest) else table
        full = len(table) - len(table) % size
        for chunk in _chunked(table[:full], size):
            yield Batch(kind="packets", items=chunk)
        rest = table[full:]
    if len(rest):
        yield Batch(kind="packets", items=rest)


@dataclass
class TraceSource:
    """Synthesizes background traffic + timed attacks as a packet stream.

    Parameters
    ----------
    synthesizer:
        Background-traffic generator (a default enterprise mix when
        omitted).
    duration:
        Seconds of background traffic to synthesize.
    attacks:
        Injected :class:`AttackGroundTruth` instances; their frames are
        merged time-sorted into the background and their timings are
        matched against detections by the pipeline's sink.
    batch_packets:
        Micro-batch granularity (packets per queue item).
    start_time:
        Stream epoch of the first background session.
    """

    synthesizer: TraceSynthesizer | None = None
    duration: float = 30.0
    attacks: Sequence[AttackGroundTruth] = ()
    batch_packets: int = DEFAULT_BATCH_PACKETS
    start_time: float = 1_000_000.0
    _frames: list[TimedFrame] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.synthesizer is None:
            self.synthesizer = TraceSynthesizer()
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.batch_packets < 1:
            raise ValueError("batch_packets must be >= 1")

    # ------------------------------------------------------------------
    def frames(self) -> list[TimedFrame]:
        """The merged, time-sorted frame stream (memoized).

        This is the exact input sequence; a batch reference run over the
        same list reproduces the streamed detections byte-for-byte.
        """
        if self._frames is None:
            merged = list(
                self.synthesizer.generate(
                    self.duration, start_time=self.start_time
                )
            )
            for gt in self.attacks:
                merged.extend(gt.frames)
            merged.sort(key=lambda f: f[0])
            self._frames = merged
        return self._frames

    def batches(self) -> Iterator[Batch]:
        """Decode frames and yield packet micro-batches."""
        yield from _packet_batches(
            frame_tables(self.frames()), self.batch_packets
        )


@dataclass
class ReplaySource:
    """Replays a saved capture: a ``.pcap`` packet trace or a ``.npz``
    flow-table archive (``FlowTable.save_npz`` output)."""

    path: str | Path
    batch_packets: int = DEFAULT_BATCH_PACKETS

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if self.batch_packets < 1:
            raise ValueError("batch_packets must be >= 1")
        suffix = self.path.suffix.lower()
        if suffix not in (".pcap", ".npz"):
            raise ValueError(
                f"unsupported replay source {self.path} "
                "(expected .pcap or .npz)"
            )

    def batches(self) -> Iterator[Batch]:
        if self.path.suffix.lower() == ".pcap":
            yield from self._pcap_batches()
        else:
            yield from self._npz_batches()

    def _pcap_batches(self) -> Iterator[Batch]:
        with PcapReader(self.path) as reader:
            yield from _packet_batches(reader.tables(), self.batch_packets)

    def _npz_batches(self) -> Iterator[Batch]:
        table = FlowTable.load_npz(self.path)
        order = np.argsort(table["START_TIME"], kind="stable")
        for chunk in _chunked(order, self.batch_packets):
            yield Batch(kind="records", items=table.select(chunk))
