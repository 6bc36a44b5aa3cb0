"""Pipeline stage logic: windowed flow assembly and the graph delta.

These classes are pure single-threaded machines — the thread/queue
plumbing lives in :mod:`repro.stream.pipeline` — so the watermark and
incremental-graph semantics are unit-testable without concurrency.

Columns end to end
------------------
A packet micro-batch is a :class:`~repro.pcap.table.PacketTable` slice;
:func:`~repro.netflow.kernel.assemble_batch` turns it, on top of the
flows earlier batches left open, into a :class:`FlowTable` of the flows it
closed.  Windows bucket such slices: one ``floor`` gives every flow's
window index, and a closing window concatenates its slices and orders
them with one stable argsort on ``START_TIME``.  No packet or flow becomes
a Python object on this path.

Windowing & the byte-identity argument
--------------------------------------
Flows are bucketed by ``start_time`` into consecutive ``[k*W, (k+1)*W)``
windows.  The watermark is ``packet clock - lateness``; a window is
emitted once the watermark passes its end, with its flows stably sorted
by ``start_time``.  The batch reference sorts *all* flows by
``start_time`` (one stable sort over assembler emission order) and feeds
them to the detector in that order.  The streamed feed is identical
when no flow arrives for an already-emitted window, because then the
windows partition the stream into increasing ``start_time`` ranges and
each window's stable sort preserves the assembler emission order among
ties — exactly the global stable sort, delivered in pieces.

The ``auto`` lateness guarantees that condition: a flow still open at
packet clock ``C`` has ``start_time >= C - max_flow_duration`` (the
assembler force-expires anything older), so with ``lateness >=
max(idle_timeout, max_flow_duration)`` every flow the assembler can
still emit lands at or beyond the watermark.  Smaller lateness values
close windows earlier; any genuinely late flow is then rerouted into the
next emitted window and counted (``late_flows``), trading strict batch
equality for freshness — the standard streaming trade-off, made
explicit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.property_graph import PropertyGraph
from repro.netflow.attributes import NETFLOW_EDGE_ATTRIBUTES
from repro.netflow.kernel import OpenFlows, assemble_batch
from repro.netflow.record import FlowTable
from repro.pcap.table import PacketTable

__all__ = ["FlowWindow", "WindowAssembler", "GraphAccumulator"]


@dataclass(frozen=True)
class FlowWindow:
    """One closed micro-batch window of flows, sorted by start time."""

    index: int
    start: float
    end: float
    table: FlowTable
    # Wall-clock stamp at emission; the sink measures end-to-end window
    # latency against it.  Excluded from equality.
    closed_at_wall: float = field(compare=False, default=0.0)

    def __len__(self) -> int:
        return len(self.table)


class WindowAssembler:
    """Packets (or flow tables) in, watermark-closed :class:`FlowWindow`s
    out.

    Parameters
    ----------
    window_seconds:
        Window length ``W``; windows are aligned to multiples of ``W``.
    lateness:
        Allowed lateness in seconds, or ``None`` for the safe ``auto``
        bound ``max(idle_timeout, max_flow_duration)`` (packet mode) /
        ``0`` (record mode, where input is already start-ordered).
    idle_timeout, max_flow_duration:
        Passed through to the flow kernel.
    """

    def __init__(
        self,
        *,
        window_seconds: float,
        lateness: float | None = None,
        idle_timeout: float = 60.0,
        max_flow_duration: float = 3600.0,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        self.idle_timeout = idle_timeout
        self.max_flow_duration = max_flow_duration
        self._open = OpenFlows.empty()
        self._packet_lateness = (
            max(idle_timeout, max_flow_duration)
            if lateness is None
            else lateness
        )
        self._record_lateness = 0.0 if lateness is None else lateness
        self._buckets: dict[int, list[FlowTable]] = {}
        self._clock = -math.inf
        # Windows with index < _next_index have been emitted.
        self._next_index: int | None = None
        self.late_flows = 0
        self.flows_out = 0

    # ------------------------------------------------------------------
    def _admit(self, flows: FlowTable) -> None:
        if not len(flows):
            return
        idx = np.floor(flows["START_TIME"] / self.window_seconds).astype(
            np.int64
        )
        if self._next_index is not None:
            # A flow whose window is already gone is rerouted into the
            # next emitted window rather than dropped (counted, not
            # silent).
            late = idx < self._next_index
            self.late_flows += int(late.sum())
            idx[late] = self._next_index
        for w in np.unique(idx):
            self._buckets.setdefault(int(w), []).append(
                flows.select(idx == w)
            )

    def _emit_through(self, watermark: float) -> list[FlowWindow]:
        """Emit every window whose end the watermark has passed."""
        edge = watermark / self.window_seconds
        out = [
            self._window(idx, self._buckets.pop(idx))
            for idx in sorted(self._buckets) if idx + 1 <= edge
        ]
        if out:
            self._next_index = max(
                self._next_index or -(2**62), out[-1].index + 1
            )
        return out

    def _window(self, idx: int, parts: list[FlowTable]) -> FlowWindow:
        flows = parts[0].concat(*parts[1:])
        # stable: keeps arrival order among equal start times
        flows = flows.select(np.argsort(flows["START_TIME"], kind="stable"))
        self.flows_out += len(flows)
        return FlowWindow(
            index=idx,
            start=idx * self.window_seconds,
            end=(idx + 1) * self.window_seconds,
            table=flows,
            closed_at_wall=time.perf_counter(),
        )

    # ------------------------------------------------------------------
    def process_packets(self, packets) -> list[FlowWindow]:
        """Feed one packet micro-batch (a :class:`PacketTable`, or what
        :meth:`PacketTable.pack` takes); returns any windows it closed."""
        packets = PacketTable.pack(packets)
        closed, self._open = assemble_batch(
            packets, self._open, idle_timeout=self.idle_timeout,
            max_flow_duration=self.max_flow_duration,
        )
        self._admit(closed)
        if len(packets):
            self._clock = max(self._clock, float(packets.timestamp.max()))
        return self._emit_through(self._clock - self._packet_lateness)

    def process_records(self, flows: FlowTable) -> list[FlowWindow]:
        """Feed pre-assembled flows (replay mode, start-time order)."""
        self._admit(flows)
        if len(flows):
            self._clock = max(self._clock, float(flows["START_TIME"].max()))
        return self._emit_through(self._clock - self._record_lateness)

    def drain(self) -> list[FlowWindow]:
        """End of stream: flush open flows and emit every remaining
        window, including the partial last one."""
        self._admit(self._open.table())
        self._open = OpenFlows.empty()
        return self._emit_through(math.inf)


class GraphAccumulator:
    """Folds flow windows into an incrementally updated property graph.

    Edge columns live in amortized-doubling buffers, so each fold
    appends O(window) work; vertex ids are indices into the sorted
    distinct-host array (the same layout
    :func:`repro.netflow.mapping.flow_table_to_property_graph` builds
    from a batch table, so the live graph equals the batch graph over
    the same flows).  Endpoint index columns are cached and remapped
    only when a window introduces previously unseen hosts.
    """

    # Endpoints + the batch mapping's edge payload (the paper's nine
    # Netflow attributes and START_TIME), so the live graph matches
    # flow_table_to_property_graph() over the same flows exactly.
    _GRAPH_COLUMNS = ("SRC_IP", "DST_IP") + NETFLOW_EDGE_ATTRIBUTES + (
        "START_TIME",
    )

    def __init__(self) -> None:
        self._n = 0
        self._cap = 1024
        self._cols = {
            name: np.empty(self._cap, dtype=np.float64 if name in
                           ("START_TIME", "DURATION") else np.int64)
            for name in self._GRAPH_COLUMNS
        }
        self._hosts = np.empty(0, dtype=np.int64)
        self._src_idx = np.empty(self._cap, dtype=np.int64)
        self._dst_idx = np.empty(self._cap, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return self._n

    @property
    def n_vertices(self) -> int:
        return int(self._hosts.size)

    def _grow(self, needed: int) -> None:
        if needed <= self._cap:
            return
        new_cap = self._cap
        while new_cap < needed:
            new_cap *= 2
        for name, buf in self._cols.items():
            grown = np.empty(new_cap, dtype=buf.dtype)
            grown[: self._n] = buf[: self._n]
            self._cols[name] = grown
        for attr in ("_src_idx", "_dst_idx"):
            buf = getattr(self, attr)
            grown = np.empty(new_cap, dtype=np.int64)
            grown[: self._n] = buf[: self._n]
            setattr(self, attr, grown)
        self._cap = new_cap

    def fold(self, window: FlowWindow) -> PropertyGraph:
        """Append one window's flows and return the updated live graph."""
        table = window.table
        k = len(table)
        if k:
            self._grow(self._n + k)
            for name in self._GRAPH_COLUMNS:
                self._cols[name][self._n : self._n + k] = table[name]
            new_hosts = table.hosts()
            merged = np.union1d(self._hosts, new_hosts)
            lo, hi = self._n, self._n + k
            self._n = hi
            if merged.size != self._hosts.size:
                # New hosts shift sorted positions: remap everything.
                self._hosts = merged
                self._src_idx[: self._n] = np.searchsorted(
                    merged, self._cols["SRC_IP"][: self._n]
                )
                self._dst_idx[: self._n] = np.searchsorted(
                    merged, self._cols["DST_IP"][: self._n]
                )
            else:
                self._src_idx[lo:hi] = np.searchsorted(
                    self._hosts, table["SRC_IP"]
                )
                self._dst_idx[lo:hi] = np.searchsorted(
                    self._hosts, table["DST_IP"]
                )
        return self.graph()

    def graph(self) -> PropertyGraph:
        """The current live graph (copied arrays: safe to publish)."""
        n = self._n
        edge_props = {
            name: self._cols[name][:n].copy()
            for name in self._GRAPH_COLUMNS
            if name not in ("SRC_IP", "DST_IP")
        }
        return PropertyGraph(
            n_vertices=int(self._hosts.size),
            src=self._src_idx[:n].copy(),
            dst=self._dst_idx[:n].copy(),
            vertex_properties={"ID": self._hosts.copy()},
            edge_properties=edge_props,
        )
