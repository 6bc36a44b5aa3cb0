"""Netflow records and the columnar flow table.

:class:`NetflowRecord` is the per-flow view the assembler emits;
:class:`FlowTable` is the struct-of-arrays form everything downstream
consumes.  Beyond the paper's nine edge attributes the table carries
``SRC_IP``/``DST_IP``/``START_TIME``/``SYN_COUNT``/``ACK_COUNT`` columns —
the graph mapping needs the endpoints, and the Section IV anomaly detector
needs SYN/ACK tallies (Table I's ``N(SYN)``, ``N(ACK)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.netflow.attributes import (
    NETFLOW_EDGE_ATTRIBUTES,
    Protocol,
    TcpState,
)

__all__ = ["NetflowRecord", "FlowTable"]


@dataclass(frozen=True)
class NetflowRecord:
    """One unidirectionally-keyed, bidirectionally-counted flow.

    ``out_*`` counts originator→responder traffic, ``in_*`` the reverse,
    matching the paper's OUT_BYTES/IN_BYTES/OUT_PKTS/IN_PKTS semantics.
    ``duration_ms`` is milliseconds as the paper specifies.
    """

    src_ip: int
    dst_ip: int
    protocol: Protocol
    src_port: int
    dst_port: int
    start_time: float
    duration_ms: float
    out_bytes: int
    in_bytes: int
    out_pkts: int
    in_pkts: int
    state: TcpState
    syn_count: int = 0
    ack_count: int = 0


# Column name -> dtype of the FlowTable arrays.
_COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("SRC_IP", np.dtype(np.int64)),
    ("DST_IP", np.dtype(np.int64)),
    ("PROTOCOL", np.dtype(np.int64)),
    ("SRC_PORT", np.dtype(np.int64)),
    ("DEST_PORT", np.dtype(np.int64)),
    ("START_TIME", np.dtype(np.float64)),
    ("DURATION", np.dtype(np.float64)),
    ("OUT_BYTES", np.dtype(np.int64)),
    ("IN_BYTES", np.dtype(np.int64)),
    ("OUT_PKTS", np.dtype(np.int64)),
    ("IN_PKTS", np.dtype(np.int64)),
    ("STATE", np.dtype(np.int64)),
    ("SYN_COUNT", np.dtype(np.int64)),
    ("ACK_COUNT", np.dtype(np.int64)),
)
_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)


class FlowTable:
    """Columnar table of flows; one NumPy array per column.

    All columns are aligned; ``len(table)`` is the flow count.  Column
    access is by name (``table["OUT_BYTES"]``) and always returns the
    underlying array (no copy), so analytics stay allocation-free.
    """

    COLUMN_NAMES = _COLUMN_NAMES

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        missing = set(_COLUMN_NAMES) - set(columns)
        if missing:
            raise ValueError(f"missing flow columns: {sorted(missing)}")
        n = len(columns[_COLUMN_NAMES[0]])
        self._cols: dict[str, np.ndarray] = {}
        for name, dtype in _COLUMNS:
            arr = np.ascontiguousarray(columns[name], dtype=dtype)
            if arr.ndim != 1 or arr.size != n:
                raise ValueError(
                    f"column {name!r} has shape {arr.shape}, expected ({n},)"
                )
            self._cols[name] = arr

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[NetflowRecord]) -> "FlowTable":
        """Materialise a table from record objects (assembler output)."""
        n = len(records)
        cols = {name: np.empty(n, dtype=dtype) for name, dtype in _COLUMNS}
        for i, r in enumerate(records):
            cols["SRC_IP"][i] = r.src_ip
            cols["DST_IP"][i] = r.dst_ip
            cols["PROTOCOL"][i] = int(r.protocol)
            cols["SRC_PORT"][i] = r.src_port
            cols["DEST_PORT"][i] = r.dst_port
            cols["START_TIME"][i] = r.start_time
            cols["DURATION"][i] = r.duration_ms
            cols["OUT_BYTES"][i] = r.out_bytes
            cols["IN_BYTES"][i] = r.in_bytes
            cols["OUT_PKTS"][i] = r.out_pkts
            cols["IN_PKTS"][i] = r.in_pkts
            cols["STATE"][i] = int(r.state)
            cols["SYN_COUNT"][i] = r.syn_count
            cols["ACK_COUNT"][i] = r.ack_count
        return cls(cols)

    @classmethod
    def empty(cls) -> "FlowTable":
        return cls({name: np.empty(0, dtype) for name, dtype in _COLUMNS})

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._cols["SRC_IP"].size)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._cols[name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowTable({len(self)} flows)"

    def records(self) -> Iterable[NetflowRecord]:
        """Yield record objects (test/debug convenience; O(n) Python)."""
        c = self._cols
        for i in range(len(self)):
            yield NetflowRecord(
                src_ip=int(c["SRC_IP"][i]),
                dst_ip=int(c["DST_IP"][i]),
                protocol=Protocol(int(c["PROTOCOL"][i])),
                src_port=int(c["SRC_PORT"][i]),
                dst_port=int(c["DEST_PORT"][i]),
                start_time=float(c["START_TIME"][i]),
                duration_ms=float(c["DURATION"][i]),
                out_bytes=int(c["OUT_BYTES"][i]),
                in_bytes=int(c["IN_BYTES"][i]),
                out_pkts=int(c["OUT_PKTS"][i]),
                in_pkts=int(c["IN_PKTS"][i]),
                state=TcpState(int(c["STATE"][i])),
                syn_count=int(c["SYN_COUNT"][i]),
                ack_count=int(c["ACK_COUNT"][i]),
            )

    def select(self, mask_or_index: np.ndarray) -> "FlowTable":
        """Row subset as a new table."""
        sel = np.asarray(mask_or_index)
        return FlowTable({k: v[sel] for k, v in self._cols.items()})

    def concat(self, *others: "FlowTable") -> "FlowTable":
        """Row-wise concatenation."""
        return FlowTable(
            {
                k: np.concatenate([v] + [other._cols[k] for other in others])
                for k, v in self._cols.items()
            }
        )

    def edge_attribute_columns(self) -> dict[str, np.ndarray]:
        """The paper's nine edge attributes, in canonical order."""
        return {name: self._cols[name] for name in NETFLOW_EDGE_ATTRIBUTES}

    def hosts(self) -> np.ndarray:
        """Sorted distinct host addresses appearing as either endpoint."""
        return np.union1d(self._cols["SRC_IP"], self._cols["DST_IP"])

    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        np.savez_compressed(path, **self._cols)

    @classmethod
    def load_npz(cls, path) -> "FlowTable":
        with np.load(path, allow_pickle=False) as data:
            return cls({k: data[k] for k in data.files})
