"""Block manager: reference-counted, in-memory partition storage.

Every materialized RDD partition lives in a :class:`BlockStore` behind a
stable :class:`BlockId`.  An RDD holds only block ids and every data
access goes through the store.  ``union`` passthrough shares a block by
taking another reference, and a block's arrays are dropped when its last
reference is released (the owning RDDs' finalizers do that when they
are garbage collected).  Blocks are always memory-resident: the store
has no budget, no disk tier and no file format (DESIGN.md §8 records
what was removed and why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["BlockId", "BlockStore"]


@dataclass(frozen=True)
class BlockId:
    """Stable identity of one materialized partition."""

    rdd_id: int
    partition: int


class _MemoryRef:
    """A task-capturable reference to a block: the arrays inline, which
    forked workers inherit copy-on-write."""

    __slots__ = ("columns", "nbytes")

    def __init__(self, columns, nbytes):
        self.columns = columns
        self.nbytes = nbytes

    def load(self):
        return self.columns


@dataclass
class _Entry:
    columns: "tuple[np.ndarray, ...]"
    rows: int
    nbytes: int
    n_columns: int
    refs: int = 1


class BlockStore:
    """Owns all materialized partition blocks, reference counted."""

    def __init__(self) -> None:
        self._blocks: "dict[BlockId, _Entry]" = {}

    def put(self, block_id: BlockId, columns: Sequence[np.ndarray]) -> None:
        """Register freshly computed columns under ``block_id``."""
        if block_id in self._blocks:
            raise ValueError(f"duplicate block: {block_id}")
        columns = tuple(columns)
        self._blocks[block_id] = _Entry(
            columns=columns,
            rows=int(columns[0].size) if columns else 0,
            nbytes=int(sum(col.nbytes for col in columns)),
            n_columns=len(columns),
        )

    def share(self, block_id: BlockId) -> None:
        """Take an additional reference on an existing block."""
        self._blocks[block_id].refs += 1

    def release(self, block_id: BlockId) -> None:
        """Drop one reference; the block is freed at zero.  Releasing an
        unknown block (one already freed, or dropped by :meth:`close`)
        is a no-op, so RDD finalizers may run after the context closed."""
        entry = self._blocks.get(block_id)
        if entry is None:
            return
        entry.refs -= 1
        if entry.refs <= 0:
            del self._blocks[block_id]

    def release_many(self, block_ids: Iterable[BlockId]) -> None:
        for block_id in block_ids:
            self.release(block_id)

    def get(self, block_id: BlockId) -> "tuple[np.ndarray, ...]":
        """A block's columns."""
        return self._blocks[block_id].columns

    def task_ref(self, block_id: BlockId) -> _MemoryRef:
        """A picklable/forkable reference for capturing in task closures."""
        entry = self._blocks[block_id]
        return _MemoryRef(entry.columns, entry.nbytes)

    def meta(self, block_id: BlockId) -> _Entry:
        """A block's record (rows/nbytes/n_columns)."""
        return self._blocks[block_id]

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    def close(self) -> None:
        """Drop every block; idempotent."""
        self._blocks.clear()
