"""Block manager: memory-budgeted partition storage with disk spill.

Every materialized RDD partition lives in a :class:`BlockStore` behind a
stable :class:`BlockId`.  Blocks start memory-resident; when the store's
memory budget is exceeded the least-recently-used evictable blocks are
serialized to block files under the spill directory and transparently
reloaded on the next access.  Every block file is an RBLK ``.blk``
container (see ``codecs.py``) of uncompressed chunks, memory-mapped on
read-back.  It round-trips arrays bit-exactly, so a spilled-and-reloaded
partition is byte-identical to the in-memory original — the engine's
cross-backend digest guarantee survives any budget.

Three storage levels control the lifecycle:

* ``MEMORY_ONLY`` — pinned resident, never evicted (the legacy
  ``persist()`` behaviour).
* ``MEMORY_AND_DISK`` — the default: resident while the budget allows,
  spilled under pressure, cached again on reload.
* ``DISK_ONLY`` — file-resident; reads stream from disk and are never
  cached (checkpointed blocks also behave this way).

When a budget is active, tasks write their output columns to a block
file *worker-side* via a picklable :class:`BlockWriter` and return a
small :class:`SpilledBlockHandle` instead of the arrays themselves, so
the driver never holds a whole dataset at once and the process
backends ship blocks via files rather than through shared memory.  The
persistent pool backend composes with this transparently: a spill
handle is a few hundred bytes, far below the shared-memory arena's
out-of-band threshold, so budgeted results ride in-band through the
pipe and bypass the arena entirely — the file on disk *is* the
transport.

Durability: :meth:`BlockStore.checkpoint_block` moves a block's file
into the checkpoints directory and marks it ``durable``.  Durable
blocks survive simulated worker loss for free — recovery re-reads the
file — which is what lets ``RDD.checkpoint()`` truncate lineage and
charge zero anchor bytes to ``recovery_recompute_bytes``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro import config
from repro.engine.storage.codecs import (
    BLOCK_EXTENSION,
    BlockCodec,
    WriteInfo,
    read_block_file,
)

Columns = Sequence[np.ndarray]

_CODEC = BlockCodec()


class StorageLevel(Enum):
    """Where a persisted/materialized block is allowed to live."""

    MEMORY_ONLY = "memory_only"
    MEMORY_AND_DISK = "memory_and_disk"
    DISK_ONLY = "disk_only"

    @classmethod
    def coerce(cls, value: "StorageLevel | str") -> "StorageLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            names = ", ".join(level.value for level in cls)
            raise ValueError(
                f"unknown storage level {value!r}; expected one of: {names}"
            ) from None


@dataclass(frozen=True)
class BlockId:
    """Stable identity of one materialized partition."""

    rdd_id: int
    partition: int
    attempt: int = 0

    @property
    def stem(self) -> str:
        return f"rdd{self.rdd_id}-p{self.partition}-a{self.attempt}"

    @property
    def filename(self) -> str:
        return self.stem + BLOCK_EXTENSION


@dataclass
class StorageStats:
    """Live per-tier byte accounting, surfaced through SimulationMetrics.

    ``disk_bytes`` is the *actual* on-disk footprint (file sizes,
    footers included); ``disk_logical_bytes`` is the array bytes those
    files represent.
    """

    memory_bytes: int = 0
    disk_bytes: int = 0
    disk_logical_bytes: int = 0
    spill_count: int = 0
    reload_count: int = 0
    peak_memory_bytes: int = 0
    disk_high_water_bytes: int = 0
    codec_encode_seconds: float = 0.0
    codec_decode_seconds: float = 0.0

    def add_memory(self, nbytes: int) -> None:
        self.memory_bytes += nbytes
        if self.memory_bytes > self.peak_memory_bytes:
            self.peak_memory_bytes = self.memory_bytes

    def sub_memory(self, nbytes: int) -> None:
        self.memory_bytes -= nbytes

    def add_disk(self, disk_bytes: int, logical_bytes: int) -> None:
        self.disk_bytes += disk_bytes
        self.disk_logical_bytes += logical_bytes
        if self.disk_bytes > self.disk_high_water_bytes:
            self.disk_high_water_bytes = self.disk_bytes

    def sub_disk(self, disk_bytes: int, logical_bytes: int) -> None:
        self.disk_bytes -= disk_bytes
        self.disk_logical_bytes -= logical_bytes

    @property
    def codec_seconds(self) -> float:
        return self.codec_encode_seconds + self.codec_decode_seconds


@dataclass(frozen=True)
class SpilledBlockHandle:
    """What a task returns instead of arrays when it spilled its output.

    ``nbytes`` is the logical array bytes; ``disk_bytes``
    the actual file size (0 means "unknown", treated as logical by the
    store).  ``codec_seconds`` carries task-side encode time back to
    the driver's :class:`StorageStats`.
    """

    path: str
    rows: int
    nbytes: int
    n_columns: int
    disk_bytes: int = 0
    codec_seconds: float = 0.0


def _handle_from_info(info: WriteInfo, rows: "int | None" = None) -> SpilledBlockHandle:
    return SpilledBlockHandle(
        path=info.path,
        rows=info.rows if rows is None else rows,
        nbytes=info.logical_bytes,
        n_columns=info.n_columns,
        disk_bytes=info.disk_bytes,
        codec_seconds=info.seconds,
    )


def write_block_file(path: str, columns: Columns) -> SpilledBlockHandle:
    """Serialize a columnar partition to ``path`` (atomic temp + rename)."""

    columns = tuple(columns)
    info = _CODEC.write(path, columns)
    rows = int(columns[0].size) if columns else 0
    return _handle_from_info(info, rows=rows)


def load_block_file(path: str) -> "tuple[np.ndarray, ...]":
    """Load a columnar partition (the file is self-describing)."""

    return read_block_file(path)


class ChunkedBlockWriter:
    """Streams column chunks into one block file; handle at close.

    Wraps a codec chunked writer so streaming tasks get back the same
    :class:`SpilledBlockHandle` a whole-partition write would return.
    """

    def __init__(self, path: str):
        self._inner = _CODEC.open_writer(path)

    def append_columns(self, columns: Columns) -> None:
        self._inner.append_columns(columns)

    def close(self) -> SpilledBlockHandle:
        return _handle_from_info(self._inner.close())

    def abort(self) -> None:
        self._inner.abort()


@dataclass(frozen=True)
class BlockWriter:
    """Picklable task-side writer: serializes blocks under one directory.

    Created driver-side (the directory is made before any fork) and
    captured in task closures, so forked workers and threads can write
    spill files without touching the BlockStore itself.
    """

    directory: str

    def write(self, name: str, columns: Columns) -> SpilledBlockHandle:
        return write_block_file(os.path.join(self.directory, name), columns)

    def write_arrays(
        self, name: str, named: "dict[str, np.ndarray]"
    ) -> WriteInfo:
        return _CODEC.write_named(os.path.join(self.directory, name), named)

    def open_chunked(self, name: str) -> ChunkedBlockWriter:
        """A streaming writer for tasks that emit bounded chunks."""

        return ChunkedBlockWriter(os.path.join(self.directory, name))


class _MemoryRef:
    """A task-capturable reference to a resident block (arrays inline)."""

    __slots__ = ("columns", "nbytes", "durable")

    def __init__(self, columns, nbytes, durable):
        self.columns = columns
        self.nbytes = nbytes
        self.durable = durable

    def load(self):
        return self.columns


class _DiskRef:
    """A task-capturable reference to a spilled block (path only)."""

    __slots__ = ("path", "nbytes", "durable")

    def __init__(self, path, nbytes, durable):
        self.path = path
        self.nbytes = nbytes
        self.durable = durable

    def load(self):
        return load_block_file(self.path)


@dataclass
class _Entry:
    block_id: BlockId
    columns: "tuple[np.ndarray, ...] | None"
    path: "str | None"
    rows: int
    nbytes: int
    n_columns: int
    level: StorageLevel
    disk_bytes: int = 0
    durable: bool = False
    refs: int = 1


class BlockStore:
    """Owns all materialized partition blocks; spills under a memory budget.

    ``memory_budget_bytes=None`` keeps every block resident (the legacy
    in-memory behaviour, zero disk traffic).  With a budget, the least
    recently used evictable blocks are serialized to the session spill
    directory whenever resident bytes exceed the budget, and tasks are
    asked (via :attr:`spill_task_outputs`) to write their outputs as
    block files directly.
    """

    def __init__(
        self,
        memory_budget_bytes: "int | str | None" = None,
        spill_dir: "str | os.PathLike | None" = None,
    ):
        self.memory_budget_bytes = config.resolve(
            "memory_budget", memory_budget_bytes
        )
        self._spill_base = config.resolve("spill_dir", spill_dir)
        self._root: "Path | None" = None
        self._blocks: "dict[BlockId, _Entry]" = {}
        self._lru: "OrderedDict[BlockId, None]" = OrderedDict()
        self._shuffle_ids = iter(range(1 << 62))
        self._shuffle_disk_bytes = 0
        self._closed = False
        self.stats = StorageStats()

    # -- directories -------------------------------------------------

    def _ensure_root(self) -> Path:
        if self._root is None:
            base = self._spill_base
            if base is not None:
                os.makedirs(base, exist_ok=True)
            self._root = Path(
                tempfile.mkdtemp(prefix="repro-spill-", dir=base)
            )
            (self._root / "blocks").mkdir()
            (self._root / "shuffle").mkdir()
            (self._root / "checkpoints").mkdir()
        return self._root

    @property
    def spill_dir(self) -> "Path | None":
        """The session spill directory, if it has been created."""

        return self._root

    @property
    def spill_base(self) -> "str | None":
        """The configured base directory (None means the system tempdir)."""

        return self._spill_base

    def block_writer(self) -> BlockWriter:
        """A picklable writer for task-side block output."""

        return BlockWriter(str(self._ensure_root() / "blocks"))

    def shuffle_writer(self) -> BlockWriter:
        """A picklable writer for task-side shuffle segment output."""

        return BlockWriter(str(self._ensure_root() / "shuffle"))

    def new_shuffle_id(self) -> int:
        return next(self._shuffle_ids)

    @property
    def spill_task_outputs(self) -> bool:
        """Whether tasks should write outputs as files (budget active)."""

        return self.memory_budget_bytes is not None

    # -- core accounting helpers -------------------------------------

    def _make_resident(self, entry: _Entry, columns: "tuple[np.ndarray, ...]"):
        entry.columns = columns
        self._lru[entry.block_id] = None
        self._lru.move_to_end(entry.block_id)
        self.stats.add_memory(entry.nbytes)

    def _drop_resident(self, entry: _Entry) -> None:
        if entry.columns is None:
            return
        entry.columns = None
        self._lru.pop(entry.block_id, None)
        self.stats.sub_memory(entry.nbytes)

    def _touch(self, entry: _Entry) -> None:
        if entry.columns is not None:
            self._lru.move_to_end(entry.block_id)

    def _write_entry_file(self, entry: _Entry) -> None:
        """Spill a resident entry's arrays to its block file."""

        if entry.path is not None:
            return  # a clean copy already exists on disk: no rewrite
        path = str(self._ensure_root() / "blocks" / entry.block_id.filename)
        info = _CODEC.write(path, entry.columns)
        entry.path = path
        entry.disk_bytes = info.disk_bytes
        self.stats.spill_count += 1
        self.stats.codec_encode_seconds += info.seconds
        self.stats.add_disk(info.disk_bytes, entry.nbytes)

    def _delete_entry_file(self, entry: _Entry) -> None:
        if entry.path is None:
            return
        try:
            os.unlink(entry.path)
        except OSError:
            pass
        entry.path = None
        self.stats.sub_disk(entry.disk_bytes, entry.nbytes)
        entry.disk_bytes = 0

    def enforce_budget(self) -> None:
        """Evict least-recently-used evictable blocks until under budget."""

        budget = self.memory_budget_bytes
        if budget is None:
            return
        if self.stats.memory_bytes <= budget:
            return
        for block_id in list(self._lru):
            if self.stats.memory_bytes <= budget:
                break
            entry = self._blocks[block_id]
            if entry.level is StorageLevel.MEMORY_ONLY:
                continue  # pinned
            self._write_entry_file(entry)
            self._drop_resident(entry)

    # -- block API ----------------------------------------------------

    def put(
        self,
        block_id: BlockId,
        columns: Columns,
        level: StorageLevel = StorageLevel.MEMORY_AND_DISK,
    ) -> None:
        """Register freshly computed columns under ``block_id``."""

        if block_id in self._blocks:
            raise ValueError(f"duplicate block: {block_id}")
        columns = tuple(columns)
        entry = _Entry(
            block_id=block_id,
            columns=None,
            path=None,
            rows=int(columns[0].size) if columns else 0,
            nbytes=int(sum(col.nbytes for col in columns)),
            n_columns=len(columns),
            level=level,
        )
        self._blocks[block_id] = entry
        self._make_resident(entry, columns)
        if level is StorageLevel.DISK_ONLY:
            self._write_entry_file(entry)
            self._drop_resident(entry)
        else:
            self.enforce_budget()

    def adopt(
        self,
        block_id: BlockId,
        handle: SpilledBlockHandle,
        level: StorageLevel = StorageLevel.MEMORY_AND_DISK,
    ) -> None:
        """Register a block whose file was already written by a task."""

        if block_id in self._blocks:
            raise ValueError(f"duplicate block: {block_id}")
        disk_bytes = handle.disk_bytes or handle.nbytes
        entry = _Entry(
            block_id=block_id,
            columns=None,
            path=handle.path,
            rows=handle.rows,
            nbytes=handle.nbytes,
            n_columns=handle.n_columns,
            level=level,
            disk_bytes=disk_bytes,
        )
        self._blocks[block_id] = entry
        self.stats.spill_count += 1
        self.stats.codec_encode_seconds += handle.codec_seconds
        self.stats.add_disk(disk_bytes, entry.nbytes)

    def share(self, block_id: BlockId) -> None:
        """Take an additional reference on an existing block."""

        self._blocks[block_id].refs += 1

    def release(self, block_id: BlockId) -> None:
        """Drop one reference; frees memory and disk at zero."""

        if self._closed:
            return
        entry = self._blocks.get(block_id)
        if entry is None:
            return
        entry.refs -= 1
        if entry.refs > 0:
            return
        self._drop_resident(entry)
        self._delete_entry_file(entry)
        del self._blocks[entry.block_id]

    def release_many(self, block_ids: Iterable[BlockId]) -> None:
        for block_id in block_ids:
            self.release(block_id)

    def get(self, block_id: BlockId) -> "tuple[np.ndarray, ...]":
        """Load a block's columns, reloading from disk if spilled."""

        entry = self._blocks[block_id]
        if entry.columns is not None:
            self._touch(entry)
            return entry.columns
        t0 = time.perf_counter()
        columns = load_block_file(entry.path)
        self.stats.codec_decode_seconds += time.perf_counter() - t0
        self.stats.reload_count += 1
        if entry.level is StorageLevel.DISK_ONLY:
            return columns  # stream-through: never cached
        self._make_resident(entry, columns)
        self.enforce_budget()
        return columns

    def task_ref(self, block_id: BlockId):
        """A picklable/forkable reference for capturing in task closures.

        Resident blocks yield a memory reference (arrays inherited
        copy-on-write by forked workers); spilled blocks yield a disk
        reference so workers read the file themselves — the process
        backends ship spilled blocks via files, not shared memory.
        """

        entry = self._blocks[block_id]
        if entry.columns is not None:
            self._touch(entry)
            return _MemoryRef(entry.columns, entry.nbytes, entry.durable)
        self.stats.reload_count += 1
        return _DiskRef(entry.path, entry.nbytes, entry.durable)

    def meta(self, block_id: BlockId) -> _Entry:
        """Metadata (rows/nbytes/n_columns/level) without loading data."""

        return self._blocks[block_id]

    def set_level(self, block_id: BlockId, level: StorageLevel) -> None:
        """Re-level an existing block, spilling or pinning as needed."""

        entry = self._blocks[block_id]
        if entry.durable:
            return  # checkpointed blocks stay durable disk files
        entry.level = level
        if level is StorageLevel.DISK_ONLY:
            if entry.columns is not None:
                self._write_entry_file(entry)
                self._drop_resident(entry)
        elif level is StorageLevel.MEMORY_ONLY:
            if entry.columns is None:
                t0 = time.perf_counter()
                columns = load_block_file(entry.path)
                self.stats.codec_decode_seconds += time.perf_counter() - t0
                self.stats.reload_count += 1
                self._make_resident(entry, columns)
            self.enforce_budget()
        else:
            self.enforce_budget()

    def checkpoint_block(self, block_id: BlockId) -> str:
        """Make a block durable: a file in the checkpoints directory.

        The memory copy is dropped (reads go through the file, exactly
        what recovery would see) and the block is excluded from future
        eviction bookkeeping rewrites.  Returns the checkpoint path.
        """

        entry = self._blocks[block_id]
        if entry.durable:
            return entry.path
        if entry.path is None:
            name = entry.block_id.filename
            target = str(self._ensure_root() / "checkpoints" / name)
            info = _CODEC.write(target, entry.columns)
            entry.disk_bytes = info.disk_bytes
            self.stats.spill_count += 1
            self.stats.codec_encode_seconds += info.seconds
            self.stats.add_disk(info.disk_bytes, entry.nbytes)
        else:
            name = os.path.basename(entry.path)  # the bytes move as-is
            target = str(self._ensure_root() / "checkpoints" / name)
            os.replace(entry.path, target)
        entry.path = target
        entry.durable = True
        entry.level = StorageLevel.DISK_ONLY
        self._drop_resident(entry)
        return target

    # -- shuffle segment accounting -----------------------------------

    def track_shuffle_segments(
        self,
        disk_bytes: int,
        logical_bytes: int,
        n_files: int,
        codec_seconds: float = 0.0,
    ) -> None:
        self._shuffle_disk_bytes += disk_bytes
        self.stats.spill_count += n_files
        self.stats.codec_encode_seconds += codec_seconds
        self.stats.add_disk(disk_bytes, logical_bytes)

    def untrack_shuffle_segments(
        self, disk_bytes: int, logical_bytes: int
    ) -> None:
        self._shuffle_disk_bytes -= disk_bytes
        self.stats.sub_disk(disk_bytes, logical_bytes)

    # -- lifecycle ----------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def memory_bytes(self) -> int:
        return self.stats.memory_bytes

    @property
    def disk_bytes(self) -> int:
        return self.stats.disk_bytes

    def close(self) -> None:
        """Drop all blocks and remove the session spill directory."""

        if self._closed:
            return
        self._closed = True
        self._blocks.clear()
        self._lru.clear()
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None
