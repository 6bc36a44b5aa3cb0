"""The block container: how partition columns become bytes on disk.

Every spilled block, shuffle segment and checkpoint is one RBLK ``.blk``
file of *uncompressed* payload chunks, written by the one
:class:`BlockCodec`; whole-array reads come back as ``np.memmap`` views
when the array's chunks are contiguous in the file, so a reload costs
page-cache faults instead of an up-front copy.

RBLK container layout (``.blk``)::

    [chunk payload bytes ...]          # appended as they are produced
    [JSON footer, utf-8]               # see below
    [footer length, 8-byte little-endian]
    [magic b"RBLK01"]

The footer maps each array name to its dtype (``np.lib.format`` descr,
so byte order and structured dtypes round-trip), its shape, and a chunk
list of ``[file_offset, stored_len, raw_len]`` triples, plus a
``compression`` tag that is always ``"none"``; a footer naming any other
tag (an older build's ``lzma`` or ``zlib``) is refused with an error
naming the tag and the file.  Payload first / footer last makes the
format *streaming-append friendly*: a chunked writer emits chunks as
tasks produce rows and only assembles metadata at close.  Readers seek
to the tail, verify the magic, and load the footer — no codec object
needed.  Every reader opens a path on this host's disk: the driver and
its forked workers share one spill directory, so no block ever travels
between hosts.

Bit-exactness: chunks hold the exact bytes of the C-contiguous array, so
spill-and-reload returns byte-identical columns and the engine's
cross-backend digest guarantee holds under any memory budget.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Columns = Sequence[np.ndarray]

# The one block-file suffix: spill blocks, shuffle segments, checkpoints.
BLOCK_EXTENSION = ".blk"
# Target uncompressed bytes per payload chunk.  Round-trips do not depend
# on it (tests pass other ``chunk_bytes``).
CHUNK_BYTES = 1 << 20

_MAGIC = b"RBLK01"
_FOOTER_LEN_BYTES = 8
_TAIL_BYTES = _FOOTER_LEN_BYTES + len(_MAGIC)
# The footer ``compression`` tag; the only one a reader accepts.
_COMPRESSION = "none"

__all__ = [
    "BLOCK_EXTENSION",
    "CHUNK_BYTES",
    "BlockCodec",
    "WriteInfo",
    "read_arrays",
    "read_block_file",
    "read_named_file",
]


@dataclass(frozen=True)
class WriteInfo:
    """What a codec write reports back for storage accounting."""

    path: str
    rows: int
    n_columns: int
    logical_bytes: int  # sum of array .nbytes (pre-codec)
    disk_bytes: int  # actual file size on disk (arrays + footer)
    seconds: float  # encode time: the chunk file writes


def _atomic_tmp(path: str) -> str:
    """Temp name unique per process *and* thread, so two attempts at
    one block never share a temp file: a killed worker's partial file
    stays under its own pid while the retry writes in another process."""

    return f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"


def _as_contiguous(arr: np.ndarray) -> np.ndarray:
    """C-contiguous view/copy that — unlike ascontiguousarray — keeps 0-d."""

    arr = np.asarray(arr)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


# ---------------------------------------------------------------------------
# RBLK container: low-level writer / reader
# ---------------------------------------------------------------------------


class _RblkWriter:
    """Appends payload chunks to a temp file; footer + rename at close."""

    def __init__(self, path: str, chunk_bytes: int):
        self._final_path = path
        self._tmp = _atomic_tmp(path)
        self._fh = open(self._tmp, "wb")
        self._offset = 0
        self._chunk_bytes = chunk_bytes
        self._arrays: "dict[str, dict]" = {}
        self._order: "list[str]" = []
        self._logical = 0
        self._seconds = 0.0
        self._closed = False

    def _meta_for(self, name: str, arr: np.ndarray, appendable: bool) -> dict:
        meta = self._arrays.get(name)
        if meta is None:
            meta = {
                "descr": np.lib.format.dtype_to_descr(arr.dtype),
                "shape": None,
                "chunks": [],
                "_rows": 0,
                "_trailing": tuple(arr.shape[1:]) if appendable else None,
            }
            self._arrays[name] = meta
            self._order.append(name)
        return meta

    def _write_chunk(self, meta: dict, data: bytes) -> None:
        t0 = time.perf_counter()
        self._fh.write(data)
        self._seconds += time.perf_counter() - t0
        meta["chunks"].append([self._offset, len(data), len(data)])
        self._offset += len(data)

    def put_array(self, name: str, arr: np.ndarray) -> None:
        """Write a whole array, split internally into chunk_bytes chunks."""

        arr = _as_contiguous(arr)
        meta = self._meta_for(name, arr, appendable=False)
        if meta["shape"] is not None:
            raise ValueError(f"array {name!r} already written")
        meta["shape"] = list(arr.shape)
        self._logical += int(arr.nbytes)
        flat = arr.reshape(-1)
        itemsize = max(arr.dtype.itemsize, 1)
        step = max(self._chunk_bytes // itemsize, 1)
        for start in range(0, flat.size, step):
            self._write_chunk(meta, flat[start : start + step].tobytes())

    def append_rows(self, name: str, chunk: np.ndarray) -> None:
        """Append rows along axis 0; one call is one payload chunk.

        The caller controls chunk boundaries, so parallel arrays that are
        appended together stay row-aligned chunk for chunk.
        """

        chunk = _as_contiguous(chunk)
        meta = self._meta_for(name, chunk, appendable=True)
        if meta["_trailing"] is None or meta["shape"] is not None:
            raise ValueError(f"array {name!r} is not appendable")
        if tuple(chunk.shape[1:]) != meta["_trailing"]:
            raise ValueError(
                f"array {name!r}: trailing dims {chunk.shape[1:]} != "
                f"{meta['_trailing']}"
            )
        meta["_rows"] += int(chunk.shape[0]) if chunk.ndim else 0
        self._logical += int(chunk.nbytes)
        if chunk.size:
            self._write_chunk(meta, chunk.tobytes())

    def close(self, *, rows: int, n_columns: int) -> WriteInfo:
        if self._closed:
            raise ValueError("writer already closed")
        self._closed = True
        try:
            footer_arrays = []
            for name in self._order:
                meta = self._arrays[name]
                shape = meta["shape"]
                if shape is None:  # appendable array: finalize its shape
                    shape = [meta["_rows"], *meta["_trailing"]]
                footer_arrays.append(
                    {
                        "name": name,
                        "descr": meta["descr"],
                        "shape": shape,
                        "chunks": meta["chunks"],
                    }
                )
            footer = json.dumps(
                {"compression": _COMPRESSION, "arrays": footer_arrays}
            ).encode("utf-8")
            self._fh.write(footer)
            self._fh.write(len(footer).to_bytes(_FOOTER_LEN_BYTES, "little"))
            self._fh.write(_MAGIC)
            self._fh.close()
            os.replace(self._tmp, self._final_path)
        except BaseException:
            self.abort()
            raise
        return WriteInfo(
            path=self._final_path,
            rows=rows,
            n_columns=n_columns,
            logical_bytes=self._logical,
            disk_bytes=int(os.path.getsize(self._final_path)),
            seconds=self._seconds,
        )

    def abort(self) -> None:
        self._closed = True
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass


def _read_rblk_footer(fh) -> dict:
    fh.seek(-_TAIL_BYTES, os.SEEK_END)
    tail = fh.read(_TAIL_BYTES)
    if len(tail) != _TAIL_BYTES or tail[-len(_MAGIC) :] != _MAGIC:
        raise ValueError("not an RBLK block file (bad magic)")
    footer_len = int.from_bytes(tail[:_FOOTER_LEN_BYTES], "little")
    fh.seek(-(_TAIL_BYTES + footer_len), os.SEEK_END)
    footer = json.loads(fh.read(footer_len).decode("utf-8"))
    compression = footer["compression"]
    if compression != _COMPRESSION:
        # e.g. a file written by an older build's lzma or zlib codec
        raise ValueError(
            f"{fh.name}: unsupported block compression {compression!r}; "
            f"this build reads: {_COMPRESSION}"
        )
    return footer


def _contiguous_span(chunks: "list[list[int]]") -> "int | None":
    """First-chunk offset if the chunks are back to back."""

    offset = chunks[0][0]
    expect = offset
    for off, clen, rlen in chunks:
        if off != expect or clen != rlen:
            return None
        expect = off + clen
    return offset


def _decode_array(fh, meta: dict) -> np.ndarray:
    dtype = np.lib.format.descr_to_dtype(meta["descr"])
    shape = tuple(meta["shape"])
    buf = bytearray()
    for off, clen, rlen in meta["chunks"]:
        fh.seek(off)
        data = fh.read(clen)
        if len(data) != rlen:
            raise ValueError(
                f"corrupt block chunk: expected {rlen} raw bytes, "
                f"got {len(data)}"
            )
        buf += data
    if dtype.itemsize and len(buf):
        arr = np.frombuffer(buf, dtype=dtype)
    else:
        arr = np.empty(math.prod(shape), dtype=dtype)
    return arr.reshape(shape)


def _mmap_array(path: str, meta: dict) -> "np.ndarray | None":
    """Memory-mapped view of a contiguous array, or None."""

    dtype = np.lib.format.descr_to_dtype(meta["descr"])
    shape = tuple(meta["shape"])
    count = math.prod(shape)
    if count == 0 or dtype.itemsize == 0 or not meta["chunks"]:
        return None
    offset = _contiguous_span(meta["chunks"])
    if offset is None:
        return None
    view = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=(count,))
    return view.reshape(shape)


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------


class _RblkChunkedWriter:
    """Column-chunk writer: every append streams to disk."""

    def __init__(self, writer: _RblkWriter):
        self._writer = writer
        self._rows = 0
        self._n_columns = 0

    def append_columns(self, columns: Columns) -> None:
        columns = tuple(columns)
        self._n_columns = max(self._n_columns, len(columns))
        if columns:
            self._rows += int(columns[0].shape[0])
        for j, col in enumerate(columns):
            self._writer.append_rows(f"c{j}", col)

    def close(self) -> WriteInfo:
        return self._writer.close(rows=self._rows, n_columns=self._n_columns)

    def abort(self) -> None:
        self._writer.abort()


class BlockCodec:
    """Writes RBLK block files of uncompressed ``chunk_bytes`` chunks;
    stateless apart from the chunk size."""

    def __init__(self, chunk_bytes: int = CHUNK_BYTES):
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.chunk_bytes = chunk_bytes

    # -- whole-file writes -------------------------------------------

    def write_named(
        self, path: str, named: "dict[str, np.ndarray]"
    ) -> WriteInfo:
        writer = _RblkWriter(path, self.chunk_bytes)
        try:
            for name, arr in named.items():
                writer.put_array(name, arr)
        except BaseException:
            writer.abort()
            raise
        first = next(iter(named.values()), None)
        rows = int(first.shape[0]) if first is not None and first.ndim else 0
        return writer.close(rows=rows, n_columns=len(named))

    def write(self, path: str, columns: Columns) -> WriteInfo:
        named = {
            f"c{j}": _as_contiguous(col)
            for j, col in enumerate(columns)
        }
        return self.write_named(path, named)

    # -- streaming writes --------------------------------------------

    def open_writer(self, path: str):
        """A chunked writer: append_columns(chunk_cols)* then close()."""

        return _RblkChunkedWriter(_RblkWriter(path, self.chunk_bytes))


# ---------------------------------------------------------------------------
# Reads: by footer, no codec object needed
# ---------------------------------------------------------------------------

def read_named_file(
    path: str, names: "Sequence[str] | None" = None
) -> "dict[str, np.ndarray]":
    """Load a block file's arrays as a name -> array dict: the ``names``
    asked for (the others are not decoded), or all of them.  Contiguous
    arrays come back memory-mapped."""

    with open(path, "rb") as fh:
        footer = _read_rblk_footer(fh)
        metas = {meta["name"]: meta for meta in footer["arrays"]}
        out: "dict[str, np.ndarray]" = {}
        for name in metas if names is None else names:
            meta = metas[name]
            arr = _mmap_array(path, meta)
            if arr is None:
                arr = _decode_array(fh, meta)
            out[name] = arr
    return out


def read_block_file(path: str) -> "tuple[np.ndarray, ...]":
    """Load a columnar block file's columns ``c0..cN`` in order."""

    named = read_named_file(path)
    return tuple(named[f"c{j}"] for j in range(len(named)))


def read_arrays(path: str, names: Sequence[str]) -> "list[np.ndarray]":
    """Load only the requested arrays (lazy member access, not the file).

    The exchange reduce uses this to pull one destination's slots out of
    every map segment without decoding the other destinations.
    """

    members = read_named_file(path, names)
    return [members[name] for name in names]
