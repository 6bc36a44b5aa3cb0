"""Pluggable block codecs: how partition columns become bytes on disk.

The BlockStore historically serialized every spilled partition as a raw
uncompressed ``.npz``.  At the paper's Fig. 9 scales (10^8+ edges) the
spill traffic dominates the disk budget, so the codec behind block files
is now pluggable:

* ``raw``  — the legacy uncompressed ``.npz`` (``np.savez``/``np.load``);
  bit-exact, zero codec overhead, no streaming append.
* ``zlib`` — the RBLK chunk-compressed columnar container with
  DEFLATE (level 1) payload chunks; streams both ways.
* ``mmap`` — RBLK with *uncompressed* chunks; whole-array reads of
  read-only reloads come back as ``np.memmap`` views when the array's
  chunks are contiguous in the file, so a reload costs page-cache
  faults instead of an up-front copy.

RBLK container layout (``.blk``)::

    [chunk payload bytes ...]          # appended as they are produced
    [JSON footer, utf-8]               # see below
    [footer length, 8-byte little-endian]
    [magic b"RBLK01"]

The footer maps each array name to its dtype (``np.lib.format`` descr,
so byte order and structured dtypes round-trip), its shape, and a chunk
list of ``[file_offset, compressed_len, raw_len]`` triples.  Payload
first / footer last makes the format *streaming-append friendly*: a
chunked writer emits compressed chunks as tasks produce rows and only
assembles metadata at close.  Readers seek to the tail, verify the
magic, and load the footer — no codec object needed; block files are
self-describing and are always dispatched on extension + footer, never
on the session's active codec (a reduce task can read segments written
under any codec).

Bit-exactness: every codec stores the exact bytes of the C-contiguous
array (``zlib`` is lossless), so spill-and-reload returns
byte-identical columns and the engine's cross-backend digest guarantee
is codec-independent.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import config

Columns = Sequence[np.ndarray]

DEFAULT_CODEC = config.SETTINGS["block_codec"].default

_MAGIC = b"RBLK01"
_FOOTER_LEN_BYTES = 8
_TAIL_BYTES = _FOOTER_LEN_BYTES + len(_MAGIC)
# Footer ``compression`` tags a reader accepts.
_COMPRESSIONS = ("none", "zlib")

__all__ = [
    "CODECS",
    "DEFAULT_CODEC",
    "BlockCodec",
    "WriteInfo",
    "get_codec",
    "array_dtypes",
    "read_arrays",
    "read_block_file",
    "read_named_file",
    "iter_column_chunks",
    "set_missing_file_resolver",
]


@dataclass(frozen=True)
class WriteInfo:
    """What a codec write reports back for storage accounting."""

    path: str
    rows: int
    n_columns: int
    logical_bytes: int  # sum of array .nbytes (pre-codec)
    disk_bytes: int  # actual file size on disk (post-codec)
    seconds: float  # encode time, compression + file writes


def _atomic_tmp(path: str) -> str:
    """Temp name unique per process *and* thread (speculative duplicates)."""

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


def _compress(compression: str, data: bytes) -> bytes:
    if compression == "zlib":
        return zlib.compress(data, 1)
    return data


def _decompress(compression: str, payload: bytes, raw_len: int) -> bytes:
    data = zlib.decompress(payload) if compression == "zlib" else payload
    if len(data) != raw_len:
        raise ValueError(
            f"corrupt block chunk: expected {raw_len} raw bytes, "
            f"got {len(data)}"
        )
    return data


class _RblkWriter:
    """Appends payload chunks to a temp file; footer + rename at close."""

    def __init__(self, path: str, compression: str, chunk_bytes: int):
        self._final_path = path
        self._tmp = _atomic_tmp(path)
        self._fh = open(self._tmp, "wb")
        self._offset = 0
        self._compression = compression
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
        payload = _compress(self._compression, data)
        self._fh.write(payload)
        self._seconds += time.perf_counter() - t0
        meta["chunks"].append([self._offset, len(payload), len(data)])
        self._offset += len(payload)

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
        appended together stay row-aligned chunk for chunk — the k-way
        merge in the external sort zips their chunk iterators.
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
                {"compression": self._compression, "arrays": footer_arrays}
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
    if compression not in _COMPRESSIONS:
        # e.g. a checkpoint written by an older build's lzma codec
        raise ValueError(
            f"{fh.name}: unsupported block compression {compression!r}; "
            f"this build reads: {', '.join(_COMPRESSIONS)}"
        )
    return footer


def _contiguous_span(chunks: "list[list[int]]") -> "int | None":
    """First-chunk offset if uncompressed chunks are back to back."""

    offset = chunks[0][0]
    expect = offset
    for off, clen, rlen in chunks:
        if off != expect or clen != rlen:
            return None
        expect = off + clen
    return offset


def _decode_array(fh, meta: dict, compression: str) -> np.ndarray:
    dtype = np.lib.format.descr_to_dtype(meta["descr"])
    shape = tuple(meta["shape"])
    buf = bytearray()
    for off, clen, rlen in meta["chunks"]:
        fh.seek(off)
        buf += _decompress(compression, fh.read(clen), rlen)
    if dtype.itemsize and len(buf):
        arr = np.frombuffer(buf, dtype=dtype)
    else:
        arr = np.empty(math.prod(shape), dtype=dtype)
    return arr.reshape(shape)


def _mmap_array(path: str, meta: dict) -> "np.ndarray | None":
    """Memory-mapped view of an uncompressed contiguous array, or None."""

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


def _read_rblk(path: str, *, allow_mmap: bool) -> "dict[str, np.ndarray]":
    with open(path, "rb") as fh:
        footer = _read_rblk_footer(fh)
        compression = footer["compression"]
        out: "dict[str, np.ndarray]" = {}
        for meta in footer["arrays"]:
            arr = None
            if allow_mmap and compression == "none":
                arr = _mmap_array(path, meta)
            if arr is None:
                arr = _decode_array(fh, meta, compression)
            out[meta["name"]] = arr
    return out


def _iter_rblk_column(path: str, name: str) -> Iterator[np.ndarray]:
    """Stream one array's chunks without loading the rest of the file."""

    with open(path, "rb") as fh:
        footer = _read_rblk_footer(fh)
        compression = footer["compression"]
        for meta in footer["arrays"]:
            if meta["name"] != name:
                continue
            dtype = np.lib.format.descr_to_dtype(meta["descr"])
            trailing = tuple(meta["shape"][1:])
            for off, clen, rlen in meta["chunks"]:
                fh.seek(off)
                data = _decompress(compression, fh.read(clen), rlen)
                arr = np.frombuffer(bytearray(data), dtype=dtype)
                if trailing:
                    arr = arr.reshape((-1, *trailing))
                yield arr
            return
    raise KeyError(f"no array named {name!r} in {path}")


# ---------------------------------------------------------------------------
# Codec classes
# ---------------------------------------------------------------------------


class _RawChunkedWriter:
    """Chunked writer for the raw codec: buffers, concatenates, savez.

    ``.npz`` cannot be appended to, so the raw codec's streaming writer
    is *not* memory-bounded — it exists so streaming emission works
    uniformly under every codec; pick ``zlib`` or ``mmap`` when the
    bound matters (DESIGN.md §10).
    """

    def __init__(self, codec: "RawNpzCodec", path: str):
        self._codec = codec
        self._path = path
        self._chunks: "list[tuple[np.ndarray, ...]]" = []
        self._closed = False

    def append_columns(self, columns: Columns) -> None:
        self._chunks.append(tuple(_as_contiguous(c) for c in columns))

    def close(self) -> WriteInfo:
        if self._closed:
            raise ValueError("writer already closed")
        self._closed = True
        if not self._chunks:
            return self._codec.write(self._path, ())
        n_columns = len(self._chunks[0])
        columns = tuple(
            np.concatenate([chunk[j] for chunk in self._chunks])
            if len(self._chunks) > 1
            else self._chunks[0][j]
            for j in range(n_columns)
        )
        return self._codec.write(self._path, columns)

    def abort(self) -> None:
        self._closed = True
        self._chunks = []


class _RblkChunkedWriter:
    """Chunked writer for RBLK codecs: every append streams to disk."""

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
    """One way of turning named arrays into a self-describing block file."""

    name: str = "?"
    extension: str = "?"
    compression: str = "none"  # RBLK payload compression

    def __init__(self, chunk_bytes: "int | None" = None):
        self.chunk_bytes = (
            config.resolve("codec_chunk_bytes", chunk_bytes)
            if chunk_bytes is not None
            else None
        )

    def _resolved_chunk_bytes(self) -> int:
        if self.chunk_bytes is not None:
            return self.chunk_bytes
        return config.resolve("codec_chunk_bytes")

    # -- whole-file writes -------------------------------------------

    def write_named(
        self, path: str, named: "dict[str, np.ndarray]"
    ) -> WriteInfo:
        writer = _RblkWriter(
            path, self.compression, self._resolved_chunk_bytes()
        )
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

        return _RblkChunkedWriter(
            _RblkWriter(path, self.compression, self._resolved_chunk_bytes())
        )


class RawNpzCodec(BlockCodec):
    """The legacy format: one uncompressed ``.npz`` per block."""

    name = "raw"
    extension = ".npz"

    def write_named(
        self, path: str, named: "dict[str, np.ndarray]"
    ) -> WriteInfo:
        named = {k: _as_contiguous(v) for k, v in named.items()}
        t0 = time.perf_counter()
        tmp = _atomic_tmp(path)
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, **named)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        seconds = time.perf_counter() - t0
        first = next(iter(named.values()), None)
        return WriteInfo(
            path=path,
            rows=int(first.shape[0]) if first is not None and first.ndim else 0,
            n_columns=len(named),
            logical_bytes=int(sum(arr.nbytes for arr in named.values())),
            disk_bytes=int(os.path.getsize(path)),
            seconds=seconds,
        )

    def open_writer(self, path: str):
        return _RawChunkedWriter(self, path)


class ZlibCodec(BlockCodec):
    """RBLK with DEFLATE level-1 chunks: fast, ~2-4x on edge columns."""

    name = "zlib"
    extension = ".blk"
    compression = "zlib"


class MmapCodec(BlockCodec):
    """RBLK with uncompressed chunks; reloads memory-map when contiguous."""

    name = "mmap"
    extension = ".blk"
    compression = "none"


CODECS: "dict[str, type[BlockCodec]]" = {
    cls.name: cls for cls in (RawNpzCodec, ZlibCodec, MmapCodec)
}

_INSTANCES: "dict[str, BlockCodec]" = {}


def get_codec(name: "str | None" = None) -> BlockCodec:
    """Resolve + instantiate a codec (instances are stateless, cached)."""

    resolved = config.resolve("block_codec", name)
    codec = _INSTANCES.get(resolved)
    if codec is None:
        codec = CODECS[resolved]()
        _INSTANCES[resolved] = codec
    return codec


# ---------------------------------------------------------------------------
# Reads: extension + footer dispatch, independent of the active codec
# ---------------------------------------------------------------------------

# Remote tier hook (the cluster backend's worker-to-worker block fetch):
# when a reader asks for a block file that is not on local disk and a
# resolver is installed, it gets one chance to materialise the file
# (e.g. by fetching the bytes from a peer worker daemon) before the
# read proceeds — and fails with the ordinary FileNotFoundError if the
# resolver could not produce it.  Process-global on purpose: it is
# installed once per driver/worker process by the cluster layer and
# inherited by forked task children.
_MISSING_FILE_RESOLVER: "Callable[[Path], bool] | None" = None


def set_missing_file_resolver(
    resolver: "Callable[[Path], bool] | None",
) -> "Callable[[Path], bool] | None":
    """Install (or clear, with ``None``) the missing-block resolver;
    returns the previous one so callers can restore it."""

    global _MISSING_FILE_RESOLVER
    previous = _MISSING_FILE_RESOLVER
    _MISSING_FILE_RESOLVER = resolver
    return previous


def _ensure_local(path: str) -> str:
    if _MISSING_FILE_RESOLVER is not None and not os.path.exists(path):
        _MISSING_FILE_RESOLVER(Path(path))
    return path


def read_named_file(path: str) -> "dict[str, np.ndarray]":
    """Load every array of a block file as a name -> array dict."""

    path = _ensure_local(path)
    if path.endswith(".npz"):
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    return _read_rblk(path, allow_mmap=True)


def read_block_file(path: str) -> "tuple[np.ndarray, ...]":
    """Load a columnar block file's columns ``c0..cN`` in order."""

    named = read_named_file(path)
    return tuple(named[f"c{j}"] for j in range(len(named)))


def read_arrays(path: str, names: Sequence[str]) -> "list[np.ndarray]":
    """Load only the requested arrays (lazy member access, not the file).

    The exchange reduce uses this to pull one destination's slots out of
    every map segment without decoding the other destinations.
    """

    path = _ensure_local(path)
    if path.endswith(".npz"):
        with np.load(path) as archive:
            return [archive[name] for name in names]
    with open(path, "rb") as fh:
        footer = _read_rblk_footer(fh)
        compression = footer["compression"]
        metas = {meta["name"]: meta for meta in footer["arrays"]}
        out = []
        for name in names:
            meta = metas[name]
            arr = None
            if compression == "none":
                arr = _mmap_array(path, meta)
            if arr is None:
                arr = _decode_array(fh, meta, compression)
            out.append(arr)
    return out


def array_dtypes(path: str) -> "dict[str, np.dtype]":
    """Dtype of every array in a block file, from metadata when possible.

    RBLK answers from the footer alone; ``.npz`` has to load members
    (the raw codec is the non-streaming compatibility path).
    """

    path = _ensure_local(path)
    if path.endswith(".npz"):
        with np.load(path) as archive:
            return {name: archive[name].dtype for name in archive.files}
    with open(path, "rb") as fh:
        footer = _read_rblk_footer(fh)
    return {
        meta["name"]: np.lib.format.descr_to_dtype(meta["descr"])
        for meta in footer["arrays"]
    }


def iter_column_chunks(path: str, name: str) -> Iterator[np.ndarray]:
    """Stream one array chunk by chunk (whole array at once for .npz)."""

    path = _ensure_local(path)
    if path.endswith(".npz"):
        with np.load(path) as archive:
            yield archive[name]
        return
    yield from _iter_rblk_column(path, name)
