"""Wire protocol for the cluster backend (DESIGN.md §12, §14).

The "cluster" executor promotes the pool backend's pipe protocol to
sockets: the driver speaks to standalone ``repro worker`` daemons over
TCP or unix-domain sockets, and this module defines the only thing both
sides must agree on — the framing, the handshake and the negotiated
wire codec.  The *content* of the frames
is exactly the pool protocol (``("run", blob, descriptors)`` batches,
in-order ``("ok"/"err", key, ...)`` replies); sockets merely
length-prefix it.

Frame layout (one frame per message, all integers big-endian)::

    u32 n_buffers | u64 meta_len | meta
    | (u8 codec_id | u64 wire_len | u64 raw_len | buf) * n_buffers

``meta`` is a stdlib-pickle blob of a small control tuple (the task
payload inside a ``"run"`` meta is itself a cloudpickle blob produced by
the driver, so the daemon never needs to unpickle closures) and is never
compressed — it stays small by construction.  The out-of-band ``buf``
sections carry pickle protocol-5 buffers — the same large array buffers
the pool backend parks in shared-memory arenas ride the socket in frame
order instead.  Each buffer carries its own codec id (0 = raw, 1 = zlib
— the block-codec registry's compressor; 2 is reserved), so a receiver
never needs out-of-band agreement to decode a frame: mixed peers always
interoperate, the negotiated codec only decides what a *sender* tries.
A sender compresses a buffer only when it is at least
:data:`WIRE_COMPRESS_MIN_BYTES` long **and** compression actually shrank
it; incompressible buffers ship raw under codec id 0.

Handshake: the connecting side sends ``("hello", PROTOCOL_VERSION,
config)``; the daemon answers ``("hello-ok", PROTOCOL_VERSION, info)``
or ``("hello-err", reason)`` and closes.  ``config`` is a plain dict;
the driver uses it to announce its role, its peer list (for the
worker-to-worker block-fetch tier), its spill roots (which the daemon
then agrees to serve), its in-flight dispatch window (``max_inflight``,
which sizes the daemon's task-arena ring) and the wire codec it wants
(``wire_codec``).  The daemon echoes the codec it agreed to in the
``hello-ok`` info dict — a daemon that doesn't know the requested codec
agrees to ``"off"`` and the link still works, just uncompressed.

Heartbeats: the driver declares a busy worker dead after
``heartbeat_timeout`` seconds of silence (``REPRO_HEARTBEAT_TIMEOUT``)
and pings it every 1/30 of that.  The daemon answers pings from its event
loop even while its task child computes — and while large frames are
being decompressed off-loop — so a long task never trips the timeout;
only a hung or dead peer does.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
from typing import Any, Iterable, Sequence

from repro.config import parse_address

__all__ = [
    "PROTOCOL_VERSION",
    "WIRE_CODECS",
    "WIRE_COMPRESS_MIN_BYTES",
    "ProtocolError",
    "format_address",
    "connect",
    "build_frame",
    "decode_buffers",
    "send_message",
    "recv_message",
    "a_send_message",
    "a_recv_message",
    "a_recv_frame",
    "client_handshake",
    "negotiate_wire_codec",
]

PROTOCOL_VERSION = 2

# Sender-side codecs a buffer may be compressed with on the wire.  The
# names (and the compressors behind them) come from the block-codec
# registry (storage/codecs.py) so wire and disk compression stay one
# implementation; "off" ships every buffer raw.
WIRE_CODECS = ("off", "zlib")
# Id 2 was lzma in earlier builds and stays unassigned: a peer that still
# sends it must get ProtocolError, never another codec's decoder.
_WIRE_CODEC_IDS = {"off": 0, "zlib": 1}
_WIRE_CODEC_NAMES = {i: name for name, i in _WIRE_CODEC_IDS.items()}

# Buffers below this size ship raw even under a negotiated codec: the
# syscall/framing cost dominates and zlib on tiny payloads often grows
# them.  Matches the pool arena's out-of-band threshold so "large enough
# to go out-of-band" and "large enough to compress" are the same notion.
WIRE_COMPRESS_MIN_BYTES = 1 << 14

_HEADER = struct.Struct(">IQ")
_BUF_HEADER = struct.Struct(">BQQ")  # codec_id, wire_len, raw_len

# Sanity bound on any single length field: a corrupt or hostile peer
# must not make the receiver allocate petabytes.
MAX_FRAME_BYTES = 1 << 40


class ProtocolError(RuntimeError):
    """Handshake or framing violation on a cluster connection."""


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------

def format_address(addr: tuple) -> str:
    if addr[0] == "unix":
        return f"unix:{addr[1]}"
    return f"{addr[1]}:{addr[2]}"


def connect(spec: str, timeout: float | None = 10.0) -> socket.socket:
    """Open a blocking socket to a worker address spec.

    The timeout stays armed on the returned socket so the follow-up
    :func:`client_handshake` cannot block forever against a peer whose
    port accepts but never answers (e.g. a SIGKILLed daemon whose
    orphaned child still holds the listening fd).  A successful
    handshake disarms it."""
    addr = parse_address(spec)
    if addr[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(addr[1])
    else:
        sock = socket.create_connection((addr[1], addr[2]), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
    return sock


# ----------------------------------------------------------------------
# Frame building (shared by the blocking and asyncio senders)
# ----------------------------------------------------------------------

def _wire_compress(codec: str, view: memoryview) -> bytes:
    from .storage.codecs import _compress

    return _compress(codec, view)


def _wire_decompress(codec_id: int, payload: bytes, raw_len: int) -> bytes:
    from .storage.codecs import _decompress

    name = _WIRE_CODEC_NAMES.get(codec_id)
    if name is None:
        raise ProtocolError(f"unknown wire codec id {codec_id}")
    try:
        return _decompress(name, payload, raw_len)
    except Exception as exc:  # noqa: BLE001 - corrupt frame
        raise ProtocolError(f"corrupt compressed buffer: {exc}") from exc


def build_frame(
    obj: Any, buffers: Sequence = (), codec: str = "off"
) -> "tuple[list, int, int]":
    """Serialize one message into writable parts.

    Returns ``(parts, wire_bytes, raw_bytes)`` where ``raw_bytes`` is
    what the frame would have cost with compression off.  Pure function
    of its inputs and safe to call off the event loop (the daemon builds
    large reply frames in a thread so heartbeat pongs stay prompt).
    """
    meta = pickle.dumps(obj, protocol=5)
    parts: list = [_HEADER.pack(len(buffers), len(meta)), meta]
    wire = raw = _HEADER.size + len(meta)
    want = _WIRE_CODEC_IDS.get(codec, 0)
    for buf in buffers:
        view = memoryview(buf)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        nbytes = view.nbytes
        used, payload, payload_len = 0, view, nbytes
        if want and nbytes >= WIRE_COMPRESS_MIN_BYTES:
            packed = _wire_compress(codec, view)
            if len(packed) < nbytes:
                used, payload, payload_len = want, packed, len(packed)
        parts.append(_BUF_HEADER.pack(used, payload_len, nbytes))
        parts.append(payload)
        wire += _BUF_HEADER.size + payload_len
        raw += _BUF_HEADER.size + nbytes
    return parts, wire, raw


def decode_buffers(
    entries: "Iterable[tuple[int, bytes, int]]",
) -> "list[bytes]":
    """Decompress received ``(codec_id, payload, raw_len)`` buffer
    entries into raw bytes.  Codec id 0 is a passthrough with a length
    check.  CPU-bound for compressed entries — the daemon runs it in a
    thread so its event loop keeps answering pings."""
    return [
        _wire_decompress(codec_id, payload, raw_len)
        for codec_id, payload, raw_len in entries
    ]


# ----------------------------------------------------------------------
# Blocking-socket framing (driver / fetch-client side)
# ----------------------------------------------------------------------

def send_message(
    sock: socket.socket,
    obj: Any,
    buffers: Sequence = (),
    codec: str = "off",
) -> "tuple[int, int]":
    """Send one framed message; returns ``(wire_bytes, raw_bytes)``."""
    parts, wire, raw = build_frame(obj, buffers, codec)
    for part in parts:
        sock.sendall(part)
    return wire, raw


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a message
    boundary, :class:`ConnectionError` on EOF mid-frame."""
    data = bytearray(n)
    view = memoryview(data)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:])
        if read == 0:
            if got == 0 and at_boundary:
                return None
            raise ConnectionError("peer closed the connection mid-frame")
        got += read
    return bytes(data)


def recv_message(
    sock: socket.socket,
) -> "tuple[Any, list[bytes], int, int] | None":
    """Receive one framed message.

    Returns ``(obj, buffers, wire_bytes, raw_bytes)`` — buffers already
    decompressed — or ``None`` on clean EOF.
    """
    head = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if head is None:
        return None
    n_buffers, meta_len = _HEADER.unpack(head)
    if meta_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame ({meta_len} bytes)")
    meta = _recv_exact(sock, meta_len, at_boundary=False)
    wire = raw = _HEADER.size + meta_len
    buffers: list[bytes] = []
    for _ in range(n_buffers):
        head = _recv_exact(sock, _BUF_HEADER.size, at_boundary=False)
        codec_id, payload_len, raw_len = _BUF_HEADER.unpack(head)
        if payload_len > MAX_FRAME_BYTES or raw_len > MAX_FRAME_BYTES:
            raise ProtocolError(f"oversized buffer ({raw_len} bytes)")
        payload = _recv_exact(sock, payload_len, at_boundary=False)
        buffers.append(_wire_decompress(codec_id, payload, raw_len))
        wire += _BUF_HEADER.size + payload_len
        raw += _BUF_HEADER.size + raw_len
    return pickle.loads(meta), buffers, wire, raw


# ----------------------------------------------------------------------
# Asyncio framing (daemon side)
# ----------------------------------------------------------------------

async def a_send_message(
    writer: asyncio.StreamWriter,
    obj: Any,
    buffers: Sequence = (),
    codec: str = "off",
) -> "tuple[int, int]":
    """Asyncio twin of :func:`send_message`.

    All ``write`` calls happen before the single ``drain`` await, so a
    frame is appended to the transport buffer atomically — concurrent
    senders on one writer (result pump vs. pong replies) can never
    interleave mid-frame.
    """
    parts, wire, raw = build_frame(obj, buffers, codec)
    for part in parts:
        writer.write(bytes(part) if isinstance(part, memoryview) else part)
    await writer.drain()
    return wire, raw


async def _a_read_exact(
    reader: asyncio.StreamReader, n: int, *, at_boundary: bool
) -> bytes | None:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and at_boundary:
            return None
        raise ConnectionError("peer closed the connection mid-frame") from exc


async def a_recv_frame(
    reader: asyncio.StreamReader,
) -> "tuple[Any, list[tuple[int, bytes, int]], int, int] | None":
    """Receive one frame *without* decompressing its buffers.

    Returns ``(obj, entries, wire_bytes, raw_bytes)`` with ``entries``
    as ``(codec_id, payload, raw_len)`` tuples for a later
    :func:`decode_buffers` — the daemon defers that to a worker thread
    so a multi-megabyte decompression never stalls heartbeat pongs.
    ``None`` on clean EOF.
    """
    head = await _a_read_exact(reader, _HEADER.size, at_boundary=True)
    if head is None:
        return None
    n_buffers, meta_len = _HEADER.unpack(head)
    if meta_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame ({meta_len} bytes)")
    meta = await _a_read_exact(reader, meta_len, at_boundary=False)
    wire = raw = _HEADER.size + meta_len
    entries: list[tuple[int, bytes, int]] = []
    for _ in range(n_buffers):
        head = await _a_read_exact(reader, _BUF_HEADER.size, at_boundary=False)
        codec_id, payload_len, raw_len = _BUF_HEADER.unpack(head)
        if payload_len > MAX_FRAME_BYTES or raw_len > MAX_FRAME_BYTES:
            raise ProtocolError(f"oversized buffer ({raw_len} bytes)")
        payload = await _a_read_exact(reader, payload_len, at_boundary=False)
        entries.append((codec_id, payload, raw_len))
        wire += _BUF_HEADER.size + payload_len
        raw += _BUF_HEADER.size + raw_len
    return pickle.loads(meta), entries, wire, raw


async def a_recv_message(
    reader: asyncio.StreamReader,
) -> "tuple[Any, list[bytes], int, int] | None":
    """Asyncio twin of :func:`recv_message` (buffers decompressed
    inline; use :func:`a_recv_frame` to defer that)."""
    frame = await a_recv_frame(reader)
    if frame is None:
        return None
    obj, entries, wire, raw = frame
    return obj, decode_buffers(entries), wire, raw


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------

def client_handshake(sock: socket.socket, config: dict) -> dict:
    """Run the connecting side of the handshake; returns the worker's
    info dict (which echoes the agreed ``wire_codec``).  Raises
    :class:`ProtocolError` on rejection or version mismatch (the daemon
    rejects before looking at the config)."""
    send_message(sock, ("hello", PROTOCOL_VERSION, dict(config)))
    reply = recv_message(sock)
    if reply is None:
        raise ProtocolError("worker closed the connection during handshake")
    obj, _buffers, _wire, _raw = reply
    if not isinstance(obj, tuple) or not obj:
        raise ProtocolError(f"malformed handshake reply: {obj!r}")
    if obj[0] == "hello-err":
        raise ProtocolError(f"worker rejected handshake: {obj[1]}")
    if obj[0] != "hello-ok" or len(obj) < 3:
        raise ProtocolError(f"malformed handshake reply: {obj!r}")
    if obj[1] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: worker speaks {obj[1]}, "
            f"driver speaks {PROTOCOL_VERSION}"
        )
    # Handshake done: disarm the connect timeout — from here on the
    # socket is select()-driven (driver loop) or request/response with
    # its own timeout discipline (fetch client).
    sock.settimeout(None)
    return obj[2]


def negotiate_wire_codec(requested: "str | None") -> str:
    """Server-side half of codec negotiation: agree to a codec this
    build knows, fall back to ``"off"`` for anything else (per-buffer
    codec ids keep mixed peers interoperable either way)."""
    name = str(requested or "off").strip().lower()
    return name if name in WIRE_CODECS else "off"
