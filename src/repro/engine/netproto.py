"""Wire protocol for the cluster backend (DESIGN.md §12, §14).

The "cluster" executor promotes the pool backend's pipe protocol to
sockets: the driver speaks to standalone ``repro worker`` daemons over
TCP or unix-domain sockets, and this module defines the only thing both
sides must agree on — the framing and the handshake.  The *content* of
the frames is exactly the pool protocol (``("run", blob, descriptors)``
batches, in-order ``("ok"/"err", key, ...)`` replies); sockets merely
length-prefix it.

Frame layout (one frame per message, all integers big-endian)::

    u32 n_buffers | u64 meta_len | meta | (u64 len | buf) * n_buffers

``meta`` is a stdlib-pickle blob of a small control tuple (the task
payload inside a ``"run"`` meta is itself a cloudpickle blob produced by
the driver, so the daemon never needs to unpickle closures) and stays
small by construction.  The out-of-band ``buf`` sections carry pickle
protocol-5 buffers — the same large array buffers the pool backend parks
in shared-memory arenas ride the socket in frame order instead, as they
are: a probe of the e2e ``Generate`` job found compressing them costs
more wall clock than the loopback bytes it saves (CHANGES.md, PR 21).

Handshake: the connecting side sends ``("hello", PROTOCOL_VERSION,
config)``; the daemon answers ``("hello-ok", PROTOCOL_VERSION, info)``
or ``("hello-err", reason)`` and closes — a peer speaking another
version (version 2 framed buffers differently) is refused before any
buffer is read.  ``config`` is a plain dict; the driver uses it to
announce its role, its peer list (for the worker-to-worker block-fetch
tier), its spill roots (which the daemon then agrees to serve) and its
in-flight dispatch window (``window``, which sizes the daemon's
task-arena ring).

Heartbeats: the driver declares a busy worker dead after
``heartbeat_timeout`` seconds of silence (``REPRO_HEARTBEAT_TIMEOUT``)
and pings it every 1/30 of that.  The daemon answers pings from its event
loop even while its task child computes, so a long task never trips the
timeout; only a hung or dead peer does.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
from typing import Any, Sequence

from repro.config import parse_address

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "format_address",
    "connect",
    "build_frame",
    "send_message",
    "recv_message",
    "a_send_message",
    "a_recv_message",
    "client_handshake",
]

PROTOCOL_VERSION = 3

_HEADER = struct.Struct(">IQ")
_BUF_HEADER = struct.Struct(">Q")

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

def build_frame(obj: Any, buffers: Sequence = ()) -> "tuple[list, int]":
    """Serialize one message into writable parts; returns
    ``(parts, wire_bytes)``."""
    meta = pickle.dumps(obj, protocol=5)
    parts: list = [_HEADER.pack(len(buffers), len(meta)), meta]
    wire = _HEADER.size + len(meta)
    for buf in buffers:
        view = memoryview(buf)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        parts.append(_BUF_HEADER.pack(view.nbytes))
        parts.append(view)
        wire += _BUF_HEADER.size + view.nbytes
    return parts, wire


def _frame_lengths(head: bytes) -> "tuple[int, int]":
    n_buffers, meta_len = _HEADER.unpack(head)
    if meta_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame ({meta_len} bytes)")
    return n_buffers, meta_len


def _buffer_length(head: bytes) -> int:
    (length,) = _BUF_HEADER.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized buffer ({length} bytes)")
    return length


# ----------------------------------------------------------------------
# Blocking-socket framing (driver / fetch-client side)
# ----------------------------------------------------------------------

def send_message(
    sock: socket.socket, obj: Any, buffers: Sequence = ()
) -> int:
    """Send one framed message; returns the bytes written."""
    parts, wire = build_frame(obj, buffers)
    for part in parts:
        sock.sendall(part)
    return wire


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
) -> "tuple[Any, list[bytes], int] | None":
    """Receive one framed message: ``(obj, buffers, wire_bytes)``, or
    ``None`` on clean EOF."""
    head = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if head is None:
        return None
    n_buffers, meta_len = _frame_lengths(head)
    meta = _recv_exact(sock, meta_len, at_boundary=False)
    wire = _HEADER.size + meta_len
    buffers: list[bytes] = []
    for _ in range(n_buffers):
        length = _buffer_length(
            _recv_exact(sock, _BUF_HEADER.size, at_boundary=False)
        )
        buffers.append(_recv_exact(sock, length, at_boundary=False))
        wire += _BUF_HEADER.size + length
    return pickle.loads(meta), buffers, wire


# ----------------------------------------------------------------------
# Asyncio framing (daemon side)
# ----------------------------------------------------------------------

async def a_send_message(
    writer: asyncio.StreamWriter, obj: Any, buffers: Sequence = ()
) -> int:
    """Asyncio twin of :func:`send_message`.

    All ``write`` calls happen before the single ``drain`` await, so a
    frame is appended to the transport buffer atomically — concurrent
    senders on one writer (result pump vs. pong replies) can never
    interleave mid-frame.
    """
    parts, wire = build_frame(obj, buffers)
    for part in parts:
        writer.write(bytes(part) if isinstance(part, memoryview) else part)
    await writer.drain()
    return wire


async def _a_read_exact(
    reader: asyncio.StreamReader, n: int, *, at_boundary: bool
) -> bytes | None:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and at_boundary:
            return None
        raise ConnectionError("peer closed the connection mid-frame") from exc


async def a_recv_message(
    reader: asyncio.StreamReader,
) -> "tuple[Any, list[bytes], int] | None":
    """Asyncio twin of :func:`recv_message`."""
    head = await _a_read_exact(reader, _HEADER.size, at_boundary=True)
    if head is None:
        return None
    n_buffers, meta_len = _frame_lengths(head)
    meta = await _a_read_exact(reader, meta_len, at_boundary=False)
    wire = _HEADER.size + meta_len
    buffers: list[bytes] = []
    for _ in range(n_buffers):
        length = _buffer_length(
            await _a_read_exact(reader, _BUF_HEADER.size, at_boundary=False)
        )
        buffers.append(await _a_read_exact(reader, length, at_boundary=False))
        wire += _BUF_HEADER.size + length
    return pickle.loads(meta), buffers, wire


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------

def client_handshake(sock: socket.socket, config: dict) -> dict:
    """Run the connecting side of the handshake; returns the worker's
    info dict.  Raises :class:`ProtocolError` on rejection or version
    mismatch (the daemon rejects before looking at the config)."""
    send_message(sock, ("hello", PROTOCOL_VERSION, dict(config)))
    reply = recv_message(sock)
    if reply is None:
        raise ProtocolError("worker closed the connection during handshake")
    obj = reply[0]
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
