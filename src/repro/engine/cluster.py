"""Multi-host "cluster" executor: socket worker daemons + remote blocks.

The socket transport under the engine's one dispatcher (DESIGN.md §9,
§12).  Three pieces:

:class:`WorkerDaemon` / ``repro worker --listen <addr>``
    A standalone asyncio server.  Each driver connection handshakes
    (protocol version + session config) and gets a private *task child*
    — a :class:`~repro.engine.executor._PipeChild` running the pool
    backend's :func:`~repro.engine.executor._pool_worker_main` loop
    verbatim, so task semantics (in-order execution, arena result
    transport, ``os._exit`` on injected kills) are identical to the
    pool.  The daemon's event loop bridges socket frames to the child's
    pipe and keeps answering heartbeat pings while the child computes,
    so a slow task never looks like a dead worker.  Fetch connections
    serve spill/shuffle blocks by file name to peers (see below).

:class:`ClusterExecutor` (``ClusterContext(executor="cluster",
workers=[...])`` / ``REPRO_WORKERS`` / ``--workers``)
    The driver side: connects to each daemon and hands the links to
    :class:`~repro.engine.executor._Dispatcher` as its channels, so
    scheduling, blame-and-requeue recovery and speculation are the
    pool's, literally.  A :class:`_Link` adds only what a socket needs:
    ``("run", blob, epoch)`` cloudpickle batches as length-prefixed
    frames with large array buffers out-of-band (pickle protocol 5), a
    window of two in-flight batches per link, and two loss detectors —
    socket EOF/reset (daemon killed) and heartbeat timeout (daemon
    hung).

:class:`BlockFetcher`
    The remote tier of the BlockStore: installed via
    :func:`repro.engine.storage.codecs.set_missing_file_resolver` on the
    driver and (pre-fork, so children inherit it) in each daemon, it
    resolves a missing spill/shuffle file by asking every peer daemon
    for the file by name and materialising the bytes at the expected
    path — so reduce tasks pull shuffle segments worker-to-worker
    instead of through the driver.  Blocks travel as their on-disk
    codec containers (PR 6), already compressed and checksummed, and
    stream as bounded chunks (RBLK01 chunk-table aligned) instead of
    one whole-file frame.

Transport performance (DESIGN.md §14): dispatch is pipelined — two
batches ride each link so the driver serializes and ships batch N+1
while the daemon's task child computes batch N.

Determinism: the cluster backend changes only *where* tasks run, never
what they compute — digests and simulated stage records stay
byte-identical to the serial backend per seed, which is enforced by
folding "cluster" into ``available_backends()`` for every existing
backend-matrix test.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from ..config import parse_address, resolve
from .executor import (
    _Channel,
    _cloudpickle,
    _Dispatcher,
    _dump_out_of_band,
    _Lost,
    _PipeChild,
    _pool_worker_main,
    Task,
)
from .netproto import (
    PROTOCOL_VERSION,
    ProtocolError,
    a_recv_message,
    a_send_message,
    client_handshake,
    connect,
    recv_message,
    send_message,
)

# A busy link is pinged this many times per ``heartbeat_timeout``: the
# daemon has that many chances to answer before it is declared lost.
_PINGS_PER_TIMEOUT = 30

__all__ = [
    "ClusterExecutor",
    "WorkerDaemon",
    "BlockFetcher",
    "sockets_available",
    "launch_worker",
    "shutdown_worker",
]

def sockets_available() -> bool:
    """Can this host bind a loopback TCP socket?  (Sandboxes may not.)"""
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
            probe.listen(1)
        finally:
            probe.close()
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# Remote block fetch (the BlockStore's worker-to-worker tier)
# ----------------------------------------------------------------------

def _locate_block(roots: Sequence[str], name: str) -> "Path | None":
    """Find a served block file by bare name under any served root.

    Names are opaque ids (spill blocks, shuffle segments, checkpoints
    all embed unique ids in their file names), so a flat name search is
    exact; anything path-like is rejected outright — a fetch request
    can never escape the served roots."""
    if (
        not name
        or os.sep in name
        or (os.altsep and os.altsep in name)
        or name in (".", "..")
        or name.startswith(".")
    ):
        return None
    for root in roots:
        if not os.path.isdir(root):
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            if name in filenames:
                return Path(dirpath) / name
    return None


class BlockFetcher:
    """Missing-file resolver that pulls blocks from peer worker daemons.

    Installed via :func:`~repro.engine.storage.codecs.
    set_missing_file_resolver`; called with the path a reader wanted and
    did not find.  Asks each peer for the file by name over a cached
    fetch connection; the peer streams it as bounded chunks (RBLK
    chunk-table aligned) that are written incrementally to a tmp file
    and renamed into place only when the stream completes — a dropped
    connection mid-transfer leaves no torn block *and no orphan tmp
    file*.  Returns True iff some peer had the block."""

    def __init__(
        self,
        peers: Sequence[str],
        *,
        exclude: Sequence[str] = (),
        timeout: float = 10.0,
        transport: Any = None,
    ) -> None:
        skip = set(exclude)
        self.peers = [str(p) for p in peers if str(p) not in skip]
        self.timeout = timeout
        self.transport = transport
        self.fetched = 0
        self.fetched_bytes = 0
        self.misses = 0
        self._socks: dict[str, socket.socket] = {}
        self._lock = threading.Lock()

    # -- connection plumbing -------------------------------------------
    def _open(self, peer: str) -> socket.socket:
        sock = connect(peer, timeout=self.timeout)
        client_handshake(sock, {"role": "fetch"})
        return sock

    def _drop(self, peer: str) -> None:
        sock = self._socks.pop(peer, None)
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    def _meter(self, wire: int, trips: int) -> None:
        if self.transport is None:
            return
        self.transport.network_bytes += wire
        self.transport.round_trips += trips

    def _stream(self, sock: socket.socket, name: str, sink) -> bool:
        """Request one block over an established fetch connection and
        feed its chunks to ``sink``; True when the stream completed,
        False when the peer doesn't have (or aborted) the block.  Raises
        on connection trouble — the caller drops the socket, so a
        partially-consumed stream can never desynchronise later
        requests."""
        wire = trips = 0
        try:
            wire, trips = send_message(sock, ("fetch", name)), 1
            while True:
                reply = recv_message(sock)
                if reply is None:
                    raise ConnectionError(
                        f"fetch peer closed the connection mid-stream "
                        f"for {name!r}"
                    )
                obj, buffers, received = reply
                wire, trips = wire + received, trips + 1
                tag = obj[0]
                if tag == "chunk":
                    if buffers:
                        sink(buffers[0])
                    continue
                if tag == "fetch-end":
                    return True
                if tag == "fetch-err":
                    return False
                raise ProtocolError(
                    f"unexpected fetch reply {tag!r} for {name!r}"
                )
        finally:
            self._meter(wire, trips)

    def _fetch_to(self, peer: str, name: str, path: Path) -> bool:
        """Stream ``name`` from ``peer`` into a tmp file next to ``path``
        and rename it into place; the tmp file is unlinked on *any*
        failure (dropped connections used to orphan these)."""
        sock = self._socks.get(peer)
        if sock is None:
            sock = self._open(peer)
            self._socks[peer] = sock
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.fetch-{os.getpid()}")
        placed = False
        try:
            with open(tmp, "wb") as fh:
                hit = self._stream(sock, name, fh.write)
                nbytes = fh.tell()
            if hit:
                os.replace(tmp, path)
                placed = True
                self.fetched_bytes += nbytes
            return hit
        finally:
            if not placed:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

    def __call__(self, path: "Path | str") -> bool:
        path = Path(path)
        name = path.name
        with self._lock:
            for peer in list(self.peers):
                try:
                    hit = self._fetch_to(peer, name, path)
                except (OSError, ConnectionError, ProtocolError, ValueError):
                    self._drop(peer)
                    continue
                if hit:
                    self.fetched += 1
                    return True
            self.misses += 1
            return False

    def close(self) -> None:
        with self._lock:
            for peer in list(self._socks):
                self._drop(peer)


# ----------------------------------------------------------------------
# Worker daemon (the `repro worker --listen <addr>` server)
# ----------------------------------------------------------------------

def _daemon_child_main(
    conn: Any, inherited_fds: "tuple[int, ...]", result_arenas: int = 1
) -> None:
    """Task-child entry point: drop the daemon's inherited sockets
    before running the pool worker loop.  A fork child that keeps the
    listening fd would hold the port open after the daemon is killed —
    connects would land in a backlog nobody accepts — and a kept
    accepted-connection fd would stop the driver's socket from seeing
    EOF when the daemon dies.

    ``result_arenas`` is the session's in-flight window: under
    pipelined dispatch this child computes batch N+1 while the daemon
    is still copying batch N's result buffers out to the driver socket,
    so the result arena must be a ring as deep as the window."""
    for fd in inherited_fds:
        with contextlib.suppress(OSError):
            os.close(fd)
    _pool_worker_main(conn, result_arenas=result_arenas)


def _pump_child(conn: Any, proc: Any, loop: Any, queue: Any) -> None:
    """Bridge thread: blocking-read the task child's pipe, hand each
    reply to the daemon event loop.  On EOF the child is gone — report
    its exit code so the driver can run death recovery."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            loop.call_soon_threadsafe(queue.put_nowait, msg)
        except RuntimeError:  # event loop already closed
            return
    proc.join()
    with contextlib.suppress(RuntimeError):
        loop.call_soon_threadsafe(
            queue.put_nowait, ("__died__", proc.exitcode)
        )


def _fetch_chunk_plan(path: Path) -> "list[tuple[int, int]]":
    """Spans to stream a served block file in: the RBLK01 chunk table
    when the file is an RBLK container (each payload chunk is one
    frame, the footer rides the final span), fixed ``CHUNK_BYTES``
    slices otherwise."""
    from .storage.codecs import CHUNK_BYTES, _read_rblk_footer

    size = os.path.getsize(path)
    if size == 0:
        return []
    spans: "list[tuple[int, int]]" = []
    try:
        with open(path, "rb") as fh:
            footer = _read_rblk_footer(fh)
        chunks = sorted(
            (int(chunk[0]), int(chunk[1]))
            for meta in footer["arrays"]
            for chunk in meta["chunks"]
        )
        end = 0
        for offset, length in chunks:
            if offset != end:  # overlap/gap: fall back to fixed slicing
                raise ValueError("non-contiguous chunk table")
            spans.append((offset, length))
            end = offset + length
        if end > size:
            raise ValueError("chunk table past EOF")
        if end < size:
            spans.append((end, size - end))  # JSON footer + magic tail
        return spans
    except (ValueError, KeyError, TypeError, OSError):
        return [
            (offset, min(CHUNK_BYTES, size - offset))
            for offset in range(0, size, CHUNK_BYTES)
        ]


def _read_span(path: Path, offset: int, length: int) -> bytes:
    with open(path, "rb") as fh:
        fh.seek(offset)
        return fh.read(length)


class _DriverSession:
    """One driver connection's server-side state: a private task child
    running :func:`_pool_worker_main` over a fork pipe, plus the arenas
    bridging socket frames to the pool wire protocol.

    Pipelined dispatch needs one task arena per in-flight batch: the
    child holds views into batch N's arena until it finishes computing
    N, so recycling a single arena while shipping batch N+1 would
    corrupt N's buffers mid-task.  The handshake's ``window``
    sizes the child's arena ring — the driver never has more than that
    many batches outstanding."""

    def __init__(self, daemon: "WorkerDaemon", config: dict, loop) -> None:
        self.daemon = daemon
        self.loop = loop
        self.queue: asyncio.Queue = asyncio.Queue()
        self.window = max(1, min(int(config.get("window") or 1), 64))
        # Task-child deaths reported to the driver so far.  A run frame
        # stamped with a lower epoch was dispatched by the driver before
        # it learned of the death — the driver has already requeued those
        # tasks, so executing the frame here would double-run them.
        self.child_deaths = 0
        self.child: "_PipeChild | None" = None
        # Install the remote-fetch resolver BEFORE any fork, so task
        # children inherit it: a reduce task that misses a shuffle
        # segment on local disk pulls it from a peer daemon directly.
        peers = [str(p) for p in config.get("peers", ())]
        self._fetcher: "BlockFetcher | None" = None
        self._had_resolver = False
        self._previous_resolver: Any = None
        if peers:
            from .storage.codecs import set_missing_file_resolver

            self._fetcher = BlockFetcher(
                peers, exclude=(daemon.bound_address or "",)
            )
            self._previous_resolver = set_missing_file_resolver(self._fetcher)
            self._had_resolver = True

    def _spawn_child(self) -> None:
        self.child = child = _PipeChild(
            _daemon_child_main,
            (self.daemon.child_close_fds(), self.window),
            self.window,
        )
        self.daemon.children_forked += 1
        threading.Thread(
            target=_pump_child,
            args=(child.conn, child.proc, self.loop, self.queue),
            daemon=True,
        ).start()

    def dispatch(self, blob: bytes, buffers: Sequence[bytes]) -> None:
        """Forward one ("run", blob)+buffers frame to the task child as
        a pool-protocol batch: out-of-band socket buffers become task
        arena descriptors the child maps by name.

        Only a retired child (``child is None``) triggers a respawn: a
        child that is dead but not yet reported must NOT be replaced
        here, or a batch the driver still counts against the dead child
        would run on the new one.  Writes to the dead pipe are simply
        lost — the pump thread reports the death and the driver
        requeues them."""
        if self.child is None:
            self._spawn_child()
        arena = self.child.next_arena()
        descriptors = [arena.write(memoryview(buf)) for buf in buffers]
        if self.child.send("run", blob, descriptors):
            self.daemon.batches_dispatched += 1

    async def pump_replies(self, writer: asyncio.StreamWriter) -> None:
        """Forward child replies to the driver socket.  Result arena
        views are copied to bytes immediately — the child recycles its
        arena on the next batch, the socket frame must outlive that."""
        while True:
            msg = await self.queue.get()
            tag = msg[0]
            if tag == "ok":
                _tag, key, payload, descriptors, duration = msg
                buffers = [
                    bytes(self.child.reader.view(*descriptor))
                    for descriptor in descriptors
                ]
                await a_send_message(
                    writer, ("ok", key, payload, duration), buffers
                )
            elif tag == "err":
                await a_send_message(writer, ("err", msg[1], msg[2], msg[3]))
            elif tag == "__died__":
                self.child_deaths += 1
                self._retire_child()
                self.daemon.children_died += 1
                await a_send_message(writer, ("died", msg[1]))

    def _retire_child(self) -> None:
        child, self.child = self.child, None
        if child is not None:
            child.retire()

    def close(self) -> None:
        if self.child is not None:
            self.child.send("stop")
        self._retire_child()
        if self._fetcher is not None:
            self._fetcher.close()
        if self._had_resolver:
            from .storage.codecs import set_missing_file_resolver

            set_missing_file_resolver(self._previous_resolver)


class WorkerDaemon:
    """Asyncio server side of the cluster backend.

    ``listen`` is a ``host:port`` (port 0 = ephemeral) or ``unix:/path``
    spec; ``served_roots`` seeds the directories whose files the fetch
    protocol may serve (driver handshakes add their session spill roots
    to the set).  One daemon serves any number of sequential or
    concurrent driver sessions, each with its own task child.
    """

    def __init__(
        self, listen: str = "127.0.0.1:0", *, served_roots: Sequence = ()
    ) -> None:
        parse_address(listen)  # fail fast
        self.listen_spec = listen
        self.served_roots: set[str] = {str(Path(r)) for r in served_roots}
        self.bound_address: "str | None" = None
        self.children_forked = 0
        self.children_died = 0
        self.batches_dispatched = 0
        self.blocks_served = 0
        self.sessions_served = 0
        self._server: Any = None
        self._stop: "asyncio.Event | None" = None
        self._client_fds: set[int] = set()

    def child_close_fds(self) -> "tuple[int, ...]":
        """Daemon-owned socket fds a forked task child must close: the
        listening sockets plus every live accepted connection."""
        fds = set(self._client_fds)
        if self._server is not None:
            for sock in self._server.sockets:
                fds.add(sock.fileno())
        return tuple(fd for fd in fds if fd >= 0)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> str:
        addr = parse_address(self.listen_spec)
        self._stop = asyncio.Event()
        if addr[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle, path=addr[1]
            )
            self.bound_address = f"unix:{addr[1]}"
        else:
            self._server = await asyncio.start_server(
                self._handle, addr[1], addr[2]
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self.bound_address = f"{host}:{port}"
        return self.bound_address

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def _main(self, announce: "Callable[[str], None] | None") -> None:
        await self.start()
        if announce is not None:
            announce(self.bound_address)
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            addr = parse_address(self.listen_spec)
            if addr[0] == "unix":
                with contextlib.suppress(OSError):
                    os.unlink(addr[1])

    def run(self, *, announce: "Callable[[str], None] | None" = None) -> None:
        """Blocking entry point (the ``repro worker`` subcommand)."""
        asyncio.run(self._main(announce))

    # -- connection handling -------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_sock = writer.get_extra_info("socket")
        conn_fd = conn_sock.fileno() if conn_sock is not None else -1
        if conn_fd >= 0:
            self._client_fds.add(conn_fd)
        try:
            frame = await a_recv_message(reader)
            if frame is None:
                return
            obj = frame[0]
            if not (
                isinstance(obj, tuple) and len(obj) >= 3 and obj[0] == "hello"
            ):
                await a_send_message(
                    writer, ("hello-err", f"expected hello, got {obj!r}")
                )
                return
            version, config = obj[1], obj[2]
            if version != PROTOCOL_VERSION:
                await a_send_message(
                    writer,
                    (
                        "hello-err",
                        f"protocol version mismatch: peer speaks {version}, "
                        f"worker speaks {PROTOCOL_VERSION}",
                    ),
                )
                return
            for root in config.get("spill_roots", ()):
                self.served_roots.add(str(root))
            await a_send_message(
                writer,
                (
                    "hello-ok",
                    PROTOCOL_VERSION,
                    {"pid": os.getpid(), "roots": len(self.served_roots)},
                ),
            )
            if config.get("role") == "fetch":
                await self._serve_fetch(reader, writer)
            else:
                self.sessions_served += 1
                await self._serve_driver(reader, writer, config)
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            self._client_fds.discard(conn_fd)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_fetch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve block files as streams of bounded chunk frames: one
        frame per RBLK payload chunk (fixed-size slices for non-RBLK
        files), terminated by ``fetch-end``.  File reads run in worker
        threads, so slow disks never stall the daemon's event loop."""
        while True:
            frame = await a_recv_message(reader)
            if frame is None:
                return
            obj = frame[0]
            if obj[0] != "fetch":
                await a_send_message(
                    writer, ("fetch-err", f"unexpected message {obj[0]!r}")
                )
                continue
            name = obj[1]
            roots = tuple(self.served_roots)
            path = await asyncio.to_thread(_locate_block, roots, name)
            if path is None:
                await a_send_message(
                    writer,
                    (
                        "fetch-err",
                        f"block {name!r} not found under "
                        f"{len(roots)} served root(s)",
                    ),
                )
                continue
            try:
                plan = await asyncio.to_thread(_fetch_chunk_plan, path)
                total = 0
                for seq, (offset, length) in enumerate(plan):
                    data = await asyncio.to_thread(
                        _read_span, path, offset, length
                    )
                    await a_send_message(
                        writer, ("chunk", name, seq), [data]
                    )
                    total += length
            except OSError as exc:
                # The file vanished or turned unreadable mid-stream
                # (e.g. a concurrent spill eviction): abort the stream.
                # The client discards the partial tmp file.
                await a_send_message(
                    writer, ("fetch-err", f"read failed for {name!r}: {exc}")
                )
                continue
            self.blocks_served += 1
            await a_send_message(writer, ("fetch-end", name, total))

    async def _serve_driver(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        config: dict,
    ) -> None:
        """Bridge one driver connection to its task child: answer
        pings, forward ``run`` frames in arrival order."""
        session = _DriverSession(self, config, asyncio.get_running_loop())
        pump = asyncio.ensure_future(session.pump_replies(writer))
        try:
            while True:
                frame = await a_recv_message(reader)
                if frame is None:
                    break
                obj, buffers, _wire = frame
                tag = obj[0]
                if tag == "ping":
                    await a_send_message(writer, ("pong", obj[1]))
                elif tag == "run":
                    # A frame stamped before a death the driver has
                    # since been told about: the driver requeued these
                    # tasks, so running them here would double-execute
                    # them (and desync its strict-order reply
                    # accounting).
                    if obj[2] >= session.child_deaths:
                        session.dispatch(obj[1], buffers)
                elif tag == "stop":
                    break
                elif tag == "shutdown":
                    self.request_stop()
                    break
        finally:
            pump.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pump
            session.close()


# ----------------------------------------------------------------------
# Daemon process helpers (tests, CI, benchmarks)
# ----------------------------------------------------------------------

def launch_worker(
    listen: str = "127.0.0.1:0",
    *,
    roots: Sequence = (),
    env: "dict[str, str] | None" = None,
    timeout: float = 30.0,
) -> "tuple[subprocess.Popen, str]":
    """Spawn a ``repro worker`` daemon subprocess; returns
    ``(process, bound_address)`` once the daemon announces it is
    listening (ephemeral port 0 resolves to the real port)."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    full_env = dict(os.environ if env is None else env)
    full_env["PYTHONPATH"] = (
        src_dir + os.pathsep + full_env["PYTHONPATH"]
        if full_env.get("PYTHONPATH")
        else src_dir
    )
    cmd = [sys.executable, "-m", "repro.cli", "worker", "--listen", listen]
    for root in roots:
        cmd += ["--root", str(root)]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=full_env,
    )
    line: list[str] = []

    def _read() -> None:
        line.append(proc.stdout.readline())

    reader = threading.Thread(target=_read, daemon=True)
    reader.start()
    reader.join(timeout)
    banner = line[0] if line else ""
    if not banner.startswith("listening on "):
        proc.kill()
        proc.wait(timeout=5.0)
        reader.join(timeout=1.0)  # readline sees EOF once proc is dead
        with contextlib.suppress(OSError):
            proc.stdout.close()
        raise RuntimeError(
            f"worker daemon failed to start (said {banner!r})"
        )
    # The daemon prints nothing after the banner; close our end of the
    # pipe now or the Popen leaks an fd (ResourceWarning under -X dev).
    proc.stdout.close()
    return proc, banner[len("listening on "):].strip()


def shutdown_worker(spec: str, timeout: float = 5.0) -> bool:
    """Ask a daemon to exit cleanly; False if it was unreachable."""
    try:
        sock = connect(spec, timeout=timeout)
    except (OSError, ValueError):
        return False
    try:
        client_handshake(sock, {"role": "driver", "peers": []})
        send_message(sock, ("shutdown",))
        return True
    except (OSError, ConnectionError, ProtocolError):
        return False
    finally:
        with contextlib.suppress(OSError):
            sock.close()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

class _Link(_Channel):
    """The socket channel: one connected worker daemon."""

    def __init__(
        self, executor: "ClusterExecutor", spec: str, sock: socket.socket
    ) -> None:
        super().__init__()
        self.executor = executor
        self.spec = spec
        self.label = f"cluster worker {spec}"
        self.sock = sock
        self.epoch = 0  # task-child generation: +1 per ("died", ...) seen
        self.last_heard = self.last_ping = time.monotonic()

    def send(self, entries: "list[tuple[int, Task, bool]]") -> bool:
        ex = self.executor
        serialize_started = time.perf_counter()
        # Serialize/send time spent while any worker already holds a
        # batch is overlapped with remote compute — that overlap is the
        # payoff of pipelined dispatch, metered in overlap_seconds.
        overlapped = any(other.assigned for other in ex._channels)
        buffers: list = []  # out-of-band, by the pool arena's policy
        blob = _dump_out_of_band(
            [(key, fn) for key, fn, _ in entries], _cloudpickle, buffers.append
        )
        send_started = time.perf_counter()
        try:
            # The epoch stamps this batch with how many task-child deaths
            # the driver has processed on this link; the daemon drops any
            # batch stamped before its own death count, so a batch that
            # was in flight when the child died (already blamed and
            # requeued here) can never also run on the replacement child.
            wire = send_message(
                self.sock, ("run", blob, self.epoch), buffers
            )
        except (OSError, ValueError):
            return False
        now = time.perf_counter()
        ex.transport.serialize_seconds += send_started - serialize_started
        ex.transport.submit_seconds += now - send_started
        if overlapped:
            ex.transport.overlap_seconds += now - serialize_started
        ex.transport.payload_bytes += len(blob) + sum(
            buf.nbytes for buf in buffers
        )
        ex._meter(wire)
        if not self.assigned:
            # Idle links are neither pinged nor heard from, so the
            # silence clock restarts when work resumes — else any idle
            # gap longer than heartbeat_timeout reads as a dead daemon.
            self.last_heard = self.last_ping = time.monotonic()
        return True

    def waitables(self) -> list:
        return [self.sock]

    def poll(self) -> "tuple | None":
        """EOF or a reset mid-read means the daemon is gone; so does a
        busy link that stays silent past the heartbeat timeout."""
        ex = self.executor
        while True:
            try:
                readable, _, _ = select.select([self.sock], [], [], 0)
            except OSError:
                readable = [self.sock]
            if not readable:
                self._heartbeat()
                return None
            try:
                frame = recv_message(self.sock)
            except (ConnectionError, OSError, ProtocolError) as exc:
                raise _Lost(f"lost (connection lost: {exc})") from exc
            if frame is None:
                raise _Lost("lost (connection closed)")
            obj, buffers, wire = frame
            self.last_heard = time.monotonic()
            ex._meter(wire)
            tag = obj[0]
            if tag == "pong":
                continue
            if tag == "died":
                # The daemon's task child died (e.g. an injected kill);
                # the daemon itself is fine and stays in the ring.
                ex.children_died += 1
                self.epoch += 1  # mirrors the daemon's death count exactly
                return ("died", f"task child exited with code {obj[1]}")
            if tag == "ok":
                _tag, key, payload, duration = obj
                return ("ok", key, (payload, buffers), duration)
            return obj  # ("err", key, exception, duration)

    def _heartbeat(self) -> None:
        ex = self.executor
        if not self.assigned:
            return  # idle links aren't pinged, so never time out
        now = time.monotonic()
        silence = now - self.last_heard
        if silence > ex.heartbeat_timeout:
            raise _Lost(
                f"lost (heartbeat timeout: no reply for {silence:.2f}s "
                f"(limit {ex.heartbeat_timeout}s))"
            )
        if now - self.last_ping >= ex._wake_seconds:
            try:
                wire = send_message(self.sock, ("ping", now))
            except (OSError, ValueError) as exc:
                raise _Lost("lost (ping failed)") from exc
            self.last_ping = now
            ex._meter(wire)


class ClusterExecutor(_Dispatcher):
    """Socket driver for remote worker daemons: the dispatcher over
    :class:`_Link` channels.

    Every link carries up to two batches, so the driver serializes and
    ships batch N+1 while the daemon's task child computes batch N (no
    other depth beat 2 in the PR 21 probe).  Two loss detectors: socket
    EOF/reset, and a heartbeat (each busy link is dead after
    ``heartbeat_timeout`` seconds of silence and pinged every 1/30 of
    that).  A daemon whose *task child* died (e.g. an injected
    ``os._exit`` kill) reports ``("died", exitcode)`` and stays in the
    ring; only daemon loss removes the link.  Lost links are retried at
    the next batch, so a restarted daemon rejoins transparently.

    Unlike the local backends, ``workers`` is not a count — it is the
    address list (``ClusterContext(workers=[...])`` / ``REPRO_WORKERS``).
    """

    name = "cluster"
    _window = 2

    def __init__(
        self,
        workers: "Sequence[str] | str | None" = None,
        *,
        heartbeat_timeout: "float | None" = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self.addresses = resolve("workers", workers)
        if not self.addresses:
            raise ValueError(
                "the 'cluster' backend needs worker addresses: start daemons "
                "with 'repro worker --listen host:port' and list them in "
                "REPRO_WORKERS (comma-separated) or "
                "ClusterContext(workers=[...])"
            )
        super().__init__(len(self.addresses))
        self.heartbeat_timeout = resolve(
            "heartbeat_timeout", heartbeat_timeout
        )
        self.connect_timeout = connect_timeout
        # The ping cadence, and so the tick the dispatcher must wake at.
        self._wake_seconds = self.heartbeat_timeout / _PINGS_PER_TIMEOUT
        self._lost: list[str] = []
        self._spill_roots: set[str] = set()
        self._fetcher: "BlockFetcher | None" = None
        self._previous_resolver: Any = None
        self.workers_lost = 0
        self.workers_rejoined = 0
        self.children_died = 0

    def _meter(self, wire: int) -> None:
        """Count one framed socket message."""
        self.transport.network_bytes += wire
        self.transport.round_trips += 1

    # -- link management ----------------------------------------------
    def register_spill_root(self, path) -> None:
        """Advertise a spill/shuffle directory to every daemon (called
        by the context once storage exists; daemons serve these files
        to peers through the fetch protocol)."""
        self._spill_roots.add(str(path))

    def _handshake_config(self) -> dict:
        return {
            "role": "driver",
            "peers": list(self.addresses),
            "spill_roots": sorted(self._spill_roots),
            "window": self._window,
        }

    def _connect_link(self, spec: str) -> _Link:
        sock = connect(spec, timeout=self.connect_timeout)
        try:
            client_handshake(sock, self._handshake_config())
        except BaseException:
            with contextlib.suppress(OSError):
                sock.close()
            raise
        return _Link(self, spec, sock)

    def _open_channels(self) -> None:
        initial = not self._channels and not self._lost
        specs = list(self.addresses) if initial else list(self._lost)
        for spec in specs:
            try:
                link = self._connect_link(spec)
            except (OSError, ConnectionError, ProtocolError) as exc:
                if initial:
                    raise RuntimeError(
                        f"cannot reach cluster worker {spec!r} (from "
                        f"REPRO_WORKERS / workers=[...]): {exc}"
                    ) from exc
                continue  # still down; retried on the next batch
            self._channels.append(link)
            if not initial:
                self._lost.remove(spec)
                self.workers_rejoined += 1
        if not self._channels:
            raise RuntimeError(
                "no cluster workers reachable: "
                + ", ".join(repr(s) for s in self.addresses)
            )
        if self._fetcher is None:
            from .storage.codecs import set_missing_file_resolver

            self._fetcher = BlockFetcher(
                self.addresses, transport=self.transport
            )
            self._previous_resolver = set_missing_file_resolver(self._fetcher)

    def _channel_lost(self, link: _Link) -> None:
        """The daemon itself is gone: drop the link and remember the
        address for rejoin attempts."""
        if link in self._channels:
            self._channels.remove(link)
        with contextlib.suppress(OSError):
            link.sock.close()
        if link.spec not in self._lost:
            self._lost.append(link.spec)
        self.workers_lost += 1

    def close(self) -> None:
        for link in self._channels:
            with contextlib.suppress(OSError, ValueError):
                send_message(link.sock, ("stop",))
            with contextlib.suppress(OSError):
                link.sock.close()
        self._channels.clear()
        if self._fetcher is not None:
            from .storage.codecs import set_missing_file_resolver

            set_missing_file_resolver(self._previous_resolver)
            self._fetcher.close()
            self._fetcher = None
        super().close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClusterExecutor(addresses={self.addresses!r})"
