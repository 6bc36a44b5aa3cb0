"""Pipelined cluster transport: frames, version gate, streaming fetch.

Contracts under test:

* **Frames** — messages round-trip bit-exactly for any mix of buffer
  sizes; an oversized length field or a truncated frame is a typed
  error, never an allocation or a hang; a peer speaking the previous
  protocol version is refused in the handshake.
* **Daemon responsiveness** — a heartbeat ping queued behind a large
  ``run`` frame is answered promptly.
* **Stale frames** — a ``run`` frame stamped before a task-child death
  the driver has been told about never runs.
* **Streaming fetch** — multi-chunk fetches are byte-identical for RBLK
  and raw files; a connection dropped mid-stream leaves no orphan tmp
  file.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.cluster import (
    BlockFetcher,
    WorkerDaemon,
    sockets_available,
)
from repro.engine.executor import TransportProfile
from repro.engine.netproto import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    _BUF_HEADER,
    build_frame,
    client_handshake,
    connect,
    recv_message,
    send_message,
)

pytestmark = pytest.mark.skipif(
    not sockets_available(), reason="loopback sockets unavailable"
)


class _InThreadDaemon:
    """A :class:`WorkerDaemon` on this process's own event-loop thread,
    so a test can reach into it (``batches_dispatched``, monkeypatched
    methods)."""

    def __enter__(self):
        self.daemon = WorkerDaemon("127.0.0.1:0")
        holder: dict = {}
        started = threading.Event()

        async def main() -> None:
            holder["loop"] = asyncio.get_running_loop()
            await self.daemon._main(
                lambda addr: (holder.update(addr=addr), started.set())
            )

        self.thread = threading.Thread(
            target=lambda: asyncio.run(main()), daemon=True
        )
        self.thread.start()
        assert started.wait(10)
        self.loop = holder["loop"]
        self.sock = connect(holder["addr"], timeout=5)
        self.sock.settimeout(5)
        return self

    def __exit__(self, *exc):
        self.sock.close()
        self.loop.call_soon_threadsafe(self.daemon.request_stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


# ----------------------------------------------------------------------
# Frames round-trip bit-exactly; bad lengths are typed errors
# ----------------------------------------------------------------------
class TestFrames:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(
            st.sampled_from([0, 1, (1 << 14) - 1, 1 << 14, 3 << 14]),
            min_size=0,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_across_sizes(self, sizes, seed):
        rng = np.random.default_rng(seed)
        payloads = [
            rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            for n in sizes
        ]
        a, b = socket.socketpair()
        try:
            wire = send_message(a, ("run", {"n": len(sizes)}), payloads)
            obj, buffers, got_wire = recv_message(b)
        finally:
            a.close()
            b.close()
        assert obj == ("run", {"n": len(sizes)})
        assert buffers == payloads
        assert got_wire == wire > sum(sizes)

    def test_oversized_buffer_is_a_protocol_error(self):
        parts, _wire = build_frame(("run", 0), [b"edge-list"])
        parts[2] = _BUF_HEADER.pack(MAX_FRAME_BYTES + 1)
        a, b = socket.socketpair()
        try:
            a.sendall(b"".join(bytes(part) for part in parts))
            with pytest.raises(ProtocolError, match="oversized buffer"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_raises_not_hangs(self):
        parts, _wire = build_frame(("run", 0), [b"edge-list " * 100])
        whole = b"".join(bytes(part) for part in parts)
        a, b = socket.socketpair()
        b.settimeout(5)
        try:
            a.sendall(whole[:-10])
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_previous_protocol_version_gets_hello_err(self, worker_daemon):
        """Version 2 put ``codec_id | wire_len | raw_len`` before each
        buffer: such a peer must be turned away in the handshake (which
        carries no buffers), before any of its buffers could be
        mis-read."""
        _proc, addr = worker_daemon()
        sock = connect(addr)
        try:
            send_message(
                sock,
                ("hello", 2, {"role": "driver", "wire_codec": "zlib"}),
            )
            obj, _buffers, _wire = recv_message(sock)
            assert obj[0] == "hello-err"
            assert "peer speaks 2" in obj[1]
            assert f"worker speaks {PROTOCOL_VERSION}" in obj[1]
            assert recv_message(sock) is None  # and the daemon hung up
        finally:
            sock.close()


# ----------------------------------------------------------------------
# Heartbeats stay prompt behind a large frame
# ----------------------------------------------------------------------
class TestHeartbeatBehindLargeFrame:
    def test_ping_answered_promptly(self, monkeypatch):
        # Keep the batch from reaching a real task child: the contract
        # under test is the daemon's event loop, not task execution.
        import repro.engine.cluster as cluster_mod

        monkeypatch.setattr(
            cluster_mod._DriverSession,
            "dispatch",
            lambda self, blob, buffers: None,
        )
        with _InThreadDaemon() as d:
            client_handshake(d.sock, {"role": "driver", "peers": []})
            big = bytes(32 << 20)
            send_message(d.sock, ("run", b"blob", 0), [big])
            ping_sent = time.perf_counter()
            send_message(d.sock, ("ping", ping_sent))
            obj, _b, _w = recv_message(d.sock)
            latency = time.perf_counter() - ping_sent
        assert obj[0] == "pong"
        assert latency < 1.0


# ----------------------------------------------------------------------
# A run frame stamped before a reported death is dropped
# ----------------------------------------------------------------------
class TestStaleFrame:
    def test_frame_overtaken_by_a_child_death_never_runs(self):
        """The driver requeues everything in flight when it reads
        ("died", ...).  A frame it stamped before that — still on the
        socket when the death was reported — must not reach the
        replacement child: its replies would eat the driver's
        strict-order accounting for the requeued copies (seen as a
        driver hang under the CI cluster fault plan)."""
        import cloudpickle

        def kill():
            os._exit(73)

        stale = cloudpickle.dumps([(1, lambda: "ran")])
        with _InThreadDaemon() as d:
            client_handshake(
                d.sock, {"role": "driver", "peers": [], "window": 2}
            )
            send_message(d.sock, ("run", cloudpickle.dumps([(0, kill)]), 0))
            obj, _b, _w = recv_message(d.sock)
            assert obj == ("died", 73)
            send_message(d.sock, ("run", stale, 0))  # epoch 0 < 1 death
            send_message(d.sock, ("ping", 0.0))
            obj, _b, _w = recv_message(d.sock)
            assert obj[0] == "pong", f"stale batch ran: {obj[:2]!r}"
            assert d.daemon.batches_dispatched == 1
            # The same batch restamped with the current epoch does run.
            send_message(d.sock, ("run", stale, 1))
            obj, _b, _w = recv_message(d.sock)
            assert obj[:2] == ("ok", 1)


# ----------------------------------------------------------------------
# Streaming fetch: chunked transfers, orphan cleanup
# ----------------------------------------------------------------------
class TestStreamingFetch:
    def test_multi_chunk_fetch_byte_identical(self, tmp_path, worker_daemon):
        # Several frames per file for both layouts: RBLK written in
        # small chunks (chunk-table spans) and raw bytes longer than one
        # fixed slice.
        from repro.engine.storage.codecs import CHUNK_BYTES, CODECS

        served = tmp_path / "served"
        local = tmp_path / "local"
        served.mkdir()
        local.mkdir()
        cols = (
            np.arange(40_000, dtype=np.int64),
            np.linspace(0.0, 1.0, 40_000),
        )
        CODECS["zlib"](chunk_bytes=8192).write(
            str(served / "block_3.blk"), cols
        )
        raw = np.random.default_rng(7).bytes(2 * CHUNK_BYTES + 50_000)
        (served / "shuffle_1_2.blk").write_bytes(raw)

        _proc, addr = worker_daemon(roots=(served,))
        meter = TransportProfile()
        fetcher = BlockFetcher([addr], transport=meter)
        try:
            # At least one trip per frame: 2 x 40 container chunks,
            # then 3 fixed slices.
            for name, frames in (("block_3.blk", 80), ("shuffle_1_2.blk", 3)):
                before = meter.round_trips
                assert fetcher(local / name) is True
                assert meter.round_trips - before > frames
                assert (
                    (local / name).read_bytes()
                    == (served / name).read_bytes()
                )
            assert fetcher.fetched == 2
        finally:
            fetcher.close()

    def test_dropped_connection_leaves_no_orphan_tmp(self, tmp_path):
        """Regression: a serving daemon dying mid-fetch used to strand a
        partial tmp file next to the target.  The stream now unlinks it
        on any non-`fetch-end` exit."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()

        def half_serve() -> None:
            conn, _ = server.accept()
            try:
                recv_message(conn)  # hello
                send_message(
                    conn,
                    ("hello-ok", PROTOCOL_VERSION, {"pid": 0, "roots": 1}),
                )
                recv_message(conn)  # ("fetch", name)
                # One chunk, then die mid-stream (daemon killed).
                send_message(
                    conn, ("chunk", "shuffle_9_9.blk", 0), [b"x" * 4096]
                )
            finally:
                conn.close()

        thread = threading.Thread(target=half_serve, daemon=True)
        thread.start()
        local = tmp_path / "local"
        local.mkdir()
        fetcher = BlockFetcher([f"{host}:{port}"], timeout=5.0)
        try:
            assert fetcher(local / "shuffle_9_9.blk") is False
            assert fetcher.misses == 1
        finally:
            fetcher.close()
            server.close()
            thread.join(timeout=5)
        leftovers = [p.name for p in local.iterdir()]
        assert leftovers == []  # no target, no `.fetch-*` orphan

    def test_mid_fetch_daemon_kill_cleans_up(self, tmp_path, worker_daemon):
        # The same contract against a real daemon: SIGKILL it while a
        # many-chunk transfer is in flight.  Tiny container chunks (one
        # frame each) keep the stream long enough that the kill lands
        # mid-transfer.
        from repro.engine.storage.codecs import CODECS

        served = tmp_path / "served"
        local = tmp_path / "local"
        served.mkdir()
        local.mkdir()
        CODECS["mmap"](chunk_bytes=4096).write(
            str(served / "shuffle_5_5.blk"),
            (np.random.default_rng(1).integers(0, 1 << 62, 250_000),),
        )
        proc, addr = worker_daemon(roots=(served,))
        fetcher = BlockFetcher([addr], timeout=5.0)
        killer = threading.Timer(0.05, proc.kill)
        try:
            killer.start()
            fetcher(local / "shuffle_5_5.blk")  # True or False: no hang
        finally:
            killer.cancel()
            fetcher.close()
        for p in local.iterdir():
            assert not p.name.startswith("."), f"orphan tmp {p.name}"
