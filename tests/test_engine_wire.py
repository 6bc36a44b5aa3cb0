"""Pipelined, compressed cluster transport: frames, knobs, streaming fetch.

Contracts under test:

* **Wire compression** — frames round-trip bit-exactly for every codec
  and for buffer sizes straddling the compression threshold; per-buffer
  codec flags mean a receiver never needs to know the sender's setting.
* **Knob resolution** — the ``REPRO_WIRE_CODEC`` resolver and the
  handshake's codec negotiation (unknown codec falls back to ``off``,
  never an error).
* **Daemon responsiveness** — heartbeat pings are answered while the
  daemon inflates a large compressed batch, because decompression runs
  off the event loop.
* **Streaming fetch** — multi-chunk fetches are byte-identical for RBLK
  and raw files; a connection dropped mid-stream leaves no orphan tmp
  file.
* **Digest invariance** — the (inflight x wire-codec) matrix produces
  byte-identical results and simulated stage records vs the serial
  backend.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ClusterContext
from repro.engine.cluster import (
    BlockFetcher,
    sockets_available,
)
from repro.engine.executor import TransportProfile
from repro.engine.netproto import (
    PROTOCOL_VERSION,
    WIRE_COMPRESS_MIN_BYTES,
    ProtocolError,
    _BUF_HEADER,
    build_frame,
    negotiate_wire_codec,
    recv_message,
    send_message,
)

pytestmark = pytest.mark.skipif(
    not sockets_available(), reason="loopback sockets unavailable"
)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Compressed frames round-trip bit-exactly
# ----------------------------------------------------------------------
class TestWireCompression:
    @settings(max_examples=40, deadline=None)
    @given(
        codec=st.sampled_from(["off", "zlib"]),
        sizes=st.lists(
            st.sampled_from(
                [
                    0,
                    1,
                    WIRE_COMPRESS_MIN_BYTES - 1,
                    WIRE_COMPRESS_MIN_BYTES,
                    WIRE_COMPRESS_MIN_BYTES + 1,
                    3 * WIRE_COMPRESS_MIN_BYTES,
                ]
            ),
            min_size=0,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_across_threshold_and_codecs(self, codec, sizes, seed):
        rng = np.random.default_rng(seed)
        # Half-random payloads: compressible enough for the codec to
        # engage on some buffers, incompressible enough to exercise the
        # keep-raw-when-bigger path on others.
        payloads = []
        for n in sizes:
            raw = rng.integers(0, 8, size=n, dtype=np.uint8).tobytes()
            payloads.append(raw if n % 2 else b"\x2a" * n)
        a, b = socket.socketpair()
        try:
            wire, raw = send_message(
                a, ("run", {"codec": codec}), payloads, codec=codec
            )
            obj, buffers, got_wire, got_raw = recv_message(b)
        finally:
            a.close()
            b.close()
        assert obj == ("run", {"codec": codec})
        assert [bytes(buf) for buf in buffers] == payloads
        assert (got_wire, got_raw) == (wire, raw)
        if codec == "off":
            assert wire == raw
        else:
            assert wire <= raw

    def test_compression_only_when_smaller(self):
        # An incompressible buffer above the threshold must ship raw
        # (codec id 0) rather than grow on the wire.
        noise = np.random.default_rng(0).bytes(2 * WIRE_COMPRESS_MIN_BYTES)
        parts, wire, raw = build_frame(("x",), [noise], codec="zlib")
        assert wire <= raw + 32  # at most the per-buffer header overhead
        compressible = b"\x00" * (2 * WIRE_COMPRESS_MIN_BYTES)
        _parts, wire2, raw2 = build_frame(("x",), [compressible], codec="zlib")
        assert wire2 < raw2 / 2

    def test_mixed_peer_decode_is_codec_agnostic(self):
        # A frame built with zlib decodes on a receiver that never heard
        # of the sender's setting: the codec id rides each buffer.
        payload = b"edge-list " * 4096
        a, b = socket.socketpair()
        try:
            send_message(a, ("run", 0), [payload], codec="zlib")
            _obj, buffers, _w, _r = recv_message(b)
        finally:
            a.close()
            b.close()
        assert bytes(buffers[0]) == payload

    def test_retired_lzma_codec_id_is_a_protocol_error(self):
        # Codec id 2 (lzma in older builds) stays unassigned: a frame
        # from such a peer is refused, never decoded as something else.
        payload = b"edge-list " * 4096
        parts, _wire, _raw = build_frame(("run", 0), [payload], codec="off")
        parts[2] = _BUF_HEADER.pack(2, len(payload), len(payload))
        a, b = socket.socketpair()
        try:
            a.sendall(b"".join(bytes(part) for part in parts))
            with pytest.raises(ProtocolError, match="unknown wire codec id 2"):
                recv_message(b)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Knob resolution + handshake negotiation
# ----------------------------------------------------------------------
class TestKnobResolution:
    def test_wire_codec(self, monkeypatch):
        # As a fetcher reads it (no connection is made at construction).
        def codec(wire_codec=None):
            return BlockFetcher([], wire_codec=wire_codec).wire_codec

        monkeypatch.delenv("REPRO_WIRE_CODEC", raising=False)
        assert codec() == "zlib"
        assert codec("off") == "off"
        assert codec("none") == "off"
        assert codec("ZLIB") == "zlib"
        monkeypatch.setenv("REPRO_WIRE_CODEC", "off")
        assert codec() == "off"
        # "lzma" was a wire codec in earlier builds.
        for bad in ("snappy", "lzma"):
            with pytest.raises(
                ValueError, match="REPRO_WIRE_CODEC must be one of off, zlib"
            ):
                codec(bad)

    def test_negotiate_falls_back_to_off(self):
        assert negotiate_wire_codec("zlib") == "zlib"
        # A codec this build doesn't know (a newer peer's setting, an
        # older peer's lzma, or a pre-negotiation peer sending nothing)
        # degrades to uncompressed rather than failing the handshake.
        assert negotiate_wire_codec("zstd-9000") == "off"
        assert negotiate_wire_codec("lzma") == "off"
        assert negotiate_wire_codec(None) == "off"


# ----------------------------------------------------------------------
# Heartbeats stay prompt while a worker decompresses a large frame
# ----------------------------------------------------------------------
class TestHeartbeatDuringDecompress:
    def test_ping_answered_while_frame_inflates(self, monkeypatch):
        import repro.engine.cluster as cluster_mod

        # Stall decompression without burning CPU, and keep the batch
        # from reaching a real task child: the contract under test is
        # the daemon's event loop, not task execution.
        real_decode = cluster_mod.decode_buffers

        def slow_decode(entries):
            time.sleep(1.5)
            return real_decode(entries)

        monkeypatch.setattr(cluster_mod, "decode_buffers", slow_decode)
        monkeypatch.setattr(
            cluster_mod._DriverSession,
            "dispatch",
            lambda self, blob, buffers: None,
        )

        daemon = cluster_mod.WorkerDaemon("127.0.0.1:0")
        holder: dict = {}
        started = threading.Event()

        def serve() -> None:
            asyncio.run(daemon._main(lambda a: (holder.update(addr=a),
                                                started.set())))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10)

        from repro.engine.netproto import client_handshake, connect

        sock = connect(holder["addr"], timeout=5)
        try:
            client_handshake(
                sock, {"role": "driver", "peers": [], "wire_codec": "zlib"}
            )
            big = b"\x00" * (4 * WIRE_COMPRESS_MIN_BYTES)
            send_message(sock, ("run", b"blob", 0), [big], codec="zlib")
            ping_sent = time.perf_counter()
            send_message(sock, ("ping", ping_sent))
            obj, _b, _w, _r = recv_message(sock)
            latency = time.perf_counter() - ping_sent
            assert obj[0] == "pong"
            # The pong must not have waited out the 1.5s decompress.
            assert latency < 1.0
        finally:
            sock.close()
            daemon.request_stop()
            thread.join(timeout=10)


# ----------------------------------------------------------------------
# A run frame that goes stale *while it inflates* is still dropped
# ----------------------------------------------------------------------
class TestStaleFrameDuringDecompress:
    def test_frame_overtaken_by_a_child_death_never_runs(self, monkeypatch):
        """The driver requeues everything in flight when it reads
        ("died", ...).  A frame whose epoch was current when the daemon
        picked it up, but whose decompression outlasted the death
        report, must not reach the replacement child: its replies would
        eat the driver's strict-order accounting for the requeued
        copies (seen as a driver hang under the CI cluster fault plan)."""
        import cloudpickle

        import repro.engine.cluster as cluster_mod

        real_decode = cluster_mod.decode_buffers

        def slow_decode(entries):
            time.sleep(0.75)  # the child dies and is reported meanwhile
            return real_decode(entries)

        monkeypatch.setattr(cluster_mod, "decode_buffers", slow_decode)
        daemon = cluster_mod.WorkerDaemon("127.0.0.1:0")
        holder: dict = {}
        started = threading.Event()

        def serve() -> None:
            asyncio.run(daemon._main(lambda a: (holder.update(addr=a),
                                                started.set())))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10)

        from repro.engine.netproto import client_handshake, connect

        def kill():
            os._exit(73)

        big = np.zeros(4 * WIRE_COMPRESS_MIN_BYTES, dtype=np.uint8)
        buffers: list = []
        stale = cloudpickle.dumps(
            [(1, lambda a=big: int(a.sum()))],
            protocol=5,
            buffer_callback=lambda b: buffers.append(b.raw()),
        )
        sock = connect(holder["addr"], timeout=5)
        sock.settimeout(5)
        try:
            client_handshake(
                sock,
                {"role": "driver", "peers": [], "wire_codec": "zlib",
                 "max_inflight": 2},
            )
            send_message(sock, ("run", cloudpickle.dumps([(0, kill)]), 0))
            send_message(sock, ("run", stale, 0), buffers, codec="zlib")
            obj, _b, _w, _r = recv_message(sock)
            assert obj == ("died", 73)
            time.sleep(1.0)  # the stale frame has finished inflating
            send_message(sock, ("ping", 0.0))
            obj, _b, _w, _r = recv_message(sock)
            assert obj[0] == "pong", f"stale batch ran: {obj[:2]!r}"
            assert daemon.batches_dispatched == 1
        finally:
            sock.close()
            daemon.request_stop()
            thread.join(timeout=10)


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
        fetcher = BlockFetcher([addr], wire_codec="zlib", transport=meter)
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
                    ("hello-ok", PROTOCOL_VERSION,
                     {"pid": 0, "roots": 1, "wire_codec": "off"}),
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


# ----------------------------------------------------------------------
# Digest + stage-record invariance across the transport knob matrix
# ----------------------------------------------------------------------
class TestKnobMatrixInvariance:
    def _pipeline(self, ctx):
        data = np.arange(50_000, dtype=np.int64)

        def bump(cols, i):
            return tuple((c * 13 + i) % 7919 for c in cols)

        return (
            ctx.parallelize([data], n_partitions=6)
            .map_partitions(bump)
            .distinct()
            .collect()
        )

    @pytest.mark.parametrize("inflight", [1, 3])
    @pytest.mark.parametrize("codec", ["off", "zlib"])
    def test_matrix_matches_serial(
        self, cluster_daemons, monkeypatch, inflight, codec
    ):
        with ClusterContext(
            executor="serial", n_nodes=2, executor_cores=2
        ) as ctx:
            ref = digest(list(self._pipeline(ctx)))
            ref_stages = [
                (r.stage, r.partition, r.node, r.bytes_out)
                for r in ctx.metrics.tasks
            ]
        monkeypatch.setenv("REPRO_MAX_INFLIGHT", str(inflight))
        monkeypatch.setenv("REPRO_WIRE_CODEC", codec)
        with ClusterContext(
            executor="cluster", n_nodes=2, executor_cores=2
        ) as ctx:
            got = digest(list(self._pipeline(ctx)))
            got_stages = [
                (r.stage, r.partition, r.node, r.bytes_out)
                for r in ctx.metrics.tasks
            ]
            profile = ctx.executor.transport
            assert profile.network_bytes > 0
            assert profile.network_raw_bytes >= profile.network_bytes
        assert got == ref
        assert got_stages == ref_stages
