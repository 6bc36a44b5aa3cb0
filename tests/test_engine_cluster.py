"""Cluster executor: socket daemons, heartbeats, remote block fetch.

Contracts under test:

* **Wire protocol** — address parsing, length-prefixed frame round-trips
  (in-band meta + out-of-band buffers), and the handshake's version gate.
* **Loss detection** — a mute daemon trips the heartbeat timeout; a
  SIGKILLed daemon is detected and its in-flight work recovered through
  the ordinary lineage machinery, byte-identical to a serial run.
* **Remote block fetch** — a worker missing a shuffle segment on local
  disk pulls it from a peer daemon; the fetched file is byte-identical
  to the original, and a genuine miss stays a miss.
* **Operator ergonomics** — an unreachable address fails fast with an
  error naming the bad ``REPRO_WORKERS`` entry.
* **No orphans** — a task child exits when its daemon is killed (and
  ``conftest.py`` checks nothing any module starts outlives it).
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import config
from repro.config import parse_address
from repro.engine import ClusterContext
from repro.engine.cluster import (
    BlockFetcher,
    ClusterExecutor,
    shutdown_worker,
    sockets_available,
)
from repro.engine.executor import WorkerDied, available_backends
from repro.engine.netproto import (
    PROTOCOL_VERSION,
    ProtocolError,
    client_handshake,
    connect,
    recv_message,
    send_message,
)

from .conftest import process_table

pytestmark = pytest.mark.skipif(
    not sockets_available(), reason="loopback sockets unavailable"
)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# netproto: addresses, framing, handshake
# ----------------------------------------------------------------------
class TestNetProto:
    def test_parse_address_tcp_and_unix(self):
        assert parse_address("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    @pytest.mark.parametrize("bad", ["", "nohost", "host:notaport", ":-1"])
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_frame_roundtrip_with_buffers(self):
        a, b = socket.socketpair()
        try:
            payload = np.arange(1000, dtype=np.int64).tobytes()
            wire = send_message(a, ("run", {"k": 1}), [payload, b"tail"])
            assert wire > len(payload)
            obj, buffers, received = recv_message(b)
            assert obj == ("run", {"k": 1})
            assert bytes(buffers[0]) == payload
            assert bytes(buffers[1]) == b"tail"
            assert received == wire
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_and_midframe_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00")  # torn header
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_message(b)
        finally:
            b.close()

    def test_resolve_cluster_workers_parsing(self):
        assert config.resolve("workers", "h1:1, h2:2") == ["h1:1", "h2:2"]
        assert config.resolve("workers", ["h1:1", " h2:2 "]) == [
            "h1:1", "h2:2"
        ]
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            ClusterExecutor([])
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            config.resolve("workers", "not-an-address")


# ----------------------------------------------------------------------
# Daemon lifecycle + handshake gate (real subprocess daemons)
# ----------------------------------------------------------------------
class TestDaemonHandshake:
    def test_launch_announce_shutdown(self, tmp_path, worker_daemon):
        proc, addr = worker_daemon(roots=(tmp_path,))
        host, port = addr.rsplit(":", 1)
        assert int(port) > 0
        assert shutdown_worker(addr)
        assert proc.wait(timeout=10) == 0

    def test_version_mismatch_rejected(self, worker_daemon):
        proc, addr = worker_daemon()
        sock = connect(addr)
        try:
            send_message(sock, ("hello", PROTOCOL_VERSION + 999, {}))
            obj, _buffers, _n = recv_message(sock)
            assert obj[0] == "hello-err"
            assert "protocol version mismatch" in obj[1]
        finally:
            sock.close()
        # The daemon survives a rejected peer and still serves a
        # well-versioned one.
        sock = connect(addr)
        try:
            info = client_handshake(sock, {"role": "driver", "peers": []})
            assert info["pid"] == proc.pid
        finally:
            sock.close()

    def test_client_handshake_raises_protocolerror(self, worker_daemon):
        _proc, addr = worker_daemon()
        sock = socket.create_connection(tuple(parse_address(addr)[1:]))
        try:
            send_message(sock, ("hello", -1, {}))
            with pytest.raises(ProtocolError, match="version mismatch"):
                # Re-drive the client side manually: the daemon
                # already rejected, so the reply is hello-err.
                obj, _b, _n = recv_message(sock)
                raise ProtocolError(obj[1])
        finally:
            sock.close()


# ----------------------------------------------------------------------
# Heartbeat timeout: a handshaking-but-mute peer is declared lost
# ----------------------------------------------------------------------
def _mute_worker(server: socket.socket, stop: threading.Event) -> None:
    """Accept one driver, complete the handshake, then read frames
    forever without ever replying — not even to pings."""
    server.settimeout(10.0)
    try:
        conn, _ = server.accept()
    except OSError:
        return
    try:
        conn.settimeout(10.0)
        if recv_message(conn) is None:
            return
        send_message(
            conn, ("hello-ok", PROTOCOL_VERSION, {"pid": 0, "roots": 0})
        )
        while not stop.is_set():
            try:
                if recv_message(conn) is None:
                    return
            except (ConnectionError, OSError):
                return
    finally:
        conn.close()


class TestHeartbeat:
    def test_mute_worker_times_out(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        addr = "127.0.0.1:%d" % server.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(
            target=_mute_worker, args=(server, stop), daemon=True
        )
        thread.start()
        ex = ClusterExecutor([addr], heartbeat_timeout=0.4)
        try:
            started = time.monotonic()
            outcomes = ex.run_outcomes(
                [lambda k=k: k for k in range(4)]
            )
            elapsed = time.monotonic() - started
            assert all(
                isinstance(o.error, WorkerDied) for o in outcomes
            )
            assert any(
                "heartbeat timeout" in str(o.error) or "lost" in str(o.error)
                for o in outcomes
            )
            assert ex.workers_lost == 1
            assert elapsed < 10.0  # detected by heartbeat, not a hang
        finally:
            stop.set()
            ex.close()
            server.close()
            thread.join(timeout=5)

    def test_idle_link_is_not_timed_out_when_work_resumes(
        self, cluster_daemons
    ):
        """Idle links are not pinged, so a driver-side pause longer than
        the timeout must not read as silence once work resumes."""

        def slow(k):
            time.sleep(0.5)  # outlasts the first heartbeat sweep
            return k

        ex = ClusterExecutor(list(cluster_daemons), heartbeat_timeout=1.0)
        try:
            first = ex.run_outcomes([lambda k=k: k for k in range(4)])
            assert [o.unwrap() for o in first] == [0, 1, 2, 3]
            time.sleep(1.5)
            second = ex.run_outcomes([lambda k=k: slow(k) for k in range(4)])
            assert [o.unwrap() for o in second] == [0, 1, 2, 3]
            assert ex.workers_lost == 0
        finally:
            ex.close()

    def test_heartbeat_knobs_from_env(self, monkeypatch):
        """One knob: a busy link is pinged every 1/30 of the timeout,
        and that derived interval is the one ``_Link`` goes by."""
        from repro.engine.cluster import _Link

        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "30")
        ex = ClusterExecutor(["127.0.0.1:65000"])
        ours, theirs = socket.socketpair()
        try:
            assert ex.heartbeat_timeout == 30.0
            assert ex._wake_seconds == pytest.approx(1.0)
            assert ClusterExecutor(
                ["127.0.0.1:65000"], heartbeat_timeout=15.0
            )._wake_seconds == pytest.approx(0.5)  # the former defaults
            link = _Link(ex, "peer", ours)
            link.assigned.append((0, False))
            theirs.settimeout(0.0)
            now = time.monotonic()
            link.last_heard, link.last_ping = now, now - 0.5
            link._heartbeat()  # half an interval since the last ping
            with pytest.raises(BlockingIOError):
                theirs.recv(1)
            link.last_ping = now - 1.01
            link._heartbeat()  # a full interval: ping
            theirs.settimeout(5.0)
            assert recv_message(theirs)[0][0] == "ping"
        finally:
            ex.close()
            ours.close()
            theirs.close()
        with pytest.raises(TypeError, match="heartbeat_interval"):
            ClusterExecutor(["127.0.0.1:65000"], heartbeat_interval=0.5)
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT_TIMEOUT"):
            ClusterExecutor(["127.0.0.1:65000"])


# ----------------------------------------------------------------------
# Daemon loss mid-batch: lineage recovery, byte-identical results
# ----------------------------------------------------------------------
class TestDaemonLossRecovery:
    def _pipeline(self, ctx):
        data = np.arange(60_000, dtype=np.int64)

        def slow(cols, i):
            time.sleep(0.05)
            return tuple((c * 7 + i) % 9973 for c in cols)

        return (
            ctx.parallelize([data], n_partitions=8)
            .map_partitions(slow)
            .distinct()
            .collect()
        )

    def test_sigkill_mid_batch_recovers_byte_identical(self, worker_daemon):
        with ClusterContext(
            executor="serial", n_nodes=2, executor_cores=2
        ) as ctx:
            ref = digest(list(self._pipeline(ctx)))
            ref_stages = [
                (r.stage, r.partition, r.node, r.bytes_out)
                for r in ctx.metrics.tasks
            ]

        procs, addrs = zip(*(worker_daemon() for _ in range(2)))
        with ClusterContext(
            executor="cluster", workers=addrs, n_nodes=2,
            executor_cores=2, retry_backoff_seconds=0.0,
        ) as ctx:
            killer = threading.Timer(
                0.2, procs[0].send_signal, (signal.SIGKILL,)
            )
            killer.start()
            try:
                got = digest(list(self._pipeline(ctx)))
            finally:
                killer.cancel()
            got_stages = [
                (r.stage, r.partition, r.node, r.bytes_out)
                for r in ctx.metrics.tasks
            ]
            assert ctx.executor.workers_lost >= 1
        assert got == ref
        assert got_stages == ref_stages

    def test_task_child_exits_when_its_parent_is_killed(self, tmp_path):
        """A ``_PipeChild`` whose parent vanishes without ``retire()``
        (a SIGKILLed daemon) reads EOF and exits.  It used to block in
        ``recv`` forever: the fork had inherited the parent's end of its
        own pipe, so the pipe never closed."""
        # The pid travels by file: a captured stdout would be one more
        # pipe the orphan holds open.
        script = (
            "import os, sys\n"
            "from repro.engine.executor import _PipeChild, _pool_worker_main\n"
            "child = _PipeChild(_pool_worker_main)\n"
            "open(sys.argv[1], 'w').write(str(child.proc.pid))\n"
            "os._exit(0)\n"
        )
        pid_file = tmp_path / "child.pid"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run(
            [sys.executable, "-c", script, str(pid_file)], env=env,
            timeout=60, check=True, stdin=subprocess.DEVNULL,
        )
        child = int(pid_file.read_text())

        def running():
            row = process_table().get(child)
            return row is not None and row[1] != "Z"

        try:
            deadline = time.monotonic() + 2.0
            while running() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running()
        finally:
            if running():
                os.kill(child, signal.SIGKILL)

    def test_unreachable_worker_names_the_address(self):
        # Port 1 on loopback refuses immediately; the error must tell
        # the operator which configured entry is bad.
        ex = ClusterExecutor(["127.0.0.1:1"], connect_timeout=2.0)
        try:
            with pytest.raises(RuntimeError, match=r"127\.0\.0\.1:1"):
                ex.run_outcomes([lambda k=k: k for k in range(2)])
        finally:
            ex.close()


# ----------------------------------------------------------------------
# Remote block fetch: peer pull equals local read
# ----------------------------------------------------------------------
class TestRemoteFetch:
    def test_fetch_matches_original_and_misses_stay_misses(
        self, tmp_path, worker_daemon
    ):
        served = tmp_path / "served"
        local = tmp_path / "local"
        served.mkdir()
        local.mkdir()
        blob = np.arange(30_000, dtype=np.int64).tobytes()
        (served / "shuffle_0_3.blk").write_bytes(blob)

        _proc, addr = worker_daemon(roots=(served,))
        fetcher = BlockFetcher([addr])
        try:
            target = local / "shuffle_0_3.blk"
            assert fetcher(target) is True
            assert target.read_bytes() == blob
            assert fetcher.fetched == 1
            assert fetcher.fetched_bytes == len(blob)
            # A segment no daemon has stays missing.
            assert fetcher(local / "nope.blk") is False
            assert fetcher.misses == 1
            assert not (local / "nope.blk").exists()
        finally:
            fetcher.close()

    def test_resolver_feeds_codec_reads(self, tmp_path, worker_daemon):
        """read_named_file on a path that is only present on a peer
        daemon returns bytes identical to reading the original directly
        (the driver-relayed baseline)."""
        from repro.engine.storage import (
            load_block_file,
            set_missing_file_resolver,
            write_block_file,
        )

        served = tmp_path / "served"
        local = tmp_path / "local"
        served.mkdir()
        local.mkdir()
        cols = (np.arange(5000, dtype=np.int64), np.ones(5000))
        write_block_file(str(served / "block_7.blk"), cols)
        direct = load_block_file(str(served / "block_7.blk"))

        _proc, addr = worker_daemon(roots=(served,))
        fetcher = BlockFetcher([addr])
        previous = set_missing_file_resolver(fetcher)
        try:
            fetched = load_block_file(str(local / "block_7.blk"))
            assert all(
                np.array_equal(a, b) for a, b in zip(fetched, direct)
            )
            assert len(fetched) == len(direct)
            assert (
                (local / "block_7.blk").read_bytes()
                == (served / "block_7.blk").read_bytes()
            )
        finally:
            set_missing_file_resolver(previous)
            fetcher.close()


# ----------------------------------------------------------------------
# Registry + equivalence smoke (the matrix runs the full sweep)
# ----------------------------------------------------------------------
class TestClusterEquivalence:
    def test_cluster_is_a_registered_backend(self):
        assert "cluster" in available_backends()

    def test_digest_and_transport_match_serial(self, cluster_daemons):
        def run(backend, **kw):
            with ClusterContext(
                executor=backend, n_nodes=2, executor_cores=2, **kw
            ) as ctx:
                data = np.arange(40_000, dtype=np.int64)
                out = (
                    ctx.parallelize([data], n_partitions=6)
                    .map_partitions(lambda c, i: ((c[0] * 31 + i) % 997,))
                    .distinct()
                    .collect()
                )
                stages = [
                    (r.stage, r.partition, r.node, r.bytes_out)
                    for r in ctx.metrics.tasks
                ]
                return (
                    (digest(list(out)), stages),
                    ctx.metrics.transport_breakdown(),
                )

        ref, _ = run("serial")
        got, transport = run("cluster", workers=list(cluster_daemons))
        assert got == ref  # the dataset and the simulated stage records
        assert transport["network_bytes"] > 0
        assert transport["round_trips"] > 0

    def test_env_workers_pick_up_daemons(self, cluster_daemons):
        assert os.environ["REPRO_WORKERS"] == ",".join(cluster_daemons)
        with ClusterContext(
            executor="cluster", n_nodes=2, executor_cores=2
        ) as ctx:
            assert ctx.executor.name == "cluster"
            assert tuple(ctx.executor.addresses) == tuple(cluster_daemons)
