"""Shared fixtures: expensive artifacts built once per session, the
loopback worker daemons that back the ``cluster`` executor in every
backend-parametrized test, and the suite-wide leak guard."""

from __future__ import annotations

import os
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import build_seed
from repro.trace.synthesizer import synthesize_seed_packets


def _reap(proc) -> None:
    """Terminate-and-wait: on return the daemon has exited and been
    collected, so it can neither outlive the session nor linger as a
    zombie child of it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck daemon
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="session")
def session_daemon_pids():
    """Pids of the live ``cluster_daemons`` (empty until they start) —
    the only worker daemons allowed to outlive a test module."""
    return set()


@pytest.fixture(scope="session")
def cluster_daemons(session_daemon_pids):
    """Two loopback worker daemons on ephemeral ports; ``REPRO_WORKERS``
    points at them for the rest of the session so
    ``ClusterContext(executor="cluster")`` works without explicit
    addresses.  Tests that kill daemons must launch their own (see
    ``worker_daemon``)."""
    from repro.engine.cluster import (
        launch_worker,
        shutdown_worker,
        sockets_available,
    )

    if not sockets_available():
        pytest.skip("loopback sockets unavailable in this environment")
    procs, addrs = [], []
    try:
        for _ in range(2):
            proc, addr = launch_worker()
            procs.append(proc)
            addrs.append(addr)
    except Exception as exc:  # pragma: no cover - environment-dependent
        for proc in procs:
            _reap(proc)
        pytest.skip(f"cannot launch cluster worker daemons: {exc}")
    session_daemon_pids.update(proc.pid for proc in procs)
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = ",".join(addrs)
    yield tuple(addrs)
    if previous is None:
        os.environ.pop("REPRO_WORKERS", None)
    else:
        os.environ["REPRO_WORKERS"] = previous
    for addr in addrs:
        shutdown_worker(addr)
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck daemon
            _reap(proc)
    session_daemon_pids.clear()


@pytest.fixture
def worker_daemon():
    """``launch(**launch_worker_kwargs) -> (process, address)`` for tests
    that need daemons of their own (to kill, or to serve a directory).
    Whatever a test leaves running is terminated and waited for here."""
    from repro.engine.cluster import launch_worker

    procs = []

    def launch(**kwargs):
        proc, addr = launch_worker(**kwargs)
        procs.append(proc)
        return proc, addr

    yield launch
    for proc in procs:
        _reap(proc)


@pytest.fixture
def open_context():
    """``open_context(**kwargs) -> ClusterContext``, closed at teardown:
    under an ambient pool or cluster executor (the CI jobs) a context a
    test never closes holds its workers and their arenas until the
    interpreter exits, which the leak guard below reports."""
    from repro.engine import ClusterContext

    contexts = []

    def open_(**kwargs):
        contexts.append(ClusterContext(**kwargs))
        return contexts[-1]

    yield open_
    for ctx in contexts:
        ctx.close()


@pytest.fixture(autouse=True)
def _cluster_backend_guard(request):
    """Give every test parametrized with the ``cluster`` backend live
    loopback daemons (or a clean skip when sockets are unavailable)."""
    callspec = getattr(request.node, "callspec", None)
    if callspec is None:
        return
    if any(
        isinstance(value, str) and value == "cluster"
        for value in callspec.params.values()
    ):
        request.getfixturevalue("cluster_daemons")


def process_table() -> "dict[int, tuple[int, str, str]]":
    """pid -> (parent pid, state letter, command line), from /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue  # exited while we were looking
        state, ppid = stat.rpartition(")")[2].split()[:2]
        command = cmdline.replace(b"\0", b" ").decode(errors="replace")
        table[int(entry)] = (int(ppid), state, command)
    return table


def _litter(basetemp: Path) -> "set[str]":
    """What a run may leave on disk or in shared memory: arena segments,
    BlockStore session directories (under the system temp dir or any
    ``spill_dir`` a test chose), half-written block and fetch files."""
    shm = Path("/dev/shm")
    found = {str(p) for p in shm.iterdir()} if shm.is_dir() else set()
    found.update(
        str(p) for p in Path(tempfile.gettempdir()).glob("repro-spill-*")
    )
    for pattern in ("repro-spill-*", "*.tmp.*", ".*.fetch-*"):
        found.update(str(p) for p in basetemp.rglob(pattern))
    return found


@pytest.fixture(scope="module", autouse=True)
def _nothing_outlives_the_module(session_daemon_pids, tmp_path_factory):
    """After every test module: no new shared-memory segment, spill
    directory or temporary block file, no ``repro.cli worker`` daemon and
    no child of this process — killed daemons used to leave their task
    child behind (ppid 1, blocked in ``recv``), un-waited ones a zombie,
    killed pool workers their arenas.  Only the session's shared
    ``cluster_daemons`` may stay."""
    basetemp = tmp_path_factory.getbasetemp()
    processes_before = set(process_table())
    litter_before = _litter(basetemp)
    yield
    me = os.getpid()

    def leftovers():
        processes = {
            f"pid {pid}: {command}"
            for pid, (ppid, _state, command) in process_table().items()
            if pid not in processes_before
            and pid not in session_daemon_pids
            and (ppid == me or "repro.cli worker" in command)
            and "resource_tracker" not in command
        }
        return processes | (_litter(basetemp) - litter_before)

    # A shared daemon retires a session's task child (and its arenas)
    # just after the driver hangs up: give that a moment.
    deadline = time.monotonic() + 5.0
    while leftovers() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not leftovers()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def seed_packets():
    """A small deterministic synthetic capture (shared, read-only)."""
    return synthesize_seed_packets(
        duration=10.0, session_rate=40.0, n_clients=80, n_servers=20, seed=7
    )


@pytest.fixture(scope="session")
def seed_bundle(seed_packets):
    """Seed flow table + property graph + analysis (Fig. 1 output)."""
    return build_seed(seed_packets)


@pytest.fixture(scope="session")
def seed_graph(seed_bundle):
    return seed_bundle.graph


@pytest.fixture(scope="session")
def seed_analysis(seed_bundle):
    return seed_bundle.analysis
