"""Shared fixtures: expensive artifacts built once per session, plus the
loopback worker daemons that back the ``cluster`` executor in every
backend-parametrized test."""

from __future__ import annotations

import os
import subprocess

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
