"""Shared fixtures: expensive artifacts built once per session and the
suite-wide leak guard."""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import build_seed
from repro.trace.synthesizer import synthesize_seed_packets


@pytest.fixture
def open_context():
    """``open_context(**kwargs) -> ClusterContext``, closed at teardown:
    under an ambient pool executor (the CI jobs) a context a test never
    closes holds its workers and their arenas until the interpreter
    exits, which the leak guard below reports."""
    from repro.engine import ClusterContext

    contexts = []

    def open_(**kwargs):
        contexts.append(ClusterContext(**kwargs))
        return contexts[-1]

    yield open_
    for ctx in contexts:
        ctx.close()


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


def _litter() -> "set[str]":
    """What a run may leave in shared memory: the pool's arena
    segments."""
    shm = Path("/dev/shm")
    return {str(p) for p in shm.iterdir()} if shm.is_dir() else set()


@pytest.fixture(scope="module", autouse=True)
def _nothing_outlives_the_module():
    """After every test module: no new shared-memory segment and no
    child of this process — an un-waited child lingers as a zombie, a
    killed pool worker leaves its arenas."""
    processes_before = set(process_table())
    litter_before = _litter()
    yield
    me = os.getpid()

    def leftovers():
        processes = {
            f"pid {pid}: {command}"
            for pid, (ppid, _state, command) in process_table().items()
            if pid not in processes_before
            and ppid == me
            and "resource_tracker" not in command
        }
        return processes | (_litter() - litter_before)

    # Give a process still finishing its teardown a moment before
    # calling what it holds a leak.
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
