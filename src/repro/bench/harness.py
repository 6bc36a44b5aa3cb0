"""Shared machinery for the figure-reproduction benchmarks.

Two clocks matter here and must not be conflated: ``result.total_seconds``
is *simulated* cluster time (what Figs. 8-12 plot, identical across
executor backends), while :func:`measure_wall` times *real* elapsed
seconds on this machine (what the executor backends accelerate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.core.pipeline import SeedBundle, build_seed
from repro.engine.context import ClusterContext
from repro.trace.synthesizer import synthesize_seed_packets

__all__ = [
    "cached_seed",
    "default_cluster",
    "run_sweep",
    "SweepPoint",
    "measure_wall",
]


@lru_cache(maxsize=4)
def cached_seed(
    *,
    duration: float = 30.0,
    session_rate: float = 60.0,
    n_clients: int = 150,
    n_servers: int = 30,
    seed: int = 7,
) -> SeedBundle:
    """Build (once per parameter set) the seed bundle every bench shares.

    The default yields a seed graph of a few thousand edges — the scaled
    stand-in for the paper's 1.94 M-edge SMIA 2011 seed.
    """
    packets = synthesize_seed_packets(
        duration=duration,
        session_rate=session_rate,
        n_clients=n_clients,
        n_servers=n_servers,
        seed=seed,
    )
    return build_seed(packets)


def default_cluster(
    *,
    n_nodes: int = 60,
    executor_cores: int = 12,
    executor: str | None = None,
    local_workers: int | None = None,
) -> ClusterContext:
    """The paper's standard configuration: 60 nodes, 12 cores each,
    partitions = 2x executor cores.  ``executor`` / ``local_workers``
    select the real execution backend (default: serial, or the
    ``REPRO_EXECUTOR`` / ``REPRO_LOCAL_WORKERS`` environment
    overrides)."""
    return ClusterContext(
        n_nodes=n_nodes,
        executor_cores=executor_cores,
        partition_multiplier=2,
        executor=executor,
        local_workers=local_workers,
    )


def measure_wall(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once and return ``(result, wall_seconds)``."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


@dataclass
class SweepPoint:
    """One measured point of a parameter sweep."""

    label: str
    parameter: float
    values: dict[str, float] = field(default_factory=dict)


def run_sweep(
    parameters: Iterable,
    fn: Callable[..., dict[str, float]],
    *,
    label: str = "x",
) -> list[SweepPoint]:
    """Evaluate ``fn(parameter)`` per sweep point, collecting metric dicts."""
    points: list[SweepPoint] = []
    for p in parameters:
        values = fn(p)
        points.append(SweepPoint(label=label, parameter=float(p), values=values))
    return points
