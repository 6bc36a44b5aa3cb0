"""Benchmark harness utilities shared by the scripts in ``benchmarks/``.

Each paper figure has one bench module that builds a seed, runs a sweep,
and prints the series the paper plots.  The helpers here keep those
modules small: seed caching, sweep running, and aligned-column table
printing.
"""

from repro.bench.harness import (
    cached_seed,
    default_cluster,
    measure_wall,
    run_sweep,
    SweepPoint,
)
from repro.bench.tables import format_table, print_series

__all__ = [
    "cached_seed",
    "default_cluster",
    "run_sweep",
    "SweepPoint",
    "measure_wall",
    "format_table",
    "print_series",
]
