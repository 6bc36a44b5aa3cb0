"""Benchmark harness utilities shared by the scripts in ``benchmarks/``.

Each paper figure has one bench module that builds a seed, runs a sweep,
and prints the series the paper plots.  The helpers here keep those
modules small: seed caching, the paper's cluster, and aligned-column
table printing.
"""

from repro.bench.harness import cached_seed, default_cluster
from repro.bench.tables import format_table, print_series

__all__ = [
    "cached_seed",
    "default_cluster",
    "format_table",
    "print_series",
]
