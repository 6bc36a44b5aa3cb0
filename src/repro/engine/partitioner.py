"""Array partitioning helpers.

``split_array`` / ``split_count`` fix partition boundaries: the same
``(total, n_partitions)`` always produces the same split, so every
backend lands every row in the same partition.
"""

from __future__ import annotations

import numpy as np

__all__ = ["split_array", "split_count"]


def split_array(arr: np.ndarray, n_partitions: int) -> list[np.ndarray]:
    """Split a 1-D array into ``n_partitions`` contiguous, near-equal views.

    Views, not copies: the engine only copies when a transformation
    actually produces new data.

    When ``n_partitions > len(arr)`` the trailing partitions are empty;
    they are kept (callers rely on the ``n_partitions`` length contract)
    and each still runs as its own task.
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    return list(np.array_split(arr, n_partitions))


def split_count(total: int, n_partitions: int) -> np.ndarray:
    """Distribute ``total`` work items over partitions as evenly as
    possible (used to parallelise "generate N edges" stages that have no
    input data, like the PGSK descent)."""
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    if total < 0:
        raise ValueError("total must be non-negative")
    base = total // n_partitions
    counts = np.full(n_partitions, base, dtype=np.int64)
    counts[: total - base * n_partitions] += 1
    return counts
