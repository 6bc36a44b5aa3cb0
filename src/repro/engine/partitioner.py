"""Array partitioning helpers.

``split_array`` / ``split_count`` fix *logical* partition boundaries: the
same ``(total, n_partitions)`` always produces the same split, so stage
re-execution (recovery, another backend, another task grain) lands every row
in the same partition.  ``chunk_weights`` works on the other side of the
two-clock boundary: it groups logical partitions into the *physical*
executor tasks the coalescer dispatches, without ever moving a row
between partitions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["split_array", "split_count", "chunk_weights"]


def split_array(arr: np.ndarray, n_partitions: int) -> list[np.ndarray]:
    """Split a 1-D array into ``n_partitions`` contiguous, near-equal views.

    Views, not copies: the engine only copies when a transformation
    actually produces new data.

    When ``n_partitions > len(arr)`` the trailing partitions are empty.
    The split itself keeps them (callers rely on the ``n_partitions``
    length contract), but the plan layer prunes empty partitions before
    task emission — they run inline in the driver instead of becoming
    real scheduled tasks (see :func:`repro.engine.plan.fuse_and_run`).
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    return list(np.array_split(arr, n_partitions))


def chunk_weights(
    weights, target: int, *, min_chunks: int = 1
) -> list[list[int]]:
    """Group consecutive positions into chunks of ~``target`` total weight.

    Returns a list of position groups covering ``range(len(weights))`` in
    order; every group is non-empty.  The number of chunks is
    ``min(len(weights), max(min_chunks, ceil(total / target)))`` and the
    boundaries are placed at the balanced cumulative-weight quotas, so the
    grouping is a pure function of ``(weights, target, min_chunks)`` —
    deterministic and backend-independent, which keeps the coalesced task
    composition (and therefore any fault-injection coordinates keyed on
    it) identical on every executor backend.
    """
    if target < 1:
        raise ValueError("target weight must be >= 1")
    if min_chunks < 1:
        raise ValueError("min_chunks must be >= 1")
    n = len(weights)
    if n == 0:
        return []
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    total = float(cum[-1])
    n_chunks = min(n, max(min_chunks, int(np.ceil(total / target)) or 1))
    bounds = [0]
    for c in range(1, n_chunks):
        cut = int(np.searchsorted(cum, total * c / n_chunks, side="left")) + 1
        cut = max(cut, bounds[-1] + 1)  # at least one position per chunk
        cut = min(cut, n - (n_chunks - c))  # leave positions for the rest
        bounds.append(cut)
    bounds.append(n)
    return [
        list(range(bounds[c], bounds[c + 1])) for c in range(n_chunks)
    ]


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
