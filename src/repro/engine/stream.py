"""Bounded-chunk streaming helpers for the generators.

The paper's cluster never materializes a partition's whole edge array in
one worker: map tasks emit edges as they are drawn (Yoo & Henderson's
independent per-worker draws) and the runtime absorbs them in bounded
buffers.  This module holds the local engine's equivalents:

* :data:`EMIT_CHUNK_ROWS` — how many rows a streaming generator op
  yields per chunk;
* :func:`iter_repeat_chunks` — the chunked equivalent of
  ``np.repeat`` over value/count column pairs, bit-identical to the
  unchunked expansion when concatenated.  The random draws happen
  *before* chunking (whole-partition arrays), so the RNG stream is
  untouched and digests match the monolithic path exactly.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["EMIT_CHUNK_ROWS", "iter_repeat_chunks"]

# 4 MB of int64 edge pairs per chunk in the PGPBA/PGSK expansion stages.
# Digests do not depend on it (tests pass other ``chunk_rows``).
EMIT_CHUNK_ROWS = 262144


def iter_repeat_chunks(
    values: Sequence[np.ndarray],
    counts: np.ndarray,
    *,
    chunk_rows: int = EMIT_CHUNK_ROWS,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield ``tuple(np.repeat(v, counts) for v in values)`` in chunks.

    Each yielded tuple holds at most ``chunk_rows`` output rows.
    Concatenating the chunks column-wise is bit-identical to the
    monolithic ``np.repeat`` — the expansion is deterministic, so
    chunking it cannot shift any RNG stream.  Peak extra memory is one
    output chunk instead of the whole expansion (PGPBA emits ~2|E| rows
    per growth step through this).
    """

    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    counts = np.asarray(counts, dtype=np.int64)
    values = tuple(np.asarray(v) for v in values)
    if counts.size == 0:
        yield tuple(v[:0] for v in values)
        return
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        yield tuple(v[:0] for v in values)
        return
    starts = ends - counts
    out_pos = 0
    while out_pos < total:
        hi = min(out_pos + chunk_rows, total)
        # Source rows overlapping output window [out_pos, hi): every row
        # whose expansion ends after out_pos and starts before hi.
        first = int(np.searchsorted(ends, out_pos, side="right"))
        last = int(np.searchsorted(starts, hi, side="left"))
        window_counts = counts[first:last].copy()
        # Clip the edge rows to the window.
        window_counts[0] -= out_pos - int(starts[first])
        window_counts[-1] -= int(ends[last - 1]) - hi
        yield tuple(
            np.repeat(v[first:last], window_counts) for v in values
        )
        out_pos = hi
