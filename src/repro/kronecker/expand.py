"""Kronecker graph expansion.

The stochastic recursive descent of the paper's Section III-B
(``O(|E|)``): each edge independently walks k levels of the initiator,
choosing cell ``(i, j)`` with probability ``theta_ij / sum(theta)`` at
every level.  Batches of edges descend simultaneously as vectorised digit
draws, duplicates are removed (the paper's ``RDD.distinct()``), and the
loop re-descends until the expected distinct-edge count is reached.

Equivalence note (cell sampling): :func:`descend_batch` draws cells by
inverse-CDF sampling — ``np.searchsorted`` of ``rng.random((n_edges, k))``
against the precomputed cumulative cell distribution — instead of
``rng.choice(n*n, size=(n_edges, k), p=probs)``.  The two are
**bit-identical** for the same generator state: ``Generator.choice`` with
replacement and explicit ``p`` is defined as exactly this
``cdf.searchsorted(random(shape), side="right")`` draw, consuming the
same uniform stream.  Doing it directly skips ``choice``'s per-call
population/probability validation and index round-trip; on older NumPy
that overhead was several times the searchsorted cost at Fig. 9 batch
sizes, on NumPy >= 2.x the two are within a few percent (measured) —
either way the explicit form pins the sampling definition so the RNG
stream can never shift underneath the reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.kronecker.initiator import InitiatorMatrix

__all__ = [
    "stochastic_kronecker_edges",
    "descend_batch",
]


def descend_batch(
    initiator: InitiatorMatrix,
    k: int,
    n_edges: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Place ``n_edges`` edges by recursive descent, vectorised.

    Every edge draws k independent cells from the initiator's normalised
    cell distribution; the digit sequences assemble into source and
    destination vertex ids in ``[0, N^k)``.  One call is one Map task of
    the paper's Map-Reduce implementation.
    """
    if n_edges <= 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    n = initiator.size
    probs = initiator.descent_probabilities()
    # cells: (n_edges, k) flat cell index per level, drawn by inverse-CDF
    # sampling (bit-identical to Generator.choice with p=probs — see the
    # module docstring).
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    cells = cdf.searchsorted(rng.random((n_edges, k)), side="right")
    row_digits = cells // n
    col_digits = cells % n
    # Horner assembly of base-N digit strings, most significant level first.
    place = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    src = row_digits @ place
    dst = col_digits @ place
    return src.astype(np.int64), dst.astype(np.int64)


def stochastic_kronecker_edges(
    initiator: InitiatorMatrix,
    k: int,
    rng: np.random.Generator,
    *,
    n_edges: int | None = None,
    deduplicate: bool = True,
    max_rounds: int = 64,
    oversample: float = 1.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate the edge set of a stochastic Kronecker graph.

    Parameters
    ----------
    k:
        Number of descent levels; the graph has ``N^k`` vertices.
    n_edges:
        Target *distinct* edge count; defaults to the expected count
        ``(sum theta)^k`` rounded.
    deduplicate:
        When True (the paper's behaviour) duplicate placements are dropped
        via ``distinct()`` and further descent rounds top the set back up.
        When False, collisions are kept as parallel edges — the ablation
        knob DESIGN.md calls out.

    Returns ``(src, dst)`` int64 arrays.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    target = (
        int(round(initiator.expected_edges(k))) if n_edges is None else n_edges
    )
    if target <= 0:
        raise ValueError("target edge count must be positive")

    if not deduplicate:
        return descend_batch(initiator, k, target, rng)

    n_vertices = initiator.n_vertices(k)
    if n_vertices > np.iinfo(np.int64).max // n_vertices:
        raise ValueError(
            f"descent depth k={k} produces {n_vertices} vertices, too many "
            "for packed int64 de-duplication keys"
        )
    seen = np.empty(0, dtype=np.int64)  # packed src * V + dst keys
    for _ in range(max_rounds):
        missing = target - seen.size
        if missing <= 0:
            break
        batch = max(int(np.ceil(missing * oversample)), 16)
        src, dst = descend_batch(initiator, k, batch, rng)
        keys = src * np.int64(n_vertices) + dst
        # Accumulate without re-sorting the whole set every round: sort
        # only the fresh batch, drop keys already present, then a single
        # linear merge keeps ``seen`` sorted-unique.
        fresh = np.unique(keys)
        if seen.size:
            pos = np.searchsorted(seen, fresh)
            pos_clipped = np.minimum(pos, seen.size - 1)
            fresh = fresh[seen[pos_clipped] != fresh]
            pos = np.searchsorted(seen, fresh)
            seen = np.insert(seen, pos, fresh)
        else:
            seen = fresh
    if seen.size > target:
        # Keep a uniform subset so the realisation is not biased toward
        # high-probability cells any more than the model dictates.
        keep = rng.choice(seen.size, size=target, replace=False)
        seen = seen[np.sort(keep)]
    src = seen // n_vertices
    dst = seen % n_vertices
    return src.astype(np.int64), dst.astype(np.int64)
