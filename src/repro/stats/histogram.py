"""Histogram utilities used by the veracity metrics.

The paper compares seed and synthetic graphs through their *normalized*
degree and PageRank distributions, then scores similarity as the average
Euclidean distance between the aligned distributions (Section V-A).  The
helpers here implement that alignment: two distributions over different
supports are projected onto the union support (or onto common logarithmic
bins) before the distance is taken.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalized_distribution",
    "log_binned_histogram",
    "aligned_euclidean_distance",
    "kolmogorov_smirnov_distance",
]


def normalized_distribution(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(support, frequency)`` with frequencies normalised to sum 1.

    ``values`` is a raw observation vector (e.g. the degree of every vertex).
    The paper additionally divides each *value* by the total across vertices
    when plotting; that is a display transform, while the veracity score acts
    on the probability vector returned here.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("cannot normalise an empty observation vector")
    support, counts = np.unique(values, return_counts=True)
    freq = counts.astype(np.float64) / values.size
    return support, freq


def log_binned_histogram(
    values: np.ndarray, n_bins: int = 40, vmin: float | None = None,
    vmax: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram positive values into logarithmically spaced bins.

    Returns ``(bin_centers, density)`` where density sums to 1.  Degree and
    PageRank distributions are heavy-tailed, so linear bins would put nearly
    all mass into the first bin; log bins give each decade equal resolution.
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[values > 0]
    if values.size == 0:
        raise ValueError("log binning requires at least one positive value")
    lo = vmin if vmin is not None else values.min()
    hi = vmax if vmax is not None else values.max()
    if lo <= 0:
        raise ValueError("log binning requires a positive lower bound")
    if hi <= lo:
        hi = lo * (1.0 + 1e-9)
    edges = np.logspace(np.log10(lo), np.log10(hi), n_bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    density = counts.astype(np.float64)
    total = density.sum()
    if total > 0:
        density /= total
    centers = np.sqrt(edges[:-1] * edges[1:])
    return centers, density


def aligned_euclidean_distance(
    a_values: np.ndarray, b_values: np.ndarray, *, n_bins: int | None = None
) -> float:
    """Average Euclidean distance between two normalised distributions.

    This is the paper's *veracity score*: smaller means the synthetic data
    is closer to the seed.  When ``n_bins`` is None the distributions are
    aligned on the union of their supports (exact, good for integer degrees);
    otherwise both are projected onto shared log bins (needed for PageRank,
    whose supports are continuous and disjoint).

    The "average" divides the Euclidean norm by the number of aligned support
    points, which is what makes larger synthetic graphs (whose mass spreads
    over many more distinct values) score *lower* — the linear-in-log-size
    decay seen in Figs. 6 and 7.
    """
    a_values = np.asarray(a_values, dtype=np.float64)
    b_values = np.asarray(b_values, dtype=np.float64)
    if n_bins is None:
        sup_a, freq_a = normalized_distribution(a_values)
        sup_b, freq_b = normalized_distribution(b_values)
        union = np.union1d(sup_a, sup_b)
        pa = np.zeros(union.size)
        pb = np.zeros(union.size)
        pa[np.searchsorted(union, sup_a)] = freq_a
        pb[np.searchsorted(union, sup_b)] = freq_b
    else:
        pos_a = a_values[a_values > 0]
        pos_b = b_values[b_values > 0]
        if pos_a.size == 0 or pos_b.size == 0:
            raise ValueError("binned alignment requires positive values")
        lo = min(pos_a.min(), pos_b.min())
        hi = max(pos_a.max(), pos_b.max())
        _, pa = log_binned_histogram(pos_a, n_bins=n_bins, vmin=lo, vmax=hi)
        _, pb = log_binned_histogram(pos_b, n_bins=n_bins, vmin=lo, vmax=hi)
    n = pa.size
    if n == 0:
        return 0.0
    # A numpy reduction, not ``np.linalg.norm``: BLAS splits a long vector
    # over its threads, so the last bit would depend on the thread count.
    d = pa - pb
    return float(np.sqrt(np.sum(d * d)) / n)


def kolmogorov_smirnov_distance(
    a_values: np.ndarray, b_values: np.ndarray
) -> float:
    """Two-sample KS statistic, used as a secondary veracity diagnostic."""
    a = np.sort(np.asarray(a_values, dtype=np.float64))
    b = np.sort(np.asarray(b_values, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS distance requires non-empty samples")
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())
