"""Empirical (data-driven) probability distributions with O(log n) sampling.

An :class:`EmpiricalDistribution` is built from observed samples (e.g. the
in-degree sequence of a seed graph, or the OUT_BYTES column of a Netflow
table).  Sampling uses inverse-CDF lookup against the cumulative weights,
which vectorises to a single ``np.searchsorted`` call — drawing ten million
variates is a few array operations, never a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EmpiricalDistribution"]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A discrete distribution over the distinct values seen in the data.

    Parameters
    ----------
    values:
        Sorted 1-D array of distinct support values (any numeric dtype).
    probabilities:
        Matching array of probabilities, summing to 1.

    Use :meth:`from_samples` or :meth:`from_counts` rather than the raw
    constructor; they validate and normalise the inputs.
    """

    values: np.ndarray
    probabilities: np.ndarray
    _cdf: np.ndarray = field(repr=False, compare=False, default=None)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalDistribution":
        """Build from raw observations; ties are aggregated into weights."""
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.size == 0:
            raise ValueError("cannot build a distribution from zero samples")
        values, counts = np.unique(samples, return_counts=True)
        return cls.from_counts(values, counts)

    @classmethod
    def from_counts(
        cls, values: np.ndarray, counts: np.ndarray
    ) -> "EmpiricalDistribution":
        """Build from a (value, count-or-weight) table."""
        values = np.asarray(values)
        counts = np.asarray(counts, dtype=np.float64)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError(
                f"values {values.shape} and counts {counts.shape} must be "
                "matching 1-D arrays"
            )
        if values.size == 0:
            raise ValueError("cannot build a distribution with empty support")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = counts.sum()
        if total <= 0:
            raise ValueError("counts must not all be zero")
        order = np.argsort(values, kind="stable")
        values = values[order]
        probs = counts[order] / total
        # Drop zero-probability atoms so the support is exact.
        keep = probs > 0
        values, probs = values[keep], probs[keep]
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0  # guard against float drift at the top
        dist = cls(values=values, probabilities=probs)
        object.__setattr__(dist, "_cdf", cdf)
        return dist

    @classmethod
    def degenerate(cls, value) -> "EmpiricalDistribution":
        """A point mass at ``value`` (useful for constant attributes)."""
        return cls.from_counts(np.asarray([value]), np.asarray([1.0]))

    def __post_init__(self) -> None:
        if self._cdf is None:
            cdf = np.cumsum(self.probabilities)
            cdf[-1] = 1.0
            object.__setattr__(self, "_cdf", cdf)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def support_size(self) -> int:
        return int(self.values.size)

    def pmf(self, x) -> np.ndarray:
        """Probability mass at each element of ``x`` (0 outside support)."""
        x = np.atleast_1d(np.asarray(x))
        idx = np.searchsorted(self.values, x)
        idx = np.clip(idx, 0, self.values.size - 1)
        hit = self.values[idx] == x
        out = np.where(hit, self.probabilities[idx], 0.0)
        return out

    def cdf(self, x) -> np.ndarray:
        """P(X <= x), vectorised."""
        x = np.atleast_1d(np.asarray(x))
        idx = np.searchsorted(self.values, x, side="right")
        out = np.where(idx > 0, self._cdf[np.maximum(idx - 1, 0)], 0.0)
        return out

    def quantile(self, q) -> np.ndarray:
        """Inverse CDF: smallest support value v with P(X <= v) >= q."""
        q = np.atleast_1d(np.asarray(q, dtype=np.float64))
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        idx = np.searchsorted(self._cdf, q, side="left")
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    def mean(self) -> float:
        return float(np.dot(self.values.astype(np.float64), self.probabilities))

    def var(self) -> float:
        d = self.values.astype(np.float64) - self.mean()
        return float(np.sum(self.probabilities * d * d))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. variates; one searchsorted, no Python loop."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return self.values[:0].copy()
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    def __len__(self) -> int:
        return self.support_size
