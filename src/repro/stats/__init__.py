"""Statistical substrate: empirical distributions and histogram distances.

The generators in :mod:`repro.core` never look at the seed trace directly;
they consume the *empirical distributions* extracted from it (in/out
degree, edge multiplicity).  This package provides those distribution
objects with fast vectorised samplers built on inverse-CDF lookup
(``np.searchsorted``), and the log-binned histogram distances the
veracity scores use.
"""

from repro.stats.empirical import EmpiricalDistribution
from repro.stats.histogram import (
    normalized_distribution,
    log_binned_histogram,
    aligned_euclidean_distance,
)

__all__ = [
    "EmpiricalDistribution",
    "normalized_distribution",
    "log_binned_histogram",
    "aligned_euclidean_distance",
]
