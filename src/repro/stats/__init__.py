"""Statistical substrate: empirical and conditional distributions.

The generators in :mod:`repro.core` never look at the seed trace directly;
they consume the *empirical distributions* extracted from it (in/out degree,
Netflow attribute histograms, conditional attribute distributions).  This
package provides those distribution objects together with fast vectorised
samplers built on inverse-CDF lookup (``np.searchsorted``),
quantile-binned conditional distributions, and the log-binned histogram
distances the veracity scores use.
"""

from repro.stats.empirical import EmpiricalDistribution
from repro.stats.conditional import ConditionalDistribution
from repro.stats.histogram import (
    normalized_distribution,
    log_binned_histogram,
    aligned_euclidean_distance,
)

__all__ = [
    "EmpiricalDistribution",
    "ConditionalDistribution",
    "normalized_distribution",
    "log_binned_histogram",
    "aligned_euclidean_distance",
]
