"""Unit tests for repro.stats.histogram."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.stats import (
    aligned_euclidean_distance,
    log_binned_histogram,
    normalized_distribution,
)
from repro.stats.histogram import kolmogorov_smirnov_distance


class TestNormalizedDistribution:
    def test_sums_to_one(self):
        _, freq = normalized_distribution(np.array([1, 1, 2, 5]))
        assert freq.sum() == pytest.approx(1.0)

    def test_support_sorted_unique(self):
        sup, _ = normalized_distribution(np.array([5, 1, 5, 2]))
        assert sup.tolist() == [1, 2, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_distribution(np.array([]))


class TestLogBinned:
    def test_density_sums_to_one(self):
        vals = np.logspace(0, 3, 500)
        _, dens = log_binned_histogram(vals, n_bins=20)
        assert dens.sum() == pytest.approx(1.0)

    def test_centers_are_geometric_means(self):
        centers, _ = log_binned_histogram(
            np.array([1.0, 10.0, 100.0]), n_bins=2, vmin=1.0, vmax=100.0
        )
        assert centers[0] == pytest.approx(np.sqrt(1 * 10))
        assert centers[1] == pytest.approx(np.sqrt(10 * 100))

    def test_nonpositive_dropped(self):
        centers, dens = log_binned_histogram(
            np.array([-1.0, 0.0, 1.0, 10.0]), n_bins=4
        )
        assert dens.sum() == pytest.approx(1.0)

    def test_all_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log_binned_histogram(np.array([0.0, -5.0]))

    def test_constant_values_ok(self):
        _, dens = log_binned_histogram(np.full(10, 3.0), n_bins=5)
        assert dens.sum() == pytest.approx(1.0)


class TestAlignedEuclidean:
    def test_identical_distributions_zero(self):
        a = np.array([1, 2, 2, 3])
        assert aligned_euclidean_distance(a, a.copy()) == pytest.approx(0.0)

    def test_symmetry(self):
        a = np.array([1, 1, 2])
        b = np.array([2, 3, 3])
        assert aligned_euclidean_distance(a, b) == pytest.approx(
            aligned_euclidean_distance(b, a)
        )

    def test_disjoint_supports_bounded(self):
        a = np.array([1, 1])
        b = np.array([2, 2])
        # norm = sqrt(1 + 1), support = 2
        assert aligned_euclidean_distance(a, b) == pytest.approx(
            np.sqrt(2) / 2
        )

    def test_larger_support_gives_smaller_score(self):
        # The paper's key behaviour: scores decrease as the synthetic
        # dataset grows (Figs. 6-7), because the union support grows.
        seed = np.array([1, 2, 3])
        small = np.array([10, 11])
        big = np.arange(10, 200)
        assert aligned_euclidean_distance(seed, big) < aligned_euclidean_distance(
            seed, small
        )

    def test_binned_mode(self):
        a = np.random.default_rng(0).lognormal(0, 1, 500)
        b = np.random.default_rng(1).lognormal(0, 1, 500)
        d_same = aligned_euclidean_distance(a, b, n_bins=20)
        c = np.random.default_rng(2).lognormal(3, 1, 500)
        d_diff = aligned_euclidean_distance(a, c, n_bins=20)
        assert d_same < d_diff

    def test_bits_do_not_depend_on_blas_threads(self):
        """OpenBLAS splits a vector of more than 10^4 points over its
        threads, and a BLAS norm then rounds differently on one thread than
        on two; the veracity scores, and so the digests, must not."""
        script = (
            "import numpy as np\n"
            "from repro.stats import aligned_euclidean_distance\n"
            "for s in range(4):\n"
            "    rng = np.random.default_rng(s)\n"
            "    a, b = np.floor(rng.pareto(1.5, (2, 8_000)) * 1e5)\n"
            "    print(repr(aligned_euclidean_distance(a, b)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src}
            outs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].split()) == 4


class TestKS:
    def test_identical_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert kolmogorov_smirnov_distance(a, a) == 0.0

    def test_disjoint_is_one(self):
        assert kolmogorov_smirnov_distance(
            np.array([1.0, 2.0]), np.array([10.0, 11.0])
        ) == pytest.approx(1.0)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        d = kolmogorov_smirnov_distance(rng.random(100), rng.random(100))
        assert 0.0 <= d <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_smirnov_distance(np.array([]), np.array([1.0]))
