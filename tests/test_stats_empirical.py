"""Unit tests for repro.stats.empirical."""

import numpy as np
import pytest

from repro.stats import EmpiricalDistribution


class TestConstruction:
    def test_from_samples_aggregates_ties(self):
        d = EmpiricalDistribution.from_samples(np.array([1, 1, 2, 3, 3, 3]))
        assert d.values.tolist() == [1, 2, 3]
        assert np.allclose(d.probabilities, [2 / 6, 1 / 6, 3 / 6])

    def test_from_counts_normalises(self):
        d = EmpiricalDistribution.from_counts(
            np.array([5, 10]), np.array([3.0, 1.0])
        )
        assert np.allclose(d.probabilities, [0.75, 0.25])

    def test_from_counts_sorts_support(self):
        d = EmpiricalDistribution.from_counts(
            np.array([10, 5]), np.array([1.0, 1.0])
        )
        assert d.values.tolist() == [5, 10]

    def test_zero_probability_atoms_dropped(self):
        d = EmpiricalDistribution.from_counts(
            np.array([1, 2, 3]), np.array([1.0, 0.0, 1.0])
        )
        assert d.values.tolist() == [1, 3]

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="zero samples"):
            EmpiricalDistribution.from_samples(np.array([]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EmpiricalDistribution.from_counts(
                np.array([1, 2]), np.array([1.0, -1.0])
            )

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="all be zero"):
            EmpiricalDistribution.from_counts(
                np.array([1]), np.array([0.0])
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="matching 1-D"):
            EmpiricalDistribution.from_counts(
                np.array([1, 2]), np.array([1.0])
            )

    def test_degenerate(self):
        d = EmpiricalDistribution.degenerate(42)
        assert d.support_size == 1
        assert d.mean() == 42.0


class TestQueries:
    @pytest.fixture
    def dist(self):
        return EmpiricalDistribution.from_counts(
            np.array([1, 2, 4]), np.array([1.0, 2.0, 1.0])
        )

    def test_pmf_on_support(self, dist):
        assert np.allclose(dist.pmf([1, 2, 4]), [0.25, 0.5, 0.25])

    def test_pmf_off_support(self, dist):
        assert np.allclose(dist.pmf([0, 3, 5]), [0.0, 0.0, 0.0])

    def test_cdf_monotone_and_bounded(self, dist):
        x = np.array([0, 1, 2, 3, 4, 5])
        c = dist.cdf(x)
        assert np.all(np.diff(c) >= 0)
        assert c[0] == 0.0
        assert c[-1] == 1.0

    def test_quantile_inverts_cdf(self, dist):
        assert dist.quantile([0.0])[0] == 1
        assert dist.quantile([0.25])[0] == 1
        assert dist.quantile([0.26])[0] == 2
        assert dist.quantile([1.0])[0] == 4

    def test_quantile_out_of_range_rejected(self, dist):
        with pytest.raises(ValueError, match="0, 1"):
            dist.quantile([1.5])

    def test_mean(self, dist):
        assert dist.mean() == pytest.approx(0.25 * 1 + 0.5 * 2 + 0.25 * 4)

    def test_var(self, dist):
        # values 1, 2, 4 with weights 1/4, 1/2, 1/4: mean 2.25
        assert dist.var() == pytest.approx(
            0.25 * 1.25**2 + 0.5 * 0.25**2 + 0.25 * 1.75**2
        )

    def test_len(self, dist):
        assert len(dist) == 3


class TestSampling:
    def test_sample_stays_on_support(self, rng):
        d = EmpiricalDistribution.from_samples(np.array([2, 2, 7, 9]))
        s = d.sample(1000, rng)
        assert set(np.unique(s)) <= {2, 7, 9}

    def test_sample_frequencies_converge(self, rng):
        d = EmpiricalDistribution.from_counts(
            np.array([0, 1]), np.array([0.8, 0.2])
        )
        s = d.sample(200_000, rng)
        assert np.mean(s == 1) == pytest.approx(0.2, abs=0.01)

    def test_sample_zero(self, rng):
        d = EmpiricalDistribution.degenerate(1)
        assert d.sample(0, rng).size == 0

    def test_sample_negative_rejected(self, rng):
        d = EmpiricalDistribution.degenerate(1)
        with pytest.raises(ValueError):
            d.sample(-1, rng)

    def test_sample_preserves_dtype(self, rng):
        d = EmpiricalDistribution.from_samples(
            np.array([1, 2, 3], dtype=np.int64)
        )
        assert d.sample(10, rng).dtype == np.int64

    def test_deterministic_given_seed(self):
        d = EmpiricalDistribution.from_samples(np.arange(100))
        a = d.sample(50, np.random.default_rng(1))
        b = d.sample(50, np.random.default_rng(1))
        assert np.array_equal(a, b)
