"""Unit tests for the Kronecker substrate: initiator, expansion, KronFit."""

import numpy as np
import pytest

from repro.kronecker import (
    InitiatorMatrix,
    kronecker_log_likelihood,
    kronfit,
    stochastic_kronecker_edges,
)
from repro.kronecker.expand import descend_batch


class TestInitiator:
    def test_classic_valid(self):
        init = InitiatorMatrix.classic()
        assert init.size == 2
        assert init.edge_weight_sum == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            InitiatorMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="0, 1"):
            InitiatorMatrix(np.array([[1.5, 0.5], [0.5, 0.1]]))
        with pytest.raises(ValueError, match="0, 1"):
            InitiatorMatrix(np.array([[0.0, 0.5], [0.5, 0.1]]))
        with pytest.raises(ValueError, match="2x2"):
            InitiatorMatrix(np.array([[0.5]]))

    def test_expected_edges_exponential(self):
        init = InitiatorMatrix.classic()
        assert init.expected_edges(3) == pytest.approx(8.0)
        assert init.n_vertices(3) == 8

    def test_levels_for_edges(self):
        init = InitiatorMatrix.classic()  # sum = 2 -> doubling per level
        assert init.levels_for_edges(8) == 3
        assert init.levels_for_edges(9) == 4
        assert init.levels_for_edges(1) == 1

    def test_levels_rejects_shrinking_initiator(self):
        init = InitiatorMatrix(np.full((2, 2), 0.2))
        with pytest.raises(ValueError, match="cannot grow"):
            init.levels_for_edges(100)

    def test_descent_probabilities_normalised(self):
        p = InitiatorMatrix.classic().descent_probabilities()
        assert p.sum() == pytest.approx(1.0)

    def test_normalized_to_sum(self):
        init = InitiatorMatrix.classic().normalized_to_sum(1.5)
        assert init.edge_weight_sum == pytest.approx(1.5)


class TestStochasticExpansion:
    def test_vertex_range(self, rng):
        init = InitiatorMatrix.classic()
        src, dst = descend_batch(init, 5, 1000, rng)
        assert src.min() >= 0 and src.max() < 32
        assert dst.min() >= 0 and dst.max() < 32

    def test_deduplicated_output_distinct(self, rng):
        init = InitiatorMatrix.classic()
        src, dst = stochastic_kronecker_edges(init, 8, rng, n_edges=200)
        keys = src * 256 + dst
        assert np.unique(keys).size == keys.size == 200

    def test_without_dedup_keeps_collisions(self):
        init = InitiatorMatrix(np.array([[0.99, 0.9], [0.9, 0.8]]))
        rng = np.random.default_rng(0)
        src, dst = stochastic_kronecker_edges(
            init, 3, rng, n_edges=500, deduplicate=False
        )
        keys = src * 8 + dst
        assert np.unique(keys).size < keys.size  # tiny space -> collisions

    def test_default_target_expected_edges(self, rng):
        init = InitiatorMatrix.classic()
        src, _ = stochastic_kronecker_edges(init, 10, rng)
        assert src.size == int(round(init.expected_edges(10)))

    def test_dense_core_bias(self):
        """Cell (0,0) dominance concentrates edges on low vertex ids."""
        init = InitiatorMatrix(np.array([[0.9, 0.3], [0.3, 0.1]]))
        rng = np.random.default_rng(1)
        src, dst = descend_batch(init, 8, 20_000, rng)
        low = (src < 128).mean()
        assert low > 0.5  # low-id half gets well over half the edges

    def test_overflow_guard(self, rng):
        init = InitiatorMatrix.classic()
        with pytest.raises(ValueError, match="too many"):
            stochastic_kronecker_edges(init, 40, rng, n_edges=10)

    def test_zero_batch(self, rng):
        s, d = descend_batch(InitiatorMatrix.classic(), 3, 0, rng)
        assert s.size == 0 and d.size == 0

    def test_bad_args(self, rng):
        with pytest.raises(ValueError):
            stochastic_kronecker_edges(
                InitiatorMatrix.classic(), 0, rng
            )
        with pytest.raises(ValueError):
            stochastic_kronecker_edges(
                InitiatorMatrix.classic(), 3, rng, n_edges=0
            )


class TestKronFit:
    def test_recovers_initiator_scale(self):
        true = InitiatorMatrix(np.array([[0.9, 0.5], [0.5, 0.15]]))
        rng = np.random.default_rng(3)
        src, dst = stochastic_kronecker_edges(true, 10, rng)
        res = kronfit(src, dst, 1024, n_iterations=50,
                      swaps_per_iteration=80)
        assert res.initiator.edge_weight_sum == pytest.approx(
            true.edge_weight_sum, abs=0.15
        )
        # Core-periphery structure recovered: theta_00 clearly largest.
        t = res.initiator.theta
        assert t[0, 0] > t[1, 1]
        assert t[0, 0] == pytest.approx(0.9, abs=0.15)

    def test_likelihood_prefers_true_theta(self):
        true = InitiatorMatrix(np.array([[0.9, 0.5], [0.5, 0.15]]))
        rng = np.random.default_rng(5)
        src, dst = stochastic_kronecker_edges(true, 9, rng)
        ll_true = kronecker_log_likelihood(src, dst, true.theta, 9)
        ll_flat = kronecker_log_likelihood(
            src, dst, np.full((2, 2), 0.51), 9
        )
        assert ll_true > ll_flat

    def test_ll_improves_over_initial(self):
        true = InitiatorMatrix(np.array([[0.85, 0.45], [0.45, 0.25]]))
        rng = np.random.default_rng(6)
        src, dst = stochastic_kronecker_edges(true, 9, rng)
        start = InitiatorMatrix(np.full((2, 2), 0.5))
        res = kronfit(
            src, dst, 512, initial=start, n_iterations=40,
            swaps_per_iteration=50,
        )
        ll_start = kronecker_log_likelihood(src, dst, start.theta, 9)
        assert res.log_likelihood > ll_start

    def test_padding_to_power_of_two(self):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 700, 2000)
        dst = rng.integers(0, 700, 2000)
        res = kronfit(src, dst, 700, n_iterations=3, swaps_per_iteration=5)
        assert res.n_vertices_padded == 1024
        assert res.k == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kronfit(np.array([]), np.array([]), 4)

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 64, 300)
        dst = rng.integers(0, 64, 300)
        res = kronfit(src, dst, 64, n_iterations=4, swaps_per_iteration=20)
        assert 0.0 <= res.swap_acceptance_rate <= 1.0
        assert res.iterations == 4
        assert np.isfinite(res.log_likelihood)
