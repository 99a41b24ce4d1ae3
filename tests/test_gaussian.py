"""Tests for the diagonal Gaussian primitives."""

import functools
import math

import numpy as np
import pytest

from jsbnn.gaussian import DiagonalGaussian, VariationalParams, softplus_sigma
from jsbnn.loss import _log_normal
from jsbnn.network import BayesianNetwork, VariationalDenseLayer, forward


@functools.lru_cache(maxsize=None)
def _identity_layer_net(mu: tuple, rho: tuple) -> BayesianNetwork:
    d = len(mu)
    layer = VariationalDenseLayer(1, d, VariationalParams(mu, rho),
                                  VariationalParams(np.zeros(d), np.zeros(d)), "identity")
    return BayesianNetwork([layer], DiagonalGaussian([0.0], [1.0]))


def sample_weights(params: VariationalParams, epsilon) -> np.ndarray:
    """The reparameterized draw mu + softplus(rho) * epsilon, as `forward` makes it:
    the logits at input 1 of a 1 -> d identity layer with zero, noise-free biases."""
    net = _identity_layer_net(tuple(params.mu), tuple(params.rho))
    return forward(net, np.ones(1), np.concatenate([np.asarray(epsilon, dtype=float), np.zeros(params.dim)]))


def log_density(x, g: DiagonalGaussian) -> float:
    """The library's Gaussian log density (the loss graph's `_log_normal`) of one point."""
    return float(_log_normal(np.asarray(x, dtype=float), g.mu, g.var))


class TestSoftplusSigma:
    def test_at_zero_is_log_two(self):
        np.testing.assert_allclose(softplus_sigma([0.0]), [math.log(2.0)], rtol=1e-12)

    def test_deep_negative_stays_positive(self):
        out = softplus_sigma([-40.0])
        assert out[0] == pytest.approx(4.25e-18, rel=1e-2)
        assert out[0] > 0.0

    def test_log_ten_case(self):
        # log(1 + e^2.197225) = log(10) because e^2.197225 ~ 9
        np.testing.assert_allclose(softplus_sigma([2.197225]), [2.3025854733914564], rtol=1e-12)

    def test_large_input_no_overflow(self):
        out = softplus_sigma([800.0])
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(800.0)

    def test_monotone_and_positive(self):
        rho = np.linspace(-60, 60, 5001)
        out = softplus_sigma(rho)
        assert np.all(out > 0)
        assert np.all(np.diff(out) > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softplus_sigma([np.nan])
        with pytest.raises(ValueError):
            softplus_sigma([np.inf])


class TestSampleWeights:
    def test_zero_noise_returns_mean(self):
        params = VariationalParams([1.0, 2.0], [0.0, 0.0])
        np.testing.assert_array_equal(sample_weights(params, [0.0, 0.0]), [1.0, 2.0])

    def test_unit_noise_at_rho_zero(self):
        params = VariationalParams([0.0], [0.0])
        np.testing.assert_allclose(sample_weights(params, [1.0]), [math.log(2.0)], rtol=1e-12)

    def test_scaled_noise(self):
        params = VariationalParams([0.5], [-4.0])
        expected = 0.5 + 2.0 * math.log1p(math.exp(-4.0))
        np.testing.assert_allclose(sample_weights(params, [2.0]), [expected], rtol=1e-12)
        assert expected == pytest.approx(0.5362998558356195, rel=1e-10)

    def test_length_mismatch(self):
        params = VariationalParams([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            sample_weights(params, [1.0])

    def test_sample_moments(self):
        # empirical mean -> mu and std -> softplus(rho) at 1e5 samples, 3-sigma
        params = VariationalParams([0.7], [-1.0])
        sigma = softplus_sigma([-1.0])[0]
        rng = np.random.default_rng(42)
        n = 100_000
        draws = np.array([sample_weights(params, eps)[0] for eps in rng.standard_normal((n, 1))])
        se_mean = sigma / math.sqrt(n)
        assert abs(draws.mean() - 0.7) < 3 * se_mean
        se_std = sigma / math.sqrt(2 * (n - 1))
        assert abs(draws.std(ddof=1) - sigma) < 3 * se_std


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        g = DiagonalGaussian([0.0], [1.0])
        assert log_density([0.0], g) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_at_mean_any_mu(self):
        g = DiagonalGaussian([3.7], [1.0])
        assert log_density([3.7], g) == pytest.approx(-0.9189385332046727, rel=1e-12)

    def test_wide_gaussian_value(self):
        # -0.5*log(2*pi) - log(2) - 1/8, evaluated directly
        g = DiagonalGaussian([0.0], [2.0])
        expected = -0.5 * math.log(2 * math.pi) - math.log(2.0) - 0.125
        assert log_density([1.0], g) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-1.737085713764618, rel=1e-12)

    def test_density_normalizes(self):
        # exp(log_density) integrates to 1 over a wide grid (n=1)
        g = DiagonalGaussian([0.4], [0.8])
        xs = np.linspace(0.4 - 12 * 0.8, 0.4 + 12 * 0.8, 200_001)
        pdf = np.array([math.exp(log_density([x], g)) for x in xs])
        integral = np.trapezoid(pdf, xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_additive_over_dimensions(self):
        g = DiagonalGaussian([0.0, 1.0], [1.0, 2.0])
        parts = log_density([0.3], DiagonalGaussian([0.0], [1.0])) + log_density(
            [1.4], DiagonalGaussian([1.0], [2.0])
        )
        assert log_density([0.3, 1.4], g) == pytest.approx(parts, rel=1e-12)


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            DiagonalGaussian([0.0], [0.0])
        with pytest.raises(ValueError):
            DiagonalGaussian([0.0], [-1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiagonalGaussian([0.0, 1.0], [1.0])

    def test_broadcast(self):
        # a network shares a 1-dimensional prior across its P = 3 parameters
        layer = VariationalDenseLayer(2, 1, VariationalParams(np.zeros(2), np.zeros(2)),
                                      VariationalParams([0.0], [0.0]), "identity")
        net = BayesianNetwork([layer], DiagonalGaussian([0.5], [2.0]))
        np.testing.assert_array_equal(net.prior_mean, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            BayesianNetwork([layer], DiagonalGaussian([0.0, 1.0], [1.0, 1.0]))

    def test_variational_params_sigma_positive(self):
        p = VariationalParams(np.zeros(4), np.full(4, -30.0))
        assert np.all(p.sigma() > 0)
        assert np.all(np.isfinite(p.sigma()))
