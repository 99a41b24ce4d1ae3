"""Tests for the variational network forward pass, predictive, and checkpoints."""

import math

import numpy as np
import pytest

from conftest import build_golden_net, build_golden_noise
from jsbnn import network
from jsbnn.gaussian import DiagonalGaussian, VariationalParams
from jsbnn.network import (
    BayesianNetwork,
    VariationalDenseLayer,
    forward,
    load_checkpoint,
    predictive,
    save_checkpoint,
)


def zero_noise(net):
    """All-zero noise: the forward pass then uses the posterior means exactly."""
    return np.zeros(net.n_parameters)


def identity_layer(n, activation="identity"):
    w_mu = np.eye(n).ravel()
    return VariationalDenseLayer(
        fan_in=n,
        fan_out=n,
        weights=VariationalParams(w_mu, np.full(n * n, -40.0)),
        biases=VariationalParams(np.zeros(n), np.full(n, -40.0)),
        activation=activation,
    )


def small_net(seed=0, sizes=(2, 16, 2)):
    prior = DiagonalGaussian([0.0], [math.sqrt(0.1)])
    return BayesianNetwork.initialize(sizes, prior, seed)


class TestForward:
    def test_identity_network_passes_input_through(self):
        net = BayesianNetwork(
            layers=[identity_layer(3)], prior=DiagonalGaussian([0.0], [1.0])
        )
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(forward(net, x, zero_noise(net)), x, rtol=1e-12)

    def test_zero_means_zero_noise_gives_zero_logits(self):
        net = small_net()
        for layer in net.layers:
            layer.weights.mu[:] = 0.0
            layer.biases.mu[:] = 0.0
        out = forward(net, np.array([0.7, -0.1]), zero_noise(net))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_golden_fixture(self, golden_forward_case):
        net = build_golden_net(golden_forward_case["inputs"]["net"])
        eps = build_golden_noise(golden_forward_case["inputs"]["epsilons"])
        x = np.array(golden_forward_case["inputs"]["x"])
        expected = np.array(golden_forward_case["expected"])
        np.testing.assert_allclose(forward(net, x, eps), expected, rtol=1e-12)
        # single-vector calls agree with the batched call
        np.testing.assert_allclose(forward(net, x[0], eps), expected[0], rtol=1e-12)

    def test_linear_in_noise_for_identity_activations(self):
        # doubling the noise doubles the logit deviation from the noise-free pass
        prior = DiagonalGaussian([0.0], [1.0])
        rng = np.random.default_rng(3)
        layers = [
            VariationalDenseLayer(
                fan_in=2, fan_out=3,
                weights=VariationalParams(rng.normal(size=6), rng.normal(size=6)),
                biases=VariationalParams(rng.normal(size=3), rng.normal(size=3)),
                activation="identity",
            ),
            VariationalDenseLayer(
                fan_in=3, fan_out=2,
                weights=VariationalParams(rng.normal(size=6), rng.normal(size=6)),
                biases=VariationalParams(rng.normal(size=2), rng.normal(size=2)),
                activation="softmax",
            ),
        ]
        net = BayesianNetwork(layers=layers, prior=prior)
        x = np.array([0.4, -0.9])
        base = forward(net, x, zero_noise(net))
        eps1 = np.concatenate([np.zeros(6), rng.normal(size=3), np.zeros(6), rng.normal(size=2)])
        eps2 = eps1 * 2.0
        d1 = forward(net, x, eps1) - base
        d2 = forward(net, x, eps2) - base
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-9)

    def test_shape_errors(self):
        net = small_net()
        with pytest.raises(ValueError):
            forward(net, np.zeros(3), zero_noise(net))
        bad_eps = zero_noise(net)[:-1]
        with pytest.raises(ValueError):
            forward(net, np.zeros(2), bad_eps)


class TestPredictive:
    def test_probability_simplex(self):
        net = small_net()
        x = np.random.default_rng(5).normal(size=(40, 2))
        probs = predictive(net, x, 16, 9)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_sample_is_one_softmax_pass(self):
        net = small_net()
        x = np.array([0.2, 0.4])
        p1 = predictive(net, x, 1, 31)
        rng = np.random.default_rng(31)
        eps = rng.standard_normal(net.n_parameters)
        logits = forward(net, x, eps)
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        np.testing.assert_allclose(p1, expected, rtol=1e-12)

    def test_bit_identical_to_per_sample_loop(self):
        # reference: one per-layer noise draw and one plain numpy pass per sample
        net = small_net(seed=13, sizes=(2, 16, 16, 2))
        for layer in net.layers:
            layer.weights.rho[:] = -1.5
        x = np.random.default_rng(14).normal(size=(37, 2))
        rng = np.random.default_rng([5, 6])
        acc = None
        for _ in range(23):
            h = x
            for layer in net.layers:
                ew = rng.standard_normal(layer.weights.dim)
                eb = rng.standard_normal(layer.biases.dim)
                w = layer.weights.mu + np.logaddexp(0.0, layer.weights.rho) * ew
                b = layer.biases.mu + np.logaddexp(0.0, layer.biases.rho) * eb
                h = h @ w.reshape(layer.fan_in, layer.fan_out) + b
                if layer.activation == "relu":
                    h = np.maximum(h, 0.0)
            e = np.exp(h - h.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            acc = probs if acc is None else acc + probs
        np.testing.assert_array_equal(predictive(net, x, 23, [5, 6]), acc / 23)

    def test_sample_chunks_do_not_change_the_result(self, monkeypatch):
        net = small_net(seed=15)
        x = np.random.default_rng(16).normal(size=(9, 2))
        whole = predictive(net, x, 11, 3)
        monkeypatch.setattr(network, "_PREDICTIVE_CHUNK_FLOATS", 9 * 16 * 4)  # 4 samples a pass
        np.testing.assert_array_equal(predictive(net, x, 11, 3), whole)

    def test_all_zero_logits_uniform(self):
        net = small_net()
        for layer in net.layers:
            for params in (layer.weights, layer.biases):
                params.mu[:] = 0.0
                params.rho[:] = -40.0
        probs = predictive(net, np.array([0.3, 0.3]), 7, 2)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_two_seeds_within_bernoulli_se(self):
        net = small_net(seed=8)
        # spread the posterior a little so the predictive is genuinely stochastic
        for layer in net.layers:
            layer.weights.rho[:] = -1.0
            layer.biases.rho[:] = -1.0
        x = np.array([0.8, -0.3])
        n = 1000
        a = predictive(net, x, n, 100)[0]
        b = predictive(net, x, n, 200)[0]
        se = math.sqrt(2.0) * math.sqrt(0.25 / n)  # Bernoulli bound for a difference
        assert abs(a - b) < 3 * se

    def test_collapsed_posterior_is_deterministic(self):
        net = small_net(seed=6)
        for layer in net.layers:
            layer.weights.rho[:] = -40.0
            layer.biases.rho[:] = -40.0
        x = np.array([0.1, 0.9])
        logits = forward(net, x, zero_noise(net))
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        probs = predictive(net, x, 25, 77)
        np.testing.assert_allclose(probs, expected, atol=1e-9)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            predictive(small_net(), np.zeros(2), 0, 1)


class TestInitialization:
    def test_shapes_and_defaults(self):
        net = small_net(sizes=(2, 16, 16, 2))
        assert [l.fan_in for l in net.layers] == [2, 16, 16]
        assert [l.fan_out for l in net.layers] == [16, 16, 2]
        assert [l.activation for l in net.layers] == ["relu", "relu", "softmax"]
        assert net.n_parameters == 2 * 16 + 16 + 16 * 16 + 16 + 16 * 2 + 2

    def test_initial_posterior_narrower_than_prior(self):
        net = small_net()
        prior_sigma = net.prior.sigma[0]
        for layer in net.layers:
            assert np.all(layer.weights.sigma() < prior_sigma)
            assert np.all(layer.biases.sigma() < prior_sigma)

    def test_seeded_init_reproducible(self):
        a, b = small_net(seed=4), small_net(seed=4)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights.mu, lb.weights.mu)

    def test_composition_checked(self):
        prior = DiagonalGaussian([0.0], [1.0])
        with pytest.raises(ValueError):
            BayesianNetwork(layers=[identity_layer(2), identity_layer(3)], prior=prior)


class TestFlatLayout:
    def test_layout_covers_every_parameter_in_layer_order(self):
        net = small_net(sizes=(2, 16, 16, 2))
        pos = 0
        for layer, ((w, w_shape), (b, b_shape)) in zip(net.layers, net.layout()):
            assert (w.start, w.stop, w_shape) == (pos, pos + layer.weights.dim, (layer.fan_in, layer.fan_out))
            assert (b.start, b.stop, b_shape) == (w.stop, w.stop + layer.biases.dim, (layer.fan_out,))
            pos = b.stop
        assert pos == net.n_parameters == 354

    def test_flat_params_round_trip(self):
        net = small_net(seed=2)
        mu, rho = net.flat_params()
        other = small_net(seed=3)
        other.set_flat_params(mu, rho)
        for a, b in zip(net.layers, other.layers):
            np.testing.assert_array_equal(a.weights.mu, b.weights.mu)
            np.testing.assert_array_equal(a.biases.rho, b.biases.rho)
        flat_mu, _ = other.flat_params()
        np.testing.assert_array_equal(flat_mu, mu)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = small_net(seed=12, sizes=(2, 8, 2))
        path = tmp_path / "ck.json"
        save_checkpoint(net, path, seed_lineage=[12, 7])
        loaded = load_checkpoint(path)
        assert loaded.n_inputs == 2 and loaded.n_outputs == 2
        for la, lb in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(la.weights.mu, lb.weights.mu)
            np.testing.assert_array_equal(la.weights.rho, lb.weights.rho)
            np.testing.assert_array_equal(la.biases.mu, lb.biases.mu)
            assert la.activation == lb.activation
        np.testing.assert_array_equal(net.prior.mu, loaded.prior.mu)
        x = np.array([0.5, -0.5])
        np.testing.assert_array_equal(
            forward(net, x, zero_noise(net)), forward(loaded, x, zero_noise(loaded))
        )

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_checkpoint(path)
