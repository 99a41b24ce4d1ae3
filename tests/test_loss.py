"""Tests for the three training objectives and their breakdown contracts."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import build_golden_net, build_golden_noise
from jsbnn.divergence import DivergenceConfig, jsa_bound, jsg_gaussian_closed
from jsbnn.gaussian import DiagonalGaussian, VariationalParams
from jsbnn.loss import (
    LossBreakdown,
    NoiseBundle,
    build_loss_graph,
    draw_bundle,
    jsa_loss_mc,
    jsg_loss_closed,
    jsg_loss_mc,
    kl_loss,
    nll_mc,
)
from jsbnn.config import load_config
from jsbnn.network import BayesianNetwork, VariationalDenseLayer, forward
from jsbnn.train import gradients
from test_train import grads_to_vec

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "experiment_config.json"


def rho_for_sigma(sigma: float) -> float:
    """Inverse softplus: rho with softplus(rho) = sigma."""
    if sigma > 30.0:
        return sigma  # softplus is the identity to within exp(-30) here
    return math.log(math.expm1(sigma))


def one_weight_net(w_mu=5.0, w_sigma=1.0, prior_mu=0.0, prior_sigma=1.0):
    """A 1->1 net whose single weight is N(w_mu, w_sigma^2); the bias matches the prior."""
    layer = VariationalDenseLayer(
        fan_in=1,
        fan_out=1,
        weights=VariationalParams([w_mu], [rho_for_sigma(w_sigma)]),
        biases=VariationalParams([prior_mu], [rho_for_sigma(prior_sigma)]),
        activation="softmax",
    )
    prior = DiagonalGaussian([prior_mu], [prior_sigma])
    return BayesianNetwork(layers=[layer], prior=prior)


def random_net(rng, sizes=(2, 3, 2)):
    prior = DiagonalGaussian([0.0], [math.sqrt(0.1)])
    net = BayesianNetwork.initialize(sizes, prior, int(rng.integers(2**32)))
    for layer in net.layers:
        for params in (layer.weights, layer.biases):
            params.mu[:] = rng.normal(0, 0.4, params.dim)
            params.rho[:] = rng.uniform(-4, -1, params.dim)
    return net


def random_batch(rng, net, n=6):
    x = rng.normal(size=(n, net.n_inputs))
    y = rng.integers(0, net.n_outputs, n)
    return x, y


class TestNllMc:
    def test_uniform_two_class_batch_of_four(self):
        # collapsed net emitting all-zero logits: nll = 4 * log 2
        net = one_weight_net(w_mu=0.0, w_sigma=1e-9)
        layer = net.layers[0]
        for params in (layer.weights, layer.biases):
            params.mu[:] = 0.0
            params.rho[:] = -40.0
        # a 1-input, 1-output net has a single class; use a 2-class zero net instead
        net2 = BayesianNetwork.initialize((2, 2), DiagonalGaussian([0.0], [1.0]), 0)
        for l in net2.layers:
            for params in (l.weights, l.biases):
                params.mu[:] = 0.0
                params.rho[:] = -40.0
        batch = (np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert nll_mc(net2, batch, 3, 11) == pytest.approx(4 * math.log(2.0), abs=1e-9)

    def test_confident_net_near_zero(self):
        net = BayesianNetwork.initialize((2, 2), DiagonalGaussian([0.0], [1.0]), 0)
        for l in net.layers:
            l.weights.mu[:] = [50.0, -50.0, -50.0, 50.0]
            l.weights.rho[:] = -40.0
            l.biases.mu[:] = 0.0
            l.biases.rho[:] = -40.0
        batch = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        assert nll_mc(net, batch, 2, 5) == pytest.approx(0.0, abs=1e-12)

    def test_golden_value(self, golden_nll_case):
        net = build_golden_net(golden_nll_case["inputs"]["net"])
        eps = build_golden_noise(golden_nll_case["inputs"]["epsilons"])
        batch = (
            np.array(golden_nll_case["inputs"]["x"]),
            np.array(golden_nll_case["inputs"]["y"]),
        )
        bundle = NoiseBundle(eps[None, :])
        cfg = DivergenceConfig(mc_samples=1, seed=0)
        _, _, nll, _ = build_loss_graph(net, batch, "kl", cfg, 1.0, bundle)
        assert nll.item() == pytest.approx(golden_nll_case["expected"], rel=1e-12)

    def test_seed_sequence_uses_stream_with_trailing_zero(self):
        # seed=[1, 2] draws from the stream [1, 2, 0], as an integer seed s uses [s, 0]
        net = random_net(np.random.default_rng(17))
        x, y = random_batch(np.random.default_rng(18), net)
        rng = np.random.default_rng([1, 2, 0])
        expected = 0.0
        for _ in range(3):
            logits = forward(net, x, rng.standard_normal(net.n_parameters))
            m = logits.max(axis=1, keepdims=True)
            lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]
            expected += float(np.sum(lse - logits[np.arange(len(y)), y]))
        assert nll_mc(net, (x, y), 3, [1, 2]) == pytest.approx(expected / 3, rel=1e-12)
        assert nll_mc(net, (x, y), 3, [5]) == nll_mc(net, (x, y), 3, 5)

    def test_label_out_of_range(self):
        net = BayesianNetwork.initialize((2, 2), DiagonalGaussian([0.0], [1.0]), 0)
        with pytest.raises(ValueError):
            nll_mc(net, (np.zeros((2, 2)), np.array([0, 2])), 1, 0)

    def test_empty_batch_rejected(self):
        net = BayesianNetwork.initialize((2, 2), DiagonalGaussian([0.0], [1.0]), 0)
        with pytest.raises(ValueError):
            nll_mc(net, (np.zeros((0, 2)), np.array([], dtype=int)), 1, 0)


class TestKlLoss:
    def test_posterior_equals_prior_gives_zero_divergence(self):
        net = one_weight_net(w_mu=0.0, w_sigma=1.0, prior_mu=0.0, prior_sigma=1.0)
        batch = (np.array([[0.5]]), np.array([0]))
        out = kl_loss(net, batch, DivergenceConfig(seed=3))
        assert out.divergence_term == pytest.approx(0.0, abs=1e-12)
        assert out.total == pytest.approx(out.nll_term, rel=1e-12)

    def test_one_weight_reference_divergence(self):
        net = one_weight_net(w_mu=5.0, w_sigma=1.0)
        batch = (np.array([[0.5]]), np.array([0]))
        out = kl_loss(net, batch, DivergenceConfig(seed=3))
        # bias term contributes ~0 (it matches the prior up to softplus rounding)
        assert out.divergence_term == pytest.approx(12.5, rel=1e-9)

    def test_breakdown_invariant(self):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        batch = random_batch(rng, net)
        out = kl_loss(net, batch, DivergenceConfig(seed=9), minibatch_scale=0.125)
        assert out.total == pytest.approx(
            0.125 * out.divergence_term + out.nll_term, rel=1e-12
        )
        assert out.divergence_term >= 0.0

    def test_csv_row(self):
        b = LossBreakdown(divergence_term=2.0, nll_term=1.5, total=2.5, minibatch_scale=0.5)
        assert b.csv_row(7) == "7,2.0,1.5,2.5"


class TestJsgClosedLoss:
    def test_elbo_recovery_alpha_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            net = random_net(rng)
            batch = random_batch(rng, net)
            cfg_kl = DivergenceConfig(seed=17)
            cfg_jsg = DivergenceConfig(alpha=0.0, lam=1.0, seed=17)
            a = kl_loss(net, batch, cfg_kl)
            b = jsg_loss_closed(net, batch, cfg_jsg)
            assert b.total == pytest.approx(a.total, rel=1e-12)
            assert b.nll_term == a.nll_term  # identical noise, identical forward pass

    def test_one_weight_reference_divergence(self):
        net = one_weight_net(w_mu=5.0, w_sigma=1.0)
        batch = (np.array([[0.5]]), np.array([0]))
        out = jsg_loss_closed(net, batch, DivergenceConfig(alpha=0.5, lam=1.0, seed=3))
        assert out.divergence_term == pytest.approx(3.125, rel=1e-9)

    def test_lambda_zero_leaves_nll_only(self):
        rng = np.random.default_rng(6)
        net = random_net(rng)
        batch = random_batch(rng, net)
        out = jsg_loss_closed(net, batch, DivergenceConfig(alpha=0.4, lam=0.0, seed=2))
        assert out.divergence_term == 0.0
        assert out.total == out.nll_term

    def test_divergence_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(7)
        net = random_net(rng)
        batch = random_batch(rng, net)
        prev = -1.0
        for lam in (0.0, 0.5, 1.0, 5.0, 50.0):
            out = jsg_loss_closed(net, batch, DivergenceConfig(alpha=0.3, lam=lam, seed=2))
            assert out.divergence_term >= prev
            prev = out.divergence_term

    def test_continuous_in_alpha_extreme_sigmas(self):
        # no NaN/Inf and no jumps across a dense alpha grid for sigma in [1e-6, 1e3]
        net = one_weight_net(w_mu=0.3, w_sigma=1e-6, prior_mu=0.0, prior_sigma=1.0)
        net.layers[0].biases.mu[:] = 0.1
        net.layers[0].biases.rho[:] = rho_for_sigma(1e3)
        batch = (np.zeros((0, 1)), np.array([], dtype=int))
        alphas = np.linspace(0.0, 1.0, 201)
        vals = [
            jsg_loss_closed(net, batch, DivergenceConfig(alpha=float(a), lam=1.0, seed=2)).divergence_term
            for a in alphas
        ]
        assert np.all(np.isfinite(vals))
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.05 * (1 + np.max(np.abs(vals)))

    def test_matches_sum_of_closed_divergences(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        batch = random_batch(rng, net)
        alpha, lam = 0.7, 2.5
        out = jsg_loss_closed(net, batch, DivergenceConfig(alpha=alpha, lam=lam, seed=2))
        expected = 0.0
        for layer in net.layers:
            for params, dim in ((layer.weights, layer.weights.dim), (layer.biases, layer.biases.dim)):
                prior = DiagonalGaussian(np.full(dim, net.prior.mu[0]), np.full(dim, net.prior.sigma[0]))
                expected += jsg_gaussian_closed(params.to_gaussian(), prior, alpha)
        assert out.divergence_term == pytest.approx(lam * expected, rel=1e-12)


class TestJsgMcLoss:
    def test_elbo_recovery_alpha_zero_over_seeds(self):
        rng = np.random.default_rng(9)
        net = random_net(rng)
        batch = random_batch(rng, net)
        kl_ref = kl_loss(net, batch, DivergenceConfig(seed=1)).divergence_term
        vals = np.array([
            jsg_loss_mc(net, batch, DivergenceConfig(alpha=0.0, lam=1.0, mc_samples=8, seed=s)).divergence_term
            for s in range(20)
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - kl_ref) < 3 * se

    def test_matches_closed_form_at_600_samples(self):
        net = one_weight_net(w_mu=5.0, w_sigma=1.0)
        batch = (np.zeros((0, 1)), np.array([], dtype=int))
        closed = jsg_loss_closed(net, batch, DivergenceConfig(alpha=0.5, lam=1.0, seed=0)).divergence_term
        errs = [
            abs(
                jsg_loss_mc(
                    net, batch, DivergenceConfig(alpha=0.5, lam=1.0, mc_samples=600, seed=s)
                ).divergence_term
                - closed
            )
            / closed
            for s in range(20)
        ]
        assert np.mean(errs) <= 0.05

    def test_lambda_zero(self):
        rng = np.random.default_rng(10)
        net = random_net(rng)
        batch = random_batch(rng, net)
        out = jsg_loss_mc(net, batch, DivergenceConfig(alpha=0.5, lam=0.0, mc_samples=2, seed=3))
        assert out.divergence_term == 0.0
        assert out.total == out.nll_term


class TestJsaMcLoss:
    def test_elbo_recovery_alpha_zero_over_seeds(self):
        rng = np.random.default_rng(11)
        net = random_net(rng)
        batch = random_batch(rng, net)
        kl_ref = kl_loss(net, batch, DivergenceConfig(seed=1)).divergence_term
        vals = np.array([
            jsa_loss_mc(net, batch, DivergenceConfig(alpha=0.0, lam=1.0, mc_samples=8, seed=s)).divergence_term
            for s in range(20)
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - kl_ref) < 3 * se

    def test_divergence_bounded(self):
        # the estimand is bounded by lam * jsa_bound(alpha) regardless of dimension
        rng = np.random.default_rng(12)
        for lam in (1.0, 100.0):
            for alpha in (0.3, 0.5, 0.8):
                net = random_net(rng)
                batch = (np.zeros((0, 2)), np.array([], dtype=int))
                vals = np.array([
                    jsa_loss_mc(
                        net, batch,
                        DivergenceConfig(alpha=alpha, lam=lam, mc_samples=64, seed=s),
                    ).divergence_term
                    for s in range(20)
                ])
                se = vals.std(ddof=1) / math.sqrt(len(vals))
                assert vals.mean() <= lam * jsa_bound(alpha) + 3 * se

    @pytest.mark.parametrize("mc_samples", [1, 8])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_saturates_at_bound_on_demo_net(self, alpha, mc_samples):
        # log q and log P of the 354-parameter demo net at init differ by ~1e3
        # nats, so the full-vector log-mixture sits on its bound and the
        # divergence passes no gradient; pins the estimator to the paper's form
        cfg = load_config(DEMO_CONFIG, {"seed": 1})
        net = cfg.build_network()
        assert net.n_parameters == 354
        empty = (np.zeros((0, 2)), np.array([], dtype=int))
        dcfg = DivergenceConfig(alpha=alpha, lam=1.0, mc_samples=mc_samples, seed=4)
        out = jsa_loss_mc(net, empty, dcfg)
        assert abs(out.divergence_term - jsa_bound(alpha)) <= 1e-12
        grads, _ = gradients(net, empty, "jsa_mc", dcfg)
        assert np.linalg.norm(grads_to_vec(grads)) == 0.0

    def test_lambda_zero(self):
        rng = np.random.default_rng(13)
        net = random_net(rng)
        batch = random_batch(rng, net)
        out = jsa_loss_mc(net, batch, DivergenceConfig(alpha=0.5, lam=0.0, mc_samples=2, seed=3))
        assert out.divergence_term == 0.0
        assert out.total == out.nll_term


class TestSharedSampling:
    def test_same_seed_same_epsilons_across_kinds(self):
        # the nll term of every kind agrees at equal (seed, step, mc_samples)
        rng = np.random.default_rng(14)
        net = random_net(rng)
        batch = random_batch(rng, net)
        cfgs = [
            DivergenceConfig(alpha=0.5, lam=1.0, mc_samples=4, seed=42),
        ]
        for cfg in cfgs:
            nll_vals = {
                "kl": kl_loss(net, batch, cfg).nll_term,
                "jsg_closed": jsg_loss_closed(net, batch, cfg).nll_term,
                "jsg_mc": jsg_loss_mc(net, batch, cfg).nll_term,
                "jsa_mc": jsa_loss_mc(net, batch, cfg).nll_term,
            }
            assert len({round(v, 14) for v in nll_vals.values()}) == 1

    @pytest.mark.parametrize("mc_samples", [1, 5])
    def test_noise_blocks_equal_per_layer_draws(self, mc_samples):
        # row s of the (S, P) blocks is sample s of the per-layer draw order:
        # all posterior noise first, then the prior draws, layer by layer,
        # weights before biases
        net = random_net(np.random.default_rng(19), sizes=(2, 4, 3, 2))
        cfg = DivergenceConfig(mc_samples=mc_samples, seed=23)
        bundle = draw_bundle(net, cfg, step=7, with_prior=True)
        rng = np.random.default_rng([23, 7])
        eps = [
            np.concatenate([rng.standard_normal(n) for l in net.layers
                            for n in (l.weights.dim, l.biases.dim)])
            for _ in range(mc_samples)
        ]
        prior = []
        for _ in range(mc_samples):
            row = []
            for l in net.layers:
                for n in (l.weights.dim, l.biases.dim):
                    row.append(net.prior.mu + net.prior.sigma * rng.standard_normal(n))
            prior.append(np.concatenate(row))
        np.testing.assert_array_equal(bundle.eps, np.array(eps))
        np.testing.assert_array_equal(bundle.prior, np.array(prior))
        assert draw_bundle(net, cfg, step=7).prior is None

    def test_step_changes_noise(self):
        rng = np.random.default_rng(15)
        net = random_net(rng)
        batch = random_batch(rng, net)
        cfg = DivergenceConfig(seed=5)
        a = kl_loss(net, batch, cfg, step=0).nll_term
        b = kl_loss(net, batch, cfg, step=1).nll_term
        assert a != b


class TestDominanceRealized:
    def test_grid_alpha_exists_above_threshold(self):
        # posterior variance below prior variance per dimension -> some alpha
        # on the grid makes the closed jsg divergence exceed the kl divergence
        rng = np.random.default_rng(16)
        batch = (np.zeros((0, 2)), np.array([], dtype=int))
        for _ in range(10):
            net = random_net(rng)
            # enforce the variance condition: all posterior sigmas below prior sigma
            for layer in net.layers:
                layer.weights.rho[:] = rng.uniform(-5, -2, layer.weights.dim)
                layer.biases.rho[:] = rng.uniform(-5, -2, layer.biases.dim)
            kl_div = kl_loss(net, batch, DivergenceConfig(seed=1)).divergence_term
            found = False
            for alpha in np.linspace(0.05, 1.0, 20):
                jsg_div = jsg_loss_closed(
                    net, batch, DivergenceConfig(alpha=float(alpha), lam=1.0, seed=1)
                ).divergence_term
                if jsg_div > kl_div:
                    found = True
                    break
            assert found
