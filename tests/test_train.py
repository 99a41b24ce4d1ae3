"""Tests for gradients, SGD training, scheduling, and random search."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from jsbnn import autodiff as ad
from jsbnn.data import Dataset, split, synth_clusters
from jsbnn.divergence import DivergenceConfig
from jsbnn.errors import AllTrialsDivergedError, NumericError
from jsbnn.gaussian import DiagonalGaussian, VariationalParams
from jsbnn.loss import LOSS_KINDS, kl_loss, jsg_loss_closed, jsg_loss_mc, jsa_loss_mc
from jsbnn.network import BayesianNetwork
from jsbnn.oracles import finite_diff
from jsbnn.train import (
    OptimizerState,
    SearchSpace,
    apply_schedule,
    gradients,
    random_search,
    restore_params,
    train,
)

LOSS_FNS = {
    "kl": kl_loss,
    "jsg_closed": jsg_loss_closed,
    "jsg_mc": jsg_loss_mc,
    "jsa_mc": jsa_loss_mc,
}


def fixture_net(seed=21):
    prior = DiagonalGaussian([0.0], [math.sqrt(0.1)])
    net = BayesianNetwork.initialize((2, 3, 2), prior, seed)
    rng = np.random.default_rng(seed + 1)
    for layer in net.layers:
        for params in (layer.weights, layer.biases):
            params.mu[:] = rng.normal(0, 0.5, params.dim)
            params.rho[:] = rng.uniform(-3, -1, params.dim)
    return net


def fixture_batch(seed=22, n=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)), rng.integers(0, 2, n)


def net_to_vec(net):
    parts = []
    for l in net.layers:
        parts += [l.weights.mu, l.weights.rho, l.biases.mu, l.biases.rho]
    return np.concatenate(parts)


def vec_to_net(template, vec):
    net = template.copy()
    pos = 0
    for l in net.layers:
        for params in (l.weights, l.biases):
            params.mu[:] = vec[pos:pos + params.dim]
            params.rho[:] = vec[pos + params.dim:pos + 2 * params.dim]
            pos += 2 * params.dim
    return net


def grads_to_vec(g):
    parts = []
    for i in range(len(g.w_mu)):
        parts += [g.w_mu[i], g.w_rho[i], g.b_mu[i], g.b_rho[i]]
    return np.concatenate(parts)


def separable_dataset(seed=30):
    ds = synth_clusters(80, [[0.0, 0.0], [1.0, 1.0]], spread=0.08, bias_ratio=1.0, seed=seed)
    return split(ds, [0.6, 0.2, 0.2], seed=seed)


def logistic_baseline_accuracy(ds):
    """Deterministic full-batch logistic regression, used as a separability oracle."""
    x_tr, y_tr = ds.subset("train")
    x_va, y_va = ds.subset("validation")
    w = np.zeros(3)
    xb = np.hstack([x_tr, np.ones((x_tr.shape[0], 1))])
    for _ in range(2000):
        p = 1.0 / (1.0 + np.exp(-(xb @ w)))
        w -= 0.5 * xb.T @ (p - y_tr) / xb.shape[0]
    xv = np.hstack([x_va, np.ones((x_va.shape[0], 1))])
    pred = (xv @ w > 0).astype(int)
    return float(np.mean(pred == y_va))


class TestGradients:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_central_finite_differences(self, kind):
        net = fixture_net()
        batch = fixture_batch()
        cfg = DivergenceConfig(alpha=0.35, lam=1.7, mc_samples=3, seed=99)
        grads, _ = gradients(net, batch, kind, cfg, minibatch_scale=0.5, step=4)
        analytic = grads_to_vec(grads)

        loss_fn = LOSS_FNS[kind]

        def f(vec):
            return loss_fn(vec_to_net(net, vec), batch, cfg, minibatch_scale=0.5, step=4).total

        numeric = finite_diff(f, net_to_vec(net), h=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-6

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_graph_size_does_not_grow_with_samples(self, kind, monkeypatch):
        # the Monte-Carlo samples are one tensor axis, not one subgraph each
        created = []
        original = ad.Tensor.__init__

        def counting(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting)
        net, batch = fixture_net(), fixture_batch()
        sizes = []
        for s in (1, 8):
            created.clear()
            gradients(net, batch, kind, DivergenceConfig(alpha=0.5, mc_samples=s, seed=1))
            sizes.append(len(created))
        assert sizes[0] == sizes[1] < 150

    def test_divergence_only_kl_mean_gradient(self):
        # data-free objective: dKL/dmu = (mu_q - mu_p) / vp = 5 for the unit pair
        layer_net = BayesianNetwork(
            layers=[
                __import__("jsbnn.network", fromlist=["VariationalDenseLayer"]).VariationalDenseLayer(
                    fan_in=1, fan_out=1,
                    weights=VariationalParams([5.0], [math.log(math.expm1(1.0))]),
                    biases=VariationalParams([0.0], [math.log(math.expm1(1.0))]),
                    activation="softmax",
                )
            ],
            prior=DiagonalGaussian([0.0], [1.0]),
        )
        empty = (np.zeros((0, 1)), np.array([], dtype=int))
        grads, _ = gradients(layer_net, empty, "kl", DivergenceConfig(seed=0))
        assert grads.w_mu[0][0] == pytest.approx(5.0, rel=1e-12)

    def test_stationary_when_lambda_zero_and_collapsed(self):
        # zero-mean, collapsed-noise net at a symmetric batch: nll gradient ~ 0 on mu
        net = BayesianNetwork.initialize((2, 2), DiagonalGaussian([0.0], [1.0]), 0)
        for l in net.layers:
            for params in (l.weights, l.biases):
                params.mu[:] = 0.0
                params.rho[:] = -40.0
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        y = np.array([0, 1])  # symmetric labels at identical inputs
        cfg = DivergenceConfig(alpha=0.5, lam=0.0, seed=1)
        grads, _ = gradients(net, (x, y), "jsg_closed", cfg)
        assert abs(grads.w_mu[0]).max() < 1e-12

    def test_nonfinite_gradient_raises_named_error(self):
        net = fixture_net()
        bad = (np.array([[np.inf, 0.0]]), np.array([0]))
        with np.errstate(invalid="ignore"), pytest.raises((NumericError, ValueError)):
            gradients(net, bad, "kl", DivergenceConfig(seed=1))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_single_small_step_descends(self, kind):
        net = fixture_net(seed=33)
        batch = fixture_batch(seed=34)
        cfg = DivergenceConfig(alpha=0.4, lam=1.0, mc_samples=2, seed=5)
        loss_fn = LOSS_FNS[kind]
        before = loss_fn(net, batch, cfg, step=0).total
        grads, _ = gradients(net, batch, kind, cfg, step=0)
        vec = net_to_vec(net) - 1e-4 * grads_to_vec(grads)
        after = loss_fn(vec_to_net(net, vec), batch, cfg, step=0).total
        assert after <= before


class TestSchedule:
    def test_epoch_match_scales(self):
        opt = OptimizerState(learning_rate=1e-4, schedule=((4, 0.1),))
        assert apply_schedule(opt, 4).learning_rate == pytest.approx(1e-5, rel=1e-12)

    def test_no_entry_keeps_rate(self):
        opt = OptimizerState(learning_rate=1e-4, schedule=((4, 0.1),))
        assert apply_schedule(opt, 3).learning_rate == 1e-4

    def test_two_entries_same_epoch_compose(self):
        opt = OptimizerState(learning_rate=1.0, schedule=((2, 0.5), (2, 0.5)))
        assert apply_schedule(opt, 2).learning_rate == pytest.approx(0.25, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=-1.0)
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=1.0, schedule=((1, 0.0),))


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        ds = separable_dataset()
        net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 1)
        before = net_to_vec(net).copy()
        result = train(net, ds, "kl", DivergenceConfig(seed=2), OptimizerState(0.0), epochs=3)
        assert not result.aborted
        np.testing.assert_array_equal(net_to_vec(net), before)
        assert len(result.trace) == 3

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_separates_easy_clusters(self, kind):
        ds = separable_dataset()
        assert logistic_baseline_accuracy(ds) > 0.95  # the oracle: the set is separable
        net = BayesianNetwork.initialize((2, 8, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 7)
        cfg = DivergenceConfig(alpha=0.5, lam=1.0, mc_samples=1, seed=11)
        # the sampled prior-expectation term of jsg_mc has large gradients while
        # the posterior is narrow, so it needs a gentler step size
        lr = 0.01 if kind == "jsg_mc" else 0.1
        result = train(net, ds, kind, cfg, OptimizerState(lr), epochs=50, batch_size=16)
        assert not result.aborted
        assert result.best_val_acc > 0.95

    def test_seeded_rerun_bit_identical(self):
        ds = separable_dataset()
        traces = []
        for _ in range(2):
            net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 3)
            result = train(net, ds, "jsg_closed", DivergenceConfig(alpha=0.3, seed=5),
                           OptimizerState(0.05), epochs=4, batch_size=16)
            traces.append((tuple(result.trace), net_to_vec(net).tobytes()))
        assert traces[0] == traces[1]

    def test_early_stopping_stops_after_patience(self):
        ds = separable_dataset()
        net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 3)
        result = train(net, ds, "kl", DivergenceConfig(seed=5), OptimizerState(0.1),
                       epochs=200, batch_size=16, early_stop_patience=3)
        assert len(result.trace) < 200
        last_epoch = result.trace[-1][0]
        assert last_epoch - result.best_epoch >= 3 or result.best_val_acc == 1.0

    def test_abort_on_divergence_restores_last_good(self):
        ds = separable_dataset()
        net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 3)
        result = train(net, ds, "kl", DivergenceConfig(seed=5), OptimizerState(1e18),
                       epochs=10, batch_size=16)
        assert result.aborted
        assert result.abort_reason
        assert np.all(np.isfinite(net_to_vec(net)))

    def test_overflowing_update_aborts_with_finite_parameters(self):
        # at lr 1e308 the first update itself overflows: a numeric abort, not a crash
        ds = separable_dataset()
        net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 3)
        before = net_to_vec(net).copy()
        result = train(net, ds, "kl", DivergenceConfig(seed=5), OptimizerState(1e308),
                       epochs=2, batch_size=16)
        assert result.aborted
        assert "non-finite parameters" in result.abort_reason
        np.testing.assert_array_equal(net_to_vec(net), before)

    def test_momentum_two_steps_match_hand_computed_update(self):
        # four identical training rows in batches of two: two steps whose
        # batches do not depend on the shuffle, then v2 = 0.9 * g1 + g2
        x = np.tile([[0.3, 0.7]], (4, 1))
        ds = Dataset(x, np.array([1, 1, 1, 1]), np.array(["train"] * 4, dtype=object))
        net = fixture_net(seed=40)
        start = net.copy()
        cfg = DivergenceConfig(alpha=0.5, lam=1.0, mc_samples=2, seed=6)
        lr, beta = 0.05, 0.9
        train(net, ds, "jsg_closed", cfg, OptimizerState(lr, momentum=beta), epochs=1, batch_size=2)

        batch = (x[:2], np.array([1, 1]))
        g1 = grads_to_vec(gradients(start, batch, "jsg_closed", cfg, 0.5, step=0)[0])
        p1 = net_to_vec(start) - lr * g1
        g2 = grads_to_vec(gradients(vec_to_net(start, p1), batch, "jsg_closed", cfg, 0.5, step=1)[0])
        p2 = p1 - lr * (beta * g1 + g2)
        np.testing.assert_array_equal(net_to_vec(net), p2)

    def test_best_params_snapshot_restores(self):
        ds = separable_dataset()
        net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 3)
        result = train(net, ds, "kl", DivergenceConfig(seed=5), OptimizerState(0.1),
                       epochs=10, batch_size=16)
        restore_params(net, result.best_params)
        assert np.all(np.isfinite(net_to_vec(net)))

    def test_trace_csv_rows(self):
        ds = separable_dataset()
        net = BayesianNetwork.initialize((2, 4, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), 3)
        result = train(net, ds, "kl", DivergenceConfig(seed=5), OptimizerState(0.05), epochs=2)
        rows = result.trace_csv_rows()
        assert len(rows) == 2
        assert rows[0].startswith("1,")
        assert len(rows[0].split(",")) == 7


class TestParameterStore:
    """The network's flat mu and rho are the only copy of its parameters."""

    def test_layers_are_frozen_views_of_the_store(self):
        net = fixture_net()
        net.layers[1].biases.rho[0] = 0.25
        assert net.rho[net.layout()[1][1][0]][0] == 0.25
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.layers[0].weights = VariationalParams(np.zeros(6), np.zeros(6))

    def test_flat_params_share_no_memory_with_the_network(self):
        net = fixture_net()
        for snapshot in net.flat_params():
            for store in (net.mu, net.rho):
                assert not np.shares_memory(snapshot, store)

    def test_set_flat_params_copies_its_arguments(self):
        net = fixture_net()
        mu, rho = np.arange(net.n_parameters, dtype=float), np.full(net.n_parameters, -2.0)
        net.set_flat_params(mu, rho)
        mu[:] = 99.0
        rho[:] = 99.0
        np.testing.assert_array_equal(net.mu, np.arange(net.n_parameters))
        np.testing.assert_array_equal(net.layers[0].weights.rho, -2.0)
        with pytest.raises(ValueError):
            net.set_flat_params(mu[:-1], rho[:-1])

    def test_best_params_stay_those_of_the_best_epoch(self, monkeypatch):
        # validation accuracy 1 / epoch makes epoch 1 the best; two more epochs follow
        snapshots = {}

        def accuracy_by_epoch(net, x, y, n_samples, seed):
            snapshots[seed[2]] = net.flat_params()
            return 1.0 / seed[2]

        monkeypatch.setattr(sys.modules["jsbnn.train"], "_epoch_accuracy", accuracy_by_epoch)
        net = fixture_net()
        result = train(net, separable_dataset(), "kl", DivergenceConfig(seed=5),
                       OptimizerState(0.1), epochs=3, batch_size=16)
        assert result.best_epoch == 1
        for best, at_epoch_1, now in zip(result.best_params, snapshots[1], (net.mu, net.rho)):
            np.testing.assert_array_equal(best, at_epoch_1)
            assert not np.array_equal(best, now)


class TestRandomSearch:
    def test_single_trial_returns_it(self):
        space = SearchSpace(alpha_range=(0.2, 0.8), lambda_choices=(1.0,), lr_choices=(0.1,), trials=1)
        best, trials = random_search(space, lambda a, l, lr: 0.9, seed=1)
        assert len(trials) == 1
        assert best["val_acc"] == 0.9

    def test_diverging_trial_is_skipped(self):
        space = SearchSpace(lambda_choices=(1.0,), lr_choices=(0.1, 1e3), trials=8)

        def experiment(alpha, lam, lr):
            if lr > 1.0:
                raise NumericError("diverged")
            return 0.8

        best, trials = random_search(space, experiment, seed=2)
        assert best["lr"] == 0.1
        assert any(t["diverged"] for t in trials)

    def test_all_diverged_raises(self):
        space = SearchSpace(trials=3)

        def experiment(alpha, lam, lr):
            raise NumericError("boom")

        with pytest.raises(AllTrialsDivergedError):
            random_search(space, experiment, seed=3)

    def test_deterministic_selection(self):
        space = SearchSpace(alpha_range=(0.0, 1.0), lambda_choices=(1.0, 10.0),
                            lr_choices=(0.1, 0.2), trials=6)
        calls = []

        def experiment(alpha, lam, lr):
            calls.append((alpha, lam, lr))
            return round(alpha, 1)

        best_a, _ = random_search(space, experiment, seed=4)
        best_b, _ = random_search(space, experiment, seed=4)
        assert best_a == best_b

    def test_tie_break_lower_lambda_then_alpha(self):
        space = SearchSpace(alpha_range=(0.0, 1.0), lambda_choices=(1.0, 10.0),
                            lr_choices=(0.1,), trials=10)
        best, trials = random_search(space, lambda a, l, lr: 0.5, seed=5)
        alive = [t for t in trials if not t["diverged"]]
        expected = min(alive, key=lambda r: (r["lambda"], r["alpha"], r["trial"]))
        assert best == expected
