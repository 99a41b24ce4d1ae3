"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np
import pytest

from jsbnn.data import Dataset, NoiseSpec, add_noise, minmax_normalize, split, synth_clusters
from jsbnn.divergence import (
    DivergenceConfig,
    alpha_threshold,
    fit_quadratic_coefficient,
    jsa_bound,
    jsg_gaussian_closed,
    jsg_mc,
    kl_gaussian,
    variance_condition_holds,
)
from jsbnn.gaussian import DiagonalGaussian
from jsbnn.loss import jsa_loss_mc, jsg_loss_closed, jsg_loss_mc, kl_loss
from jsbnn.metrics import accuracy, confusion, roc_auc
from jsbnn.network import BayesianNetwork, predictive
from jsbnn.oracles import finite_diff, quadrature_jsa
from jsbnn.train import OptimizerState, gradients, restore_params, train


def report(criterion: int, detail: str):
    print(f"\n[criterion {criterion}] PASS: {detail}")


def univariate(mu, var):
    return DiagonalGaussian([mu], [math.sqrt(var)])


def random_pair(rng):
    mq, mp = rng.uniform(-3, 3, 2)
    vq, vp = np.exp(rng.uniform(np.log(0.0025), np.log(9.0), 2))
    return univariate(mq, vq), univariate(mp, vp)


def random_small_net(rng):
    prior = DiagonalGaussian([0.0], [math.sqrt(0.1)])
    net = BayesianNetwork.initialize((2, 3, 2), prior, int(rng.integers(2**32)))
    for layer in net.layers:
        for params in (layer.weights, layer.biases):
            params.mu[:] = rng.normal(0, 0.5, params.dim)
            params.rho[:] = rng.uniform(-4, 0, params.dim)
    return net


def test_criterion_1_elbo_recovery():
    """jsg_closed(alpha=0, lam=1) == kl exactly; MC losses match within 3 SE."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        net = random_small_net(rng)
        batch = (rng.normal(size=(6, 2)), rng.integers(0, 2, 6))
        cfg = DivergenceConfig(alpha=0.0, lam=1.0, mc_samples=2, seed=int(rng.integers(2**32)))
        a = kl_loss(net, batch, cfg)
        b = jsg_loss_closed(net, batch, cfg)
        rel = abs(a.total - b.total) / max(abs(a.total), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-12
    net = random_small_net(rng)
    batch = (rng.normal(size=(6, 2)), rng.integers(0, 2, 6))
    kl_div = kl_loss(net, batch, DivergenceConfig(seed=1)).divergence_term
    for mc_loss in (jsg_loss_mc, jsa_loss_mc):
        vals = np.array([
            mc_loss(net, batch, DivergenceConfig(alpha=0.0, lam=1.0, mc_samples=8, seed=s)).divergence_term
            for s in range(20)
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - kl_div) < 3 * se
    report(1, f"100 closed-form pairs exact (worst rel {worst:.2e}); both MC losses within 3*SE")


def test_criterion_2_jsg_closed_reference_values():
    """Closed form equals 3.125 on the unit-variance pair; endpoints recover both KLs."""
    q, p = univariate(5.0, 1.0), univariate(0.0, 1.0)
    val = jsg_gaussian_closed(q, p, 0.5)
    assert val == pytest.approx(3.125, abs=1e-12)
    rng = np.random.default_rng(1002)
    for _ in range(200):
        qq, pp = random_pair(rng)
        for alpha, ref in ((0.0, kl_gaussian(qq, pp)), (1.0, kl_gaussian(pp, qq))):
            got = jsg_gaussian_closed(qq, pp, alpha)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)
    report(2, f"jsg(N(5,1),N(0,1),0.5) = {val!r}; 200 random endpoint recoveries at 1e-12")


def test_criterion_3_mc_convergence():
    """Mean relative MC error <= 5% at n=600 and monotone decreasing over the grid."""
    q, p = univariate(5.0, 1.0), univariate(0.0, 1.0)
    closed = jsg_gaussian_closed(q, p, 0.5)
    grid = [10, 50, 100, 300, 600, 1000, 10_000]
    mean_err = {}
    for n in grid:
        errs = [abs(jsg_mc(q, p, 0.5, n, [0, s]) - closed) / closed for s in range(20)]
        mean_err[n] = float(np.mean(errs))
    assert mean_err[600] <= 0.05
    for a, b in zip(grid, grid[1:]):
        assert mean_err[b] < mean_err[a]
    report(3, "errors " + " ".join(f"{n}:{mean_err[n]:.4f}" for n in grid))


def test_criterion_4_jsa_boundedness():
    """Quadrature JS-A <= -(1-a)log(a) - a log(1-a) + 1e-9: zero violations."""
    rng = np.random.default_rng(1004)
    alphas = np.arange(0.1, 0.95, 0.1)
    checked = 0
    for _ in range(1000):
        q, p = random_pair(rng)
        vals = quadrature_jsa(q.mu[0], q.sigma[0], p.mu[0], p.sigma[0], alphas)
        for alpha, val in zip(alphas.tolist(), vals.tolist()):
            assert val <= jsa_bound(alpha) + 1e-9
            checked += 1
    report(4, f"{checked} quadrature evaluations, zero bound violations")


def test_criterion_5_dominance_threshold():
    """Threshold >= 0; threshold < 1 iff prior variance dominates; sign identity."""
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        q, p = random_pair(rng)
        thr = alpha_threshold(q, p)
        assert thr >= 0.0
        assert (thr < 1.0) == variance_condition_holds(q, p)
        gamma = p.var[0] / q.var[0]
        dmu2 = (p.mu[0] - q.mu[0]) ** 2
        expr = gamma - 1 / gamma - 2 * math.log(gamma) + dmu2 / q.var[0] * (1 - 1 / gamma)
        assert (expr > 0) == (kl_gaussian(p, q) > kl_gaussian(q, p))
    report(5, "1000 pairs: threshold sign, variance equivalence, and KL-ordering identity")


def test_criterion_6_regularization_growth():
    """Quadratic growth 11.477 vs 5.0 (1%), and jsg >= kl pointwise for |mu| >= 0.2."""
    p = univariate(0.0, 0.1)
    mus = np.linspace(-1.0, 1.0, 81)
    jsg_vals = np.array([jsg_gaussian_closed(univariate(m, 0.01), p, 0.5) for m in mus])
    kl_vals = np.array([kl_gaussian(univariate(m, 0.01), p) for m in mus])
    c_jsg = fit_quadratic_coefficient(mus, jsg_vals)
    c_kl = fit_quadratic_coefficient(mus, kl_vals)
    assert c_jsg == pytest.approx(11.477272727272727, rel=0.01)
    assert c_kl == pytest.approx(5.0, rel=0.01)
    assert c_jsg > c_kl
    outer = np.abs(mus) >= 0.2
    assert np.all(jsg_vals[outer] >= kl_vals[outer])
    report(6, f"fitted coefficients jsg {c_jsg:.4f} vs kl {c_kl:.4f}; pointwise dominance holds")


def test_criterion_7_gradient_verification():
    """Reverse-mode gradients match fixed-noise central differences below 1e-6."""
    rng = np.random.default_rng(1007)
    prior = DiagonalGaussian([0.0], [math.sqrt(0.1)])
    net = BayesianNetwork.initialize((2, 3, 2), prior, 77)
    for layer in net.layers:
        for params in (layer.weights, layer.biases):
            params.mu[:] = rng.normal(0, 0.5, params.dim)
            params.rho[:] = rng.uniform(-3, -1, params.dim)
    batch = (rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
    cfg = DivergenceConfig(alpha=0.35, lam=1.5, mc_samples=3, seed=2024)

    from test_train import LOSS_FNS, grads_to_vec, net_to_vec, vec_to_net

    worst = {}
    for kind, loss_fn in LOSS_FNS.items():
        grads, _ = gradients(net, batch, kind, cfg, minibatch_scale=0.5, step=1)
        analytic = grads_to_vec(grads)

        def f(vec, _fn=loss_fn):
            return _fn(vec_to_net(net, vec), batch, cfg, minibatch_scale=0.5, step=1).total

        numeric = finite_diff(f, net_to_vec(net), h=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst[kind] = float(rel.max())
        assert worst[kind] < 1e-6
    report(7, "max relative errors " + " ".join(f"{k}:{v:.2e}" for k, v in worst.items()))


def _noise_experiment(kind, noise_sigma, seed, alpha, lam, lr, epochs=40):
    ds = synth_clusters(250, [[0.25, 0.25], [0.75, 0.75]], spread=0.1, bias_ratio=2.52, seed=seed)
    ds = Dataset(minmax_normalize(ds.features), ds.labels)
    ds = split(ds, [0.6, 0.2, 0.2], seed=seed)
    ds = add_noise(ds, NoiseSpec(sigma=noise_sigma, seed=seed))
    net = BayesianNetwork.initialize((2, 16, 16, 2), DiagonalGaussian([0.0], [math.sqrt(0.1)]), seed)
    cfg = DivergenceConfig(alpha=alpha, lam=lam, mc_samples=1, seed=seed)
    result = train(net, ds, kind, cfg, OptimizerState(lr), epochs=epochs, batch_size=32)
    assert not result.aborted
    restore_params(net, result.best_params)
    x_te, y_te = ds.subset("test")
    probs = predictive(net, x_te, 100, [seed, 99])
    return accuracy(probs, y_te), confusion(probs, y_te, 2).false_negatives()


def test_criterion_8_noise_bias_generalization():
    """Desk-scale analogue: JS losses match or beat KL under heavy noise and bias.

    Median-over-5-seeds test accuracy of the JS-G and JS-A losses must be >=
    the KL loss at the two highest noise levels, and their median
    false-negative counts on the biased (2.52:1) set must be <= KL's there.
    The full table is printed for the qualitative record.
    """
    hyper = {
        "kl": dict(alpha=0.0, lam=1.0, lr=0.05),
        "jsg_closed": dict(alpha=0.5, lam=1.0, lr=0.05),
        "jsa_mc": dict(alpha=0.5, lam=100.0, lr=0.05),
    }
    noise_levels = (0.3, 0.6, 0.9)
    seeds = range(100, 105)
    med_acc, med_fn = {}, {}
    lines = []
    for noise in noise_levels:
        for kind, hp in hyper.items():
            results = [_noise_experiment(kind, noise, s, **hp) for s in seeds]
            accs = [r[0] for r in results]
            fns = [r[1] for r in results]
            med_acc[noise, kind] = float(np.median(accs))
            med_fn[noise, kind] = float(np.median(fns))
            lines.append(
                f"  noise={noise} {kind:10s} median_acc={med_acc[noise, kind]:.4f} "
                f"median_fn={med_fn[noise, kind]:.0f} accs={[f'{a:.3f}' for a in accs]} fns={fns}"
            )
    print("\n[criterion 8] desk-scale noise/bias table:")
    for line in lines:
        print(line)
    for noise in noise_levels[-2:]:
        for kind in ("jsg_closed", "jsa_mc"):
            assert med_acc[noise, kind] >= med_acc[noise, "kl"]
            assert med_fn[noise, kind] <= med_fn[noise, "kl"]
    report(8, "median accuracy and false-negative orderings hold at the two highest noise levels")


def test_criterion_9_auc_concordance():
    """Trapezoidal AUC equals brute-force pairwise concordance to 1e-12."""
    rng = np.random.default_rng(1009)
    for trial in range(500):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = rng.uniform(0, 1, n)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # exercise tied scores
        curve = roc_auc(scores, labels)
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        concordance = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.shape[0] * neg.shape[1])
        assert curve.auc == pytest.approx(concordance, abs=1e-12)
    report(9, "500 random fixtures (with ties) agree to 1e-12")
