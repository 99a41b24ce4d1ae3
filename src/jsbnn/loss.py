"""The three training objectives: KL/ELBO, closed-form JS-G, and Monte-Carlo JS-G/JS-A.

Every objective is (constraint weight) * divergence + expected negative
log-likelihood, with the likelihood expectation always estimated by sampled
forward passes. The whole objective is built once as an autodiff graph over
two leaves, the flat mu and rho vectors of all P parameters, so the reported
breakdown and the gradients used for training come from the same arithmetic.
The S Monte-Carlo samples form a leading axis: the forward pass, the
cross-entropy and every log density run once over (S, P) blocks.

Loss evaluation is read-only over the network; each call derives its own RNG
stream from (cfg.seed, step), which keeps evaluation deterministic, allows the
same noise to be replayed for gradient checks, and makes concurrent evaluation
across batches safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .divergence import DivergenceConfig, _stream_seeds
from .network import BayesianNetwork

__all__ = [
    "LossBreakdown",
    "LOSS_KINDS",
    "BREAKDOWN_CSV_HEADER",
    "nll_mc",
    "kl_loss",
    "jsg_loss_closed",
    "jsg_loss_mc",
    "jsa_loss_mc",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

LOSS_KINDS = ("kl", "jsg_closed", "jsg_mc", "jsa_mc")
# the kinds whose divergence is estimated from direct prior draws
MC_KINDS = ("jsg_mc", "jsa_mc")

BREAKDOWN_CSV_HEADER = "step,divergence_term,nll_term,total"


@dataclass(frozen=True)
class LossBreakdown:
    """Divergence and likelihood parts of one loss evaluation.

    total = minibatch_scale * divergence_term + nll_term; minibatch_scale in
    (0, 1] spreads one full-batch application of the divergence over the
    minibatches of an epoch.
    """

    divergence_term: float
    nll_term: float
    total: float
    minibatch_scale: float

    def csv_row(self, step: int) -> str:
        return f"{step},{self.divergence_term!r},{self.nll_term!r},{self.total!r}"


# ---------------------------------------------------------------------------
# noise bundles: every loss draws from a stream derived from (seed, step)
# ---------------------------------------------------------------------------


@dataclass
class NoiseBundle:
    """Frozen randomness for one loss evaluation, one row per Monte-Carlo sample.

    eps is the (S, P) reparameterization noise of the posterior samples and
    prior the (S, P) direct prior draws of the Monte-Carlo kinds (None for the
    others), both in the network's flat layout.
    """

    eps: np.ndarray
    prior: np.ndarray = None


def _draw(net: BayesianNetwork, rng: np.random.Generator, n_samples: int,
          with_prior: bool) -> NoiseBundle:
    # One (S, P) block reads the stream in the order of S successive per-layer
    # draws (weights, then biases, layer by layer), so row s is sample s.
    eps = rng.standard_normal((n_samples, net.n_parameters))
    prior = None
    if with_prior:
        prior = net.prior.mu + net.prior.sigma * rng.standard_normal((n_samples, net.n_parameters))
    return NoiseBundle(eps, prior)


def draw_bundle(net: BayesianNetwork, cfg: DivergenceConfig, step: int = 0,
                with_prior: bool = False) -> NoiseBundle:
    """Draw the randomness for one evaluation at a given step.

    The posterior-noise draws come first so that, for equal (seed, step), all
    loss kinds share identical epsilon samples.
    """
    rng = np.random.default_rng([int(cfg.seed), int(step)])
    return _draw(net, rng, cfg.mc_samples, with_prior)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


def _validate_batch(net: BayesianNetwork, batch):
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("batch features must be (n, d) with one label per row")
    if x.shape[0] and x.shape[1] != net.n_inputs:
        raise ValueError(f"batch has {x.shape[1]} features, network expects {net.n_inputs}")
    if y.size and (np.any(y < 0) or np.any(y >= net.n_outputs)):
        raise ValueError(f"labels must lie in [0, {net.n_outputs})")
    return x, y


def _logits_graph(net, w, x):
    """(S, n, k) logits of the batch x under the (S, P) sampled parameters w."""
    n_samples = w.shape[0]
    h = ad.Tensor(x)
    for layer, ((ws, w_shape), (bs, _)) in zip(net.layers, net.layout()):
        weights = ad.columns(w, ws).reshape((n_samples, *w_shape))
        biases = ad.columns(w, bs).reshape((n_samples, 1, layer.fan_out))
        h = h @ weights + biases
        if layer.activation == "relu":
            h = ad.relu(h)
    return h


def _cross_entropy(logits, y):
    # sum over samples and batch rows of -log softmax(logits)[y]
    return ad.logsumexp(logits, axis=-1).sum() - ad.gather_rows(logits, y).sum()


def _log_normal(x, mean, var):
    """log N(x; mean, diag(var)) of each (S, P) row: an (S,) tensor, or an array
    when every argument is a constant array."""
    log = ad.log if isinstance(var, ad.Tensor) else np.log
    return ((x - mean) ** 2 / var + log(var)).sum(axis=-1) * -0.5 - _HALF_LOG_2PI * x.shape[-1]


def _geometric_mean(mu, vq, mp, vp, alpha):
    """Mean and variance of the geometric-mean Gaussian q^alpha P^(1-alpha), per parameter."""
    vg = vq * vp / (vq * (1.0 - alpha) + alpha * vp)
    return vg * (mu * alpha / vq + (1.0 - alpha) * mp / vp), vg


def _divergence_graph(kind, alpha, mu, vq, mp, vp, w, prior):
    """The divergence of one loss kind (before lam) over the flat parameters.

    mu and vq are the posterior mean and variance (P,), mp and vp the prior's;
    w holds the (S, P) posterior samples and prior the (S, P) prior draws.
    """
    if kind == "kl":
        return (vq / vp + ad.log(vp / vq) + (mp - mu) ** 2 / vp - 1.0).sum() * 0.5
    mg, vg = _geometric_mean(mu, vq, mp, vp, alpha)
    if kind == "jsg_closed":
        terms = ((vq * (1.0 - alpha) + alpha * vp) / vg
                 + ad.log(vg) - ad.log(vq) * (1.0 - alpha) - alpha * np.log(vp)
                 + (mg - mu) ** 2 / vg * (1.0 - alpha) + (mg - mp) ** 2 / vg * alpha - 1.0)
        return terms.sum() * 0.5

    def log_mix(log_q, log_p):
        # skewed full-vector mixture alpha*q + (1-alpha)*P, in log space
        if alpha == 0.0:
            return log_p
        if alpha == 1.0:
            return log_q
        return ad.logaddexp(log_q + math.log(alpha), log_p + math.log(1.0 - alpha))

    # (1-a) E_q[log q - log r] + a E_P[log P - log r], with r = g' for jsg_mc
    # and the mixture for jsa_mc
    n = w.shape[0]
    div = ad.Tensor(0.0)
    if alpha < 1.0:
        log_q = _log_normal(w, mu, vq)
        log_r = _log_normal(w, mg, vg) if kind == "jsg_mc" else log_mix(log_q, _log_normal(w, mp, vp))
        div = div + (log_q - log_r).sum() * ((1.0 - alpha) / n)
    if alpha > 0.0:
        log_p = _log_normal(prior, mp, vp)
        log_r = _log_normal(prior, mg, vg) if kind == "jsg_mc" else log_mix(_log_normal(prior, mu, vq), log_p)
        div = div + (log_p - log_r).sum() * (alpha / n)
    return div


def build_loss_graph(net: BayesianNetwork, batch, kind: str, cfg: DivergenceConfig,
                     minibatch_scale: float, bundle: NoiseBundle):
    """Assemble the full loss graph; returns (total, divergence, nll, (mu, rho)).

    mu and rho are the two leaf tensors, whose values are the network's own
    flat mu and rho arrays, not copies. The divergence tensor already carries the constraint
    weight lam (fixed to 1 for the plain KL loss); total = minibatch_scale *
    divergence + nll. An empty batch yields nll = 0, i.e. a pure divergence
    objective.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if not 0.0 < minibatch_scale <= 1.0:
        raise ValueError(f"minibatch_scale must lie in (0, 1], got {minibatch_scale}")
    x, y = _validate_batch(net, batch)
    mu, rho = ad.Tensor(net.mu), ad.Tensor(net.rho)
    sigma = ad.softplus(rho)
    w = mu + sigma * bundle.eps

    nll = ad.Tensor(0.0)
    if x.shape[0]:
        nll = _cross_entropy(_logits_graph(net, w, x), y) * (1.0 / bundle.eps.shape[0])

    div = _divergence_graph(kind, cfg.alpha, mu, sigma * sigma, net.prior_mean, net.prior_var,
                            w, bundle.prior)
    if kind != "kl":
        div = div * cfg.lam
    total = div * minibatch_scale + nll
    return total, div, nll, (mu, rho)


def _evaluate(net, batch, kind, cfg, minibatch_scale, step) -> LossBreakdown:
    bundle = draw_bundle(net, cfg, step, with_prior=kind in MC_KINDS)
    total, div, nll, _ = build_loss_graph(net, batch, kind, cfg, minibatch_scale, bundle)
    return LossBreakdown(
        divergence_term=div.item(),
        nll_term=nll.item(),
        total=total.item(),
        minibatch_scale=minibatch_scale,
    )


# ---------------------------------------------------------------------------
# public objectives
# ---------------------------------------------------------------------------


def nll_mc(net: BayesianNetwork, batch, n_samples: int, seed) -> float:
    """Monte-Carlo expected negative log likelihood of a labeled batch.

    -(1/n_samples) * sum_i sum_(x,y) log softmax(forward(x, eps_i))[y].
    The noise comes from the stream [seed, 0], or [*seed, 0] for a seed sequence.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    x, y = _validate_batch(net, batch)
    if not x.shape[0]:
        raise ValueError("batch must be non-empty")
    stream, _ = _stream_seeds(seed, None)
    bundle = _draw(net, np.random.default_rng(stream), n_samples, with_prior=False)
    _, _, nll, _ = build_loss_graph(net, (x, y), "kl", DivergenceConfig(), 1.0, bundle)
    return nll.item()


def kl_loss(net, batch, cfg: DivergenceConfig, minibatch_scale: float = 1.0, step: int = 0) -> LossBreakdown:
    """Classic variational objective: exact KL(q || prior) plus sampled NLL (lam fixed to 1)."""
    return _evaluate(net, batch, "kl", cfg, minibatch_scale, step)


def jsg_loss_closed(net, batch, cfg: DivergenceConfig, minibatch_scale: float = 1.0, step: int = 0) -> LossBreakdown:
    """Geometric JS objective with the divergence evaluated in closed form.

    divergence_term = lam * sum over parameter tensors of the closed-form JS-G;
    reproduces `kl_loss` exactly at alpha=0, lam=1.
    """
    return _evaluate(net, batch, "jsg_closed", cfg, minibatch_scale, step)


def jsg_loss_mc(net, batch, cfg: DivergenceConfig, minibatch_scale: float = 1.0, step: int = 0) -> LossBreakdown:
    """Geometric JS objective with the divergence estimated by Monte Carlo.

    Samples cfg.mc_samples draws from the posterior (shared with the NLL term)
    and the prior, scoring both against the geometric-mean Gaussian, so the
    estimate converges to the closed-form divergence of `jsg_loss_closed`.
    """
    return _evaluate(net, batch, "jsg_mc", cfg, minibatch_scale, step)


def jsa_loss_mc(net, batch, cfg: DivergenceConfig, minibatch_scale: float = 1.0, step: int = 0) -> LossBreakdown:
    """Bounded generalized JS objective, estimated by Monte Carlo.

    divergence_term = lam * [(1-a) E_q[log q - log m] + a E_P[log P - log m]]
    with the full-parameter-vector mixture m = a*q + (1-a)*P evaluated as a
    stable log-sum-exp; the estimand is bounded by lam * jsa_bound(a).
    """
    return _evaluate(net, batch, "jsa_mc", cfg, minibatch_scale, step)
