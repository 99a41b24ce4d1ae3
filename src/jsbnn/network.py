"""Variational fully-connected networks: sampled forward pass and MC predictive.

A network owns the only copy of its parameters: two flat vectors `mu` and
`rho` of all P parameters, ordered layer by layer, weights (row-major
(fan_in, fan_out)) before biases. Each layer's `weights` and `biases` are
views into them. Every forward pass consumes explicit noise, so evaluation is
deterministic given the noise and safe to run concurrently. Parameters are
only mutated by the training loop, which is single-writer.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gaussian import DiagonalGaussian, VariationalParams, softplus_sigma

__all__ = [
    "VariationalDenseLayer",
    "BayesianNetwork",
    "forward",
    "predictive",
    "save_checkpoint",
    "load_checkpoint",
]

_ACTIVATIONS = ("relu", "identity", "softmax")


@dataclass(frozen=True)
class VariationalDenseLayer:
    """One dense layer with factorized-Gaussian weights and biases.

    Weight parameters are stored flattened with fan_in * fan_out entries in
    row-major (fan_in, fan_out) order; biases have fan_out entries. In a
    network both are views into the network's flat store.
    """

    fan_in: int
    fan_out: int
    weights: VariationalParams
    biases: VariationalParams
    activation: str = "relu"

    def __post_init__(self):
        if self.weights.dim != self.fan_in * self.fan_out:
            raise ValueError(
                f"weight parameters have length {self.weights.dim}, "
                f"expected {self.fan_in * self.fan_out}"
            )
        if self.biases.dim != self.fan_out:
            raise ValueError(
                f"bias parameters have length {self.biases.dim}, expected {self.fan_out}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def _view(mu: np.ndarray, rho: np.ndarray) -> VariationalParams:
    # store slices; the layers' own VariationalParams validated these values
    view = object.__new__(VariationalParams)
    object.__setattr__(view, "mu", mu)
    object.__setattr__(view, "rho", rho)
    return view


@dataclass
class BayesianNetwork:
    """Ordered variational dense layers plus a shared prior over every parameter.

    The network copies the layers' parameters into its flat store `mu`, `rho`
    and rebinds each layer to views of it. The prior has 1 dimension (shared by
    every parameter) or P (one per parameter, in layout order); `prior_mean`
    and `prior_var` hold it as flat vectors.
    """

    layers: list = field(default_factory=list)
    prior: DiagonalGaussian = None

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.fan_out != b.fan_in:
                raise ValueError(
                    f"layer dimensions do not compose: {a.fan_out} -> {b.fan_in}"
                )
        if self.prior is None:
            raise ValueError("network needs a prior")
        tensors = [t for l in self.layers for t in (l.weights, l.biases)]
        self.mu = np.concatenate([t.mu for t in tensors])
        self.rho = np.concatenate([t.rho for t in tensors])
        n = self.mu.size
        if self.prior.dim not in (1, n):
            raise ValueError(f"prior has {self.prior.dim} dimensions, expected 1 or {n}")
        self.prior_mean = np.broadcast_to(self.prior.mu, n).copy()
        self.prior_var = np.broadcast_to(self.prior.sigma, n) ** 2
        self._layout, pos = [], 0
        for l in self.layers:
            w = slice(pos, pos + l.weights.dim)
            b = slice(w.stop, w.stop + l.biases.dim)
            pos = b.stop
            self._layout.append(((w, (l.fan_in, l.fan_out)), (b, (l.fan_out,))))
        self.layers = [
            VariationalDenseLayer(l.fan_in, l.fan_out, _view(self.mu[w], self.rho[w]),
                                  _view(self.mu[b], self.rho[b]), l.activation)
            for l, ((w, _), (b, _)) in zip(self.layers, self._layout)
        ]

    @property
    def n_inputs(self) -> int:
        return self.layers[0].fan_in

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].fan_out

    @property
    def n_parameters(self) -> int:
        return self.mu.size

    def layout(self) -> list:
        """Per layer, the ((slice, shape) of the weights, (slice, shape) of the biases)
        in the flat parameter vector."""
        return self._layout

    def flat_params(self):
        """Copies of the flat (mu, rho) vectors of all P parameters."""
        return self.mu.copy(), self.rho.copy()

    def set_flat_params(self, mu: np.ndarray, rho: np.ndarray):
        """Copy flat (mu, rho) vectors into the store; ValueError unless finite and of length P."""
        if np.shape(mu) != self.mu.shape or np.shape(rho) != self.rho.shape:
            raise ValueError(f"need two vectors of length {self.mu.size}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(rho))):
            raise ValueError("mu and rho must be finite")
        self.mu[:] = mu
        self.rho[:] = rho

    def copy(self) -> "BayesianNetwork":
        return BayesianNetwork(layers=self.layers, prior=self.prior)

    @classmethod
    def initialize(cls, sizes, prior: DiagonalGaussian, seed: int,
                   hidden_activation: str = "relu", init_mu_std: float = 0.05,
                   init_rho: float = -4.0) -> "BayesianNetwork":
        """Build a network with mu ~ N(0, init_mu_std^2) and constant rho.

        The default init_rho = -4 puts the initial posterior scale
        (softplus(-4) ~ 0.018) well below the usual prior scale, so the prior
        variance strictly dominates the posterior variance at initialization.
        """
        if len(sizes) < 2:
            raise ValueError("sizes must list at least input and output widths")
        rng = np.random.default_rng([int(seed), 0])
        layers = []
        for i, (fin, fout) in enumerate(zip(sizes, sizes[1:])):
            act = hidden_activation if i < len(sizes) - 2 else "softmax"
            layers.append(
                VariationalDenseLayer(
                    fan_in=fin,
                    fan_out=fout,
                    weights=VariationalParams(
                        rng.normal(0.0, init_mu_std, fin * fout),
                        np.full(fin * fout, float(init_rho)),
                    ),
                    biases=VariationalParams(
                        rng.normal(0.0, init_mu_std, fout),
                        np.full(fout, float(init_rho)),
                    ),
                    activation=act,
                )
            )
        return cls(layers=layers, prior=prior)


def _as_batch(net: BayesianNetwork, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x.reshape(1, -1) if single else x
    if h.shape[1] != net.n_inputs:
        raise ValueError(f"input has {h.shape[1]} features, expected {net.n_inputs}")
    return h, single


def _logits(h: np.ndarray, w: np.ndarray, layers, layout) -> np.ndarray:
    """(S, n, k) logits of the (n, d) inputs h under the (S, P) parameter samples w."""
    for layer, ((ws, w_shape), (bs, _)) in zip(layers, layout):
        h = h @ w[:, ws].reshape(-1, *w_shape)
        h += w[:, None, bs]  # in place: one activation array per layer is alive
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
    return h


def forward(net: BayesianNetwork, x, eps) -> np.ndarray:
    """Deterministic logits for input x under the weights sampled with noise `eps`.

    x may be a single feature vector or a (batch, features) matrix; the result
    has the matching shape. eps is one (P,) vector in the flat layout, and the
    parameters are w = mu + softplus(rho) * eps.
    """
    h, single = _as_batch(net, x)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != net.mu.shape:
        raise ValueError(f"noise has shape {eps.shape}, expected ({net.n_parameters},)")
    w = net.mu + softplus_sigma(net.rho) * eps[None, :]
    h = _logits(h, w, net.layers, net.layout())[0]
    return h[0] if single else h


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits.

    Reductions along a short last axis cost numpy a loop per row, so the max
    is taken column by column, and so is the sum of two columns; both equal
    `np.max` and `np.sum` bit for bit, as neither depends on the order.
    """
    z = logits - functools.reduce(np.maximum, np.moveaxis(logits, -1, 0))[..., None]
    e = np.exp(z)
    total = e[..., 0] + e[..., 1] if e.shape[-1] == 2 else np.sum(e, axis=-1)
    return e / total[..., None]


# Floats per activation array of one batched predictive pass (120 KiB). glibc
# serves allocations of 128 KiB and more with fresh mmap'd pages, so larger
# chunks page-fault on every pass; below it the arrays reuse heap memory.
_PREDICTIVE_CHUNK_FLOATS = 15 << 10


def predictive(net: BayesianNetwork, x, n_samples: int, seed) -> np.ndarray:
    """Monte-Carlo predictive class probabilities, (1/n) * sum_i softmax(forward(x, eps_i)).

    Each row is a probability simplex point. Deterministic for a fixed seed:
    sample i uses row i of one (n_samples, P) standard-normal block, which is
    the draw order of n_samples successive (P,) draws. Samples run in
    batched passes sized so that no activation array reaches 128 KiB.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    h, single = _as_batch(net, x)
    mu, sigma = net.mu, softplus_sigma(net.rho)
    layout = net.layout()
    widest = max(l.fan_out for l in net.layers)
    chunk = max(1, _PREDICTIVE_CHUNK_FLOATS // max(1, h.shape[0] * widest))
    acc = np.zeros((h.shape[0], net.n_outputs))
    for start in range(0, n_samples, chunk):
        eps = rng.standard_normal((min(chunk, n_samples - start), mu.size))
        for probs in softmax(_logits(h, mu + sigma * eps, net.layers, layout)):
            acc += probs  # sample by sample, the summation order of a plain loop
    acc /= n_samples
    return acc[0] if single else acc


def _params_to_lists(p: VariationalParams) -> dict:
    return {"mu": p.mu.tolist(), "rho": p.rho.tolist()}


def save_checkpoint(net: BayesianNetwork, path, seed_lineage=None):
    """Write the network as flat JSON: sizes, mu/rho arrays, prior, seed lineage."""
    payload = {
        "format": "jsbnn-checkpoint-v1",
        "sizes": [net.n_inputs] + [l.fan_out for l in net.layers],
        "activations": [l.activation for l in net.layers],
        "layers": [
            {"weights": _params_to_lists(l.weights), "biases": _params_to_lists(l.biases)}
            for l in net.layers
        ],
        "prior": {"mu": net.prior.mu.tolist(), "sigma": net.prior.sigma.tolist()},
        "seed_lineage": list(seed_lineage) if seed_lineage is not None else [],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_checkpoint(path) -> BayesianNetwork:
    """Rebuild a network from `save_checkpoint` output; ValueError if it is malformed."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or raw.get("format") != "jsbnn-checkpoint-v1":
        raise ValueError(f"{path}: not a jsbnn checkpoint")
    try:
        return _network_from_checkpoint(raw)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint, {type(err).__name__}: {err}") from None


def _network_from_checkpoint(raw: dict) -> BayesianNetwork:
    sizes, specs, activations = raw["sizes"], raw["layers"], raw["activations"]
    if len(sizes) != len(specs) + 1 or len(activations) != len(specs):
        raise ValueError(f"{len(sizes)} sizes and {len(activations)} activations for {len(specs)} layers")
    layers = []
    for i, spec in enumerate(specs):
        layers.append(
            VariationalDenseLayer(
                fan_in=sizes[i],
                fan_out=sizes[i + 1],
                weights=VariationalParams(
                    np.asarray(spec["weights"]["mu"]), np.asarray(spec["weights"]["rho"])
                ),
                biases=VariationalParams(
                    np.asarray(spec["biases"]["mu"]), np.asarray(spec["biases"]["rho"])
                ),
                activation=activations[i],
            )
        )
    prior = DiagonalGaussian(np.asarray(raw["prior"]["mu"]), np.asarray(raw["prior"]["sigma"]))
    return BayesianNetwork(layers=layers, prior=prior)
