"""Variational fully-connected networks: sampled forward pass and MC predictive.

A network holds per-layer (mu, rho) pairs for weights and biases. Its flat
layout orders all P parameters layer by layer, weights (row-major
(fan_in, fan_out)) before biases; `flat_params` and `set_flat_params` move
(mu, rho) between that layout and the layers. Every forward pass consumes
explicit noise, so evaluation is deterministic given the noise and safe to run
concurrently. Parameters are only mutated by the training loop, which is
single-writer.
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
    "LayerNoise",
    "forward",
    "predictive",
    "zero_noise",
    "draw_noise",
    "flatten_noise",
    "save_checkpoint",
    "load_checkpoint",
]

_ACTIVATIONS = ("relu", "identity", "softmax")


# per-layer standard-normal draws for the reparameterized weight/bias samples
@dataclass(frozen=True)
class LayerNoise:
    weights: np.ndarray
    biases: np.ndarray


@dataclass
class VariationalDenseLayer:
    """One dense layer with factorized-Gaussian weights and biases.

    Weight parameters are stored flattened with fan_in * fan_out entries in
    row-major (fan_in, fan_out) order; biases have fan_out entries.
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


@dataclass
class BayesianNetwork:
    """Ordered variational dense layers plus a shared prior over every parameter.

    The prior is a DiagonalGaussian that is broadcastable to each parameter
    tensor (typically a single-dimension Gaussian reused everywhere).
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

    @property
    def n_inputs(self) -> int:
        return self.layers[0].fan_in

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].fan_out

    @property
    def n_parameters(self) -> int:
        return sum(l.weights.dim + l.biases.dim for l in self.layers)

    def prior_for(self, n: int) -> DiagonalGaussian:
        return self.prior.broadcast_to(n)

    def layout(self) -> list:
        """Per layer, the ((slice, shape) of the weights, (slice, shape) of the biases)
        in the flat parameter vector."""
        out, pos = [], 0
        for l in self.layers:
            w = slice(pos, pos + l.weights.dim)
            b = slice(w.stop, w.stop + l.biases.dim)
            pos = b.stop
            out.append(((w, (l.fan_in, l.fan_out)), (b, (l.fan_out,))))
        return out

    def _tensors(self):
        for l in self.layers:
            yield l.weights
            yield l.biases

    def flat_params(self):
        """Fresh (mu, rho) vectors of all P parameters in layout order."""
        tensors = list(self._tensors())
        return np.concatenate([t.mu for t in tensors]), np.concatenate([t.rho for t in tensors])

    def set_flat_params(self, mu: np.ndarray, rho: np.ndarray):
        """Store flat (mu, rho) vectors into the layers, as views of the given arrays."""
        for layer, ((w, _), (b, _)) in zip(self.layers, self.layout()):
            layer.weights = VariationalParams(mu[w], rho[w])
            layer.biases = VariationalParams(mu[b], rho[b])

    def flat_prior(self):
        """Prior (mu, sigma) of every parameter, as flat vectors in layout order.

        Each tensor gets the prior broadcast to its length, as in `prior_for`.
        """
        dims = [(t.dim,) for t in self._tensors()]
        return tuple(np.concatenate([np.broadcast_to(v, d) for d in dims])
                     for v in (self.prior.mu, self.prior.sigma))

    def copy(self) -> "BayesianNetwork":
        layers = [
            VariationalDenseLayer(
                fan_in=l.fan_in,
                fan_out=l.fan_out,
                weights=VariationalParams(l.weights.mu.copy(), l.weights.rho.copy()),
                biases=VariationalParams(l.biases.mu.copy(), l.biases.rho.copy()),
                activation=l.activation,
            )
            for l in self.layers
        ]
        return BayesianNetwork(layers=layers, prior=self.prior)

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


def zero_noise(net: BayesianNetwork) -> list:
    """All-zero noise: the forward pass then uses the posterior means exactly."""
    return [
        LayerNoise(np.zeros(l.weights.dim), np.zeros(l.biases.dim)) for l in net.layers
    ]


def draw_noise(net: BayesianNetwork, rng: np.random.Generator) -> list:
    """One standard-normal noise vector per parameter tensor."""
    return [
        LayerNoise(rng.standard_normal(l.weights.dim), rng.standard_normal(l.biases.dim))
        for l in net.layers
    ]


def flatten_noise(net: BayesianNetwork, epsilons) -> np.ndarray:
    """Per-layer noise as one vector in the network's flat layout."""
    if len(epsilons) != len(net.layers):
        raise ValueError("need one noise entry per layer")
    for layer, eps in zip(net.layers, epsilons):
        if eps.weights.shape != (layer.weights.dim,) or eps.biases.shape != (layer.biases.dim,):
            raise ValueError("noise shapes do not match layer parameters")
    return np.concatenate([a for eps in epsilons for a in (eps.weights, eps.biases)])


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


def forward(net: BayesianNetwork, x, epsilons) -> np.ndarray:
    """Deterministic logits for input x under the weights sampled with `epsilons`.

    x may be a single feature vector or a (batch, features) matrix; the result
    has the matching shape. Weights are w = mu + softplus(rho) * eps per layer.
    """
    h, single = _as_batch(net, x)
    mu, rho = net.flat_params()
    w = mu + softplus_sigma(rho) * flatten_noise(net, epsilons)[None, :]
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
    the draw order of n_samples successive `draw_noise` calls. Samples run in
    batched passes sized so that no activation array reaches 128 KiB.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    h, single = _as_batch(net, x)
    mu, rho = net.flat_params()
    sigma = softplus_sigma(rho)
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
    except (KeyError, IndexError, TypeError) as err:
        raise ValueError(f"{path}: malformed checkpoint, {type(err).__name__}: {err}") from None


def _network_from_checkpoint(raw: dict) -> BayesianNetwork:
    sizes = raw["sizes"]
    layers = []
    for i, spec in enumerate(raw["layers"]):
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
                activation=raw["activations"][i],
            )
        )
    prior = DiagonalGaussian(np.asarray(raw["prior"]["mu"]), np.asarray(raw["prior"]["sigma"]))
    return BayesianNetwork(layers=layers, prior=prior)
