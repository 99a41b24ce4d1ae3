"""Diagonal Gaussians, the variational (mu, rho) parameterization and its softplus scale.

Everything here is a pure function over immutable inputs; RNG state is owned by
callers and passed in explicitly, so all operations are safe to call from any
number of threads. All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiagonalGaussian",
    "VariationalParams",
    "softplus_sigma",
]


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have length >= 1")
    return arr


@dataclass(frozen=True)
class DiagonalGaussian:
    """A factorized Gaussian N(mu, diag(sigma^2)).

    Parameters
    ----------
    mu : array_like
        Per-dimension means.
    sigma : array_like
        Per-dimension standard deviations, strictly positive, same length as mu.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = _as_vector(self.mu, "mu")
        sigma = _as_vector(self.sigma, "sigma")
        if mu.shape != sigma.shape:
            raise ValueError(
                f"mu and sigma must have equal length, got {mu.size} and {sigma.size}"
            )
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("mu and sigma must be finite")
        if np.any(sigma <= 0.0):
            raise ValueError("sigma must be strictly positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def var(self) -> np.ndarray:
        return self.sigma**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. vectors, returned as an (n, dim) array."""
        eps = rng.standard_normal((n, self.dim))
        return self.mu + self.sigma * eps


@dataclass(frozen=True)
class VariationalParams:
    """Trainable (mu, rho) pair for one weight tensor; sigma is derived as softplus(rho).

    In a network, mu and rho are views into the network's flat parameter store.
    """

    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        mu = _as_vector(self.mu, "mu")
        rho = _as_vector(self.rho, "rho")
        if mu.shape != rho.shape:
            raise ValueError(
                f"mu and rho must have equal length, got {mu.size} and {rho.size}"
            )
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(rho))):
            raise ValueError("mu and rho must be finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.mu.size

    def sigma(self) -> np.ndarray:
        return softplus_sigma(self.rho)

    def to_gaussian(self) -> DiagonalGaussian:
        return DiagonalGaussian(self.mu, self.sigma())


def softplus_sigma(rho) -> np.ndarray:
    """Map unconstrained rho to a strictly positive scale, log(1 + exp(rho)).

    Computed overflow-safely: for large rho this evaluates rho + log1p(exp(-rho))
    instead of exponentiating rho directly.

    Parameters
    ----------
    rho : array_like
        Unconstrained values; must be finite.

    Returns
    -------
    np.ndarray
        Elementwise softplus, strictly positive.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho must be finite")
    return np.logaddexp(0.0, rho)
