"""Independent oracles used to verify the library's own estimators.

These deliberately avoid the package's gaussian/divergence code paths: the
oracle writes its own copy of the normal log density (in scipy.stats'
`norm.logpdf` order of operations, so its values equal scipy's bit for bit)
and integrates with a self-contained adaptive Simpson rule, so an error in the
implementation under test cannot cancel out here. The tests cross-check
`quadrature_jsa` against `scipy.integrate.quad` over `scipy.stats.norm`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError

__all__ = ["quadrature_jsa", "finite_diff", "GoldenCase", "load_golden"]


# log(sqrt(2 pi)), computed as scipy.stats computes its normal-density constant
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


def _norm_logpdf(x, mu: float, sigma: float, log_sigma: float) -> np.ndarray:
    """log N(x; mu, sigma^2), in the order of operations of `scipy.stats.norm.logpdf`."""
    y = (x - mu) / sigma
    return (-y**2 / 2.0 - _LOG_SQRT_2PI) - log_sigma


def _adaptive_simpson(f, knots: np.ndarray, tol: float, max_rounds: int = 60) -> float:
    """Adaptive Simpson over the panels defined by `knots`, absolute tolerance `tol`.

    Works on a vectorized stack of intervals: every refinement round halves all
    panels whose local Richardson error estimate is still too large. The
    midpoints of a split panel's halves are the quarter points the round has
    already evaluated, so each round evaluates `f` at two new points per panel.
    Raises NumericError as soon as an integrand value is not finite.
    """

    def checked(x):
        fx = f(x)
        if not np.all(np.isfinite(fx)):
            raise NumericError("adaptive Simpson quadrature met a non-finite integrand value")
        return fx

    knots = np.asarray(knots, dtype=np.float64)
    a, b = knots[:-1], knots[1:]
    m = 0.5 * (a + b)
    span = float(knots[-1] - knots[0])
    fk = checked(knots)
    fa, fm, fb = fk[:-1], checked(m), fk[1:]
    total = 0.0
    for _ in range(max_rounds):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = checked(lm), checked(rm)
        h = b - a
        s_whole = h / 6.0 * (fa + 4.0 * fm + fb)
        s_halves = h / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
        err = (s_halves - s_whole) / 15.0
        ok = np.abs(err) <= tol * (h / span)
        total += float(np.sum((s_halves + err)[ok]))
        if np.all(ok):
            return total
        bad = ~ok
        # split the bad panels in two; their midpoints are this round's quarter points
        a, m, b = (np.concatenate([a[bad], m[bad]]), np.concatenate([lm[bad], rm[bad]]),
                   np.concatenate([m[bad], b[bad]]))
        fa, fm, fb = (np.concatenate([fa[bad], fm[bad]]), np.concatenate([flm[bad], frm[bad]]),
                      np.concatenate([fm[bad], fb[bad]]))
    raise NumericError("adaptive Simpson quadrature did not converge")


def quadrature_jsa(q_mu: float, q_sigma: float, p_mu: float, p_sigma: float,
                   alpha: float, tol: float = 1e-10) -> float:
    """High-precision univariate generalized JS divergence via quadrature.

    Evaluates (1-alpha) * KL(q || m) + alpha * KL(p || m) with the skewed mixture
    m = alpha*q + (1-alpha)*p, integrating each KL integrand with adaptive
    Simpson over the union of both 10-sigma supports.

    Parameters
    ----------
    q_mu, q_sigma : float
        Mean and standard deviation of the first (posterior-slot) Gaussian.
    p_mu, p_sigma : float
        Mean and standard deviation of the second (prior-slot) Gaussian.
    alpha : float
        Skew parameter in [0, 1].
    tol : float
        Absolute tolerance per integral.

    Raises ValueError for an alpha outside [0, 1], a non-finite mean, or a
    standard deviation that is not finite and positive.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    for name, mu, sigma in (("q", q_mu, q_sigma), ("p", p_mu, p_sigma)):
        if not math.isfinite(mu):
            raise ValueError(f"{name}_mu must be finite, got {mu!r}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"{name}_sigma must be finite and positive, got {sigma!r}")
    lo = min(q_mu - 10.0 * q_sigma, p_mu - 10.0 * p_sigma)
    hi = max(q_mu + 10.0 * q_sigma, p_mu + 10.0 * p_sigma)
    # seed panels around both modes so a narrow component cannot be stepped over
    marks = [lo, hi]
    for mu, sigma in ((q_mu, q_sigma), (p_mu, p_sigma)):
        for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
            marks.append(mu + k * sigma)
    knots = np.unique(np.clip(np.asarray(marks, dtype=np.float64), lo, hi))

    log_q_sigma, log_p_sigma = np.log(q_sigma), np.log(p_sigma)
    if 0.0 < alpha < 1.0:
        log_alpha, log_beta = np.log(alpha), np.log(1.0 - alpha)

    def kl_integrand(of_q: bool):
        """x -> f(x) * (log f(x) - log m(x)), for f = q or f = P."""

        def integrand(x):
            lq = _norm_logpdf(x, q_mu, q_sigma, log_q_sigma)
            lp = _norm_logpdf(x, p_mu, p_sigma, log_p_sigma)
            if alpha == 0.0:
                log_mix = lp
            elif alpha == 1.0:
                log_mix = lq
            else:
                log_mix = np.logaddexp(log_alpha + lq, log_beta + lp)
            own = lq if of_q else lp
            return np.exp(own) * (own - log_mix)

        return integrand

    total = 0.0
    if alpha < 1.0:
        total += (1.0 - alpha) * _adaptive_simpson(kl_integrand(True), knots, tol)
    if alpha > 0.0:
        total += alpha * _adaptive_simpson(kl_integrand(False), knots, tol)
    return total


def finite_diff(loss_evaluator, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient estimate of a scalar function.

    `loss_evaluator` must be deterministic: any Monte-Carlo noise inside it has
    to be frozen so both sides of every stencil see the same samples.
    """
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        f_plus = loss_evaluator(bumped)
        bumped[i] = params[i] - h
        f_minus = loss_evaluator(bumped)
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class GoldenCase:
    """One frozen test case: serialized inputs, expected output, and its provenance.

    provenance is one of {"paper", "trivial", "derived"}; derived cases must name
    the oracle that produced the expected value.
    """

    identifier: str
    inputs: dict
    expected: object
    provenance: str
    oracle: str

    def __post_init__(self):
        if self.provenance not in ("paper", "trivial", "derived"):
            raise ValueError(f"unknown provenance tag {self.provenance!r}")
        if self.provenance == "derived" and not self.oracle:
            raise ValueError(f"derived case {self.identifier} must name its oracle")


def load_golden(path) -> GoldenCase:
    """Load a golden JSON file into a GoldenCase."""
    raw = json.loads(Path(path).read_text())
    return GoldenCase(
        identifier=raw["identifier"],
        inputs=raw["inputs"],
        expected=raw["expected"],
        provenance=raw["provenance"],
        oracle=raw.get("oracle", ""),
    )
