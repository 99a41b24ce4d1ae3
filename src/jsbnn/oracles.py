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


def _adaptive_simpson(f, knots: np.ndarray, tol: float, n_integrals: int = 1,
                      max_rounds: int = 60) -> np.ndarray:
    """Adaptive Simpson for `n_integrals` integrals over the panels defined by `knots`.

    `f(x, k)` returns integral `k[i]`'s integrand at `x[i]`. All integrals share
    one vectorized stack of panels, each tagged with its integral's index.
    Every refinement round halves all panels whose local Richardson error
    estimate is above their share `tol * h / span` of the absolute tolerance
    `tol`, so each integral keeps its own tolerance. The midpoints of a split
    panel's halves are the quarter points the round has already evaluated, so
    each round evaluates `f` once, at two new points per panel.

    The panels stay sorted by integral, each integral's in the order a stack of
    its own would hold them, and each round's accepted panels are summed per
    integral with `np.sum` over a contiguous slice. So every integral equals,
    bit for bit, what a one-integral stack computes. Raises NumericError as
    soon as an integrand value is not finite.
    """

    def checked(x, k):
        fx = f(x, k)
        if not np.isfinite(fx).all():
            raise NumericError("adaptive Simpson quadrature met a non-finite integrand value")
        return fx

    knots = np.asarray(knots, dtype=np.float64)
    span = float(knots[-1] - knots[0])
    k = np.repeat(np.arange(n_integrals), knots.size - 1)
    a, b = np.tile(knots[:-1], n_integrals), np.tile(knots[1:], n_integrals)
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(checked(np.concatenate([a, m, b]), np.tile(k, 3)), 3)
    totals = [0.0] * n_integrals
    for _ in range(max_rounds):
        n = k.size
        quarters, k2 = np.concatenate([0.5 * (a + m), 0.5 * (m + b)]), np.concatenate([k, k])
        fq = checked(quarters, k2)
        flm, frm = fq[:n], fq[n:]
        h = b - a
        s_whole = h / 6.0 * (fa + 4.0 * fm + fb)
        s_halves = h / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
        err = (s_halves - s_whole) / 15.0
        ok = np.abs(err) <= tol * (h / span)
        accepted, owner = (s_halves + err)[ok], k[ok]
        cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [owner.size]):
            if lo < hi:
                totals[owner[lo]] += float(np.sum(accepted[lo:hi]))
        if ok.all():
            return np.array(totals)
        # split each bad panel into (a, m) and (m, b), whose midpoints are its
        # quarter points; `sel` picks them from the concatenations of the left
        # and right halves' values, and the stable sort puts each integral's
        # left halves before its right halves
        bad = np.flatnonzero(~ok)
        halves = np.concatenate([bad, bad + n])
        sel = halves[np.argsort(k2[halves], kind="stable")]
        k = k2[sel]
        a, m, b = np.concatenate([a, m])[sel], quarters[sel], np.concatenate([m, b])[sel]
        fa, fm, fb = np.concatenate([fa, fm])[sel], fq[sel], np.concatenate([fm, fb])[sel]
    raise NumericError("adaptive Simpson quadrature did not converge")


def quadrature_jsa(q_mu: float, q_sigma: float, p_mu: float, p_sigma: float,
                   alpha, tol: float = 1e-10):
    """High-precision univariate generalized JS divergence via quadrature.

    Evaluates (1-alpha) * KL(q || m) + alpha * KL(p || m) with the skewed mixture
    m = alpha*q + (1-alpha)*p, integrating each KL integrand with adaptive
    Simpson over the union of both 10-sigma supports. The KL integrals of every
    alpha share one refinement stack.

    Parameters
    ----------
    q_mu, q_sigma : float
        Mean and standard deviation of the first (posterior-slot) Gaussian.
    p_mu, p_sigma : float
        Mean and standard deviation of the second (prior-slot) Gaussian.
    alpha : float or 1-D array of floats
        Skew parameter(s) in [0, 1].
    tol : float
        Absolute tolerance per integral.

    Returns a float for a scalar alpha and an array of one value per alpha for
    a vector; each value equals the scalar call's bit for bit.

    Raises ValueError for an alpha outside [0, 1], a non-finite mean, or a
    standard deviation that is not finite and positive.
    """
    alphas = np.asarray(alpha, dtype=np.float64)
    if alphas.ndim > 1:
        raise ValueError("alpha must be a scalar or a 1-D array")
    if not np.all((0.0 <= alphas) & (alphas <= 1.0)):
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
    flat = np.atleast_1d(alphas)
    with np.errstate(divide="ignore"):
        log_alpha, log_beta = np.log(flat), np.log(1.0 - flat)
    # one KL integral per nonzero weight: (alpha index, weight, integrand of q or of P)
    terms = []
    for j, a in enumerate(flat.tolist()):
        if a < 1.0:
            terms.append((j, 1.0 - a, True))
        if a > 0.0:
            terms.append((j, a, False))
    of_alpha = np.array([j for j, _, _ in terms], dtype=np.intp)
    of_q = np.array([own_q for _, _, own_q in terms], dtype=bool)
    log_a, log_b = log_alpha[of_alpha], log_beta[of_alpha]

    def integrand(x, k):
        """x -> f(x) * (log f(x) - log m(x)) for integral k, with f = q or f = P."""
        lq = _norm_logpdf(x, q_mu, q_sigma, log_q_sigma)
        lp = _norm_logpdf(x, p_mu, p_sigma, log_p_sigma)
        # logaddexp(-inf, y) is y exactly, so alpha 0 and 1 give the mixtures P and q
        log_mix = np.logaddexp(log_a[k] + lq, log_b[k] + lp)
        own = np.where(of_q[k], lq, lp)
        return np.exp(own) * (own - log_mix)

    kl = _adaptive_simpson(integrand, knots, tol, len(terms))
    totals = [0.0] * flat.size
    for (j, weight, _), value in zip(terms, kl.tolist()):
        totals[j] += weight * value
    return totals[0] if alphas.ndim == 0 else np.array(totals)


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
