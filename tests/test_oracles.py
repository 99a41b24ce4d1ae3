"""Self-checks for the verification oracles."""

import math

import numpy as np
import pytest

from jsbnn.divergence import jsa_bound, kl_gaussian
from jsbnn.errors import NumericError
from jsbnn.gaussian import DiagonalGaussian
from jsbnn.oracles import GoldenCase, _adaptive_simpson, finite_diff, load_golden, quadrature_jsa


def reference_jsa(q_mu, q_sigma, p_mu, p_sigma, alpha):
    """The generalized JS divergence from scipy.integrate.quad over scipy.stats.norm.

    Each KL term is integrated over its own distribution's 12-sigma range, with
    break points at the modes and +-1, 3 sigma of both components.
    """
    from scipy import integrate, stats

    q, p = stats.norm(q_mu, q_sigma), stats.norm(p_mu, p_sigma)

    def log_mix(x):
        return np.logaddexp(np.log(alpha) + q.logpdf(x), np.log1p(-alpha) + p.logpdf(x))

    def kl_to_mix(f, mu, sigma):
        lo, hi = mu - 12.0 * sigma, mu + 12.0 * sigma
        marks = [m + k * s for m, s in ((q_mu, q_sigma), (p_mu, p_sigma)) for k in (-3, -1, 0, 1, 3)]
        value, _ = integrate.quad(lambda x: f.pdf(x) * (f.logpdf(x) - log_mix(x)), lo, hi,
                                  points=[m for m in marks if lo < m < hi],
                                  epsabs=1e-13, epsrel=1e-12, limit=500)
        return value

    return (1.0 - alpha) * kl_to_mix(q, q_mu, q_sigma) + alpha * kl_to_mix(p, p_mu, p_sigma)


class TestQuadratureJsa:
    def test_identical_distributions_zero(self):
        assert quadrature_jsa(1.3, 0.7, 1.3, 0.7, 0.4) == pytest.approx(0.0, abs=1e-10)

    def test_alpha_zero_recovers_kl(self):
        q = DiagonalGaussian([0.8], [0.5])
        p = DiagonalGaussian([-0.2], [1.4])
        val = quadrature_jsa(0.8, 0.5, -0.2, 1.4, 0.0)
        assert val == pytest.approx(kl_gaussian(q, p), abs=1e-8)

    def test_alpha_one_recovers_reverse_kl(self):
        q = DiagonalGaussian([0.8], [0.5])
        p = DiagonalGaussian([-0.2], [1.4])
        val = quadrature_jsa(0.8, 0.5, -0.2, 1.4, 1.0)
        assert val == pytest.approx(kl_gaussian(p, q), abs=1e-8)

    def test_bound_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            mq, mp = rng.uniform(-3, 3, 2)
            sq, sp = np.exp(rng.uniform(np.log(0.05), np.log(3), 2))
            alpha = rng.uniform(0.05, 0.95)
            val = quadrature_jsa(mq, sq, mp, sp, alpha)
            assert val <= jsa_bound(alpha) + 1e-9
            assert val >= -1e-10

    def test_symmetry_at_half(self):
        a = quadrature_jsa(0.5, 0.3, -1.0, 1.1, 0.5)
        b = quadrature_jsa(-1.0, 1.1, 0.5, 0.3, 0.5)
        assert a == pytest.approx(b, abs=1e-9)

    def test_narrow_component_resolved(self):
        # a thousand-fold scale separation still integrates to a bounded value
        val = quadrature_jsa(0.0, 0.001, 0.5, 1.0, 0.5)
        assert 0.0 < val <= math.log(2.0) + 1e-9

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("pair", [
        (0.03, 0.01815, 0.0, 0.31623),  # demo-net init: softplus(-4) against sqrt(0.1)
        (0.0, 0.001, 0.5, 1.0),  # a thousand-fold scale separation
        (0.8, 0.5, -0.2, 1.4),
        (-2.0, 2.5, 1.0, 0.3),
        (1.3, 0.7, 1.1, 0.7),
    ])
    def test_matches_scipy_quad_reference(self, pair, alpha):
        assert quadrature_jsa(*pair, alpha) == pytest.approx(reference_jsa(*pair, alpha), abs=1e-9)

    @pytest.mark.parametrize("args", [
        (0.0, 0.0, 0.0, 1.0),
        (0.0, -0.5, 0.0, 1.0),
        (0.0, math.inf, 0.0, 1.0),
        (0.0, 1.0, 0.0, math.nan),
        (math.nan, 1.0, 0.0, 1.0),
        (0.0, 1.0, -math.inf, 1.0),
    ])
    def test_rejects_invalid_parameters(self, args):
        with pytest.raises(ValueError):
            quadrature_jsa(*args, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        calls = []

        def f(x):
            calls.append(x.size)
            y = np.sqrt(x)  # the kink at 0 takes many refinement rounds
            if len(calls) == 4:
                y[0] = bad
            return y

        with pytest.raises(NumericError, match="non-finite"):
            _adaptive_simpson(f, np.array([0.0, 1.0]), 1e-12)
        assert len(calls) == 4


class TestFiniteDiff:
    def test_exact_on_quadratics(self):
        a = np.array([2.0, -1.0, 0.5])

        def f(x):
            return float(x @ np.diag(a) @ x)

        x0 = np.array([0.3, 1.2, -0.7])
        grad = finite_diff(f, x0, h=1e-5)
        np.testing.assert_allclose(grad, 2 * a * x0, rtol=1e-9)

    def test_second_order_error_decay(self):
        def f(x):
            return float(np.sum(np.sin(x)))

        x0 = np.array([0.4, 1.1])
        exact = np.cos(x0)
        err_h = np.abs(finite_diff(f, x0, h=1e-3) - exact).max()
        err_h2 = np.abs(finite_diff(f, x0, h=5e-4) - exact).max()
        assert err_h2 < err_h / 3.0  # ~4x for an O(h^2) stencil


class TestGoldenCase:
    def test_provenance_validation(self):
        with pytest.raises(ValueError):
            GoldenCase("x", {}, 1.0, "guessed", "")
        with pytest.raises(ValueError):
            GoldenCase("x", {}, 1.0, "derived", "")
        GoldenCase("x", {}, 1.0, "derived", "quadrature")
        GoldenCase("x", {}, 1.0, "trivial", "")

    def test_load_golden_files(self):
        from conftest import GOLDEN_DIR

        for path in sorted(GOLDEN_DIR.glob("*.json")):
            case = load_golden(path)
            assert case.identifier
            assert case.provenance == "derived"
            assert case.oracle
