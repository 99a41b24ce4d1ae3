"""Tests for closed-form and Monte-Carlo divergences and the dominance utilities."""

import math

import numpy as np
import pytest

from jsbnn.divergence import (
    DivergenceConfig,
    alpha_threshold,
    fit_quadratic_coefficient,
    geometric_mean_params,
    jsa_bound,
    jsa_mc,
    jsg_dominates_kl,
    jsg_gaussian_closed,
    jsg_mc,
    kl_gaussian,
    mc_kl,
    variance_condition_holds,
)
from jsbnn.errors import NumericError
from jsbnn.gaussian import DiagonalGaussian
from jsbnn.oracles import quadrature_jsa


def g(mu, var):
    """Univariate Gaussian from (mean, variance)."""
    return DiagonalGaussian([mu], [math.sqrt(var)])


def random_pair(rng, dims=1):
    mus = rng.uniform(-3, 3, (2, dims))
    sigmas = np.exp(rng.uniform(np.log(0.05), np.log(3.0), (2, dims)))
    return DiagonalGaussian(mus[0], sigmas[0]), DiagonalGaussian(mus[1], sigmas[1])


class TestKlGaussian:
    def test_identical_is_zero(self):
        q = g(0.0, 1.0)
        assert kl_gaussian(q, q) == 0.0

    def test_mean_shift(self):
        assert kl_gaussian(g(5, 1), g(0, 1)) == pytest.approx(12.5, rel=1e-12)

    def test_variance_ratio(self):
        assert kl_gaussian(g(0, 0.01), g(0, 0.1)) == pytest.approx(0.7012925465, rel=1e-9)
        assert kl_gaussian(g(0, 0.1), g(0, 0.01)) == pytest.approx(3.3487074535, rel=1e-9)

    def test_matches_mc_estimate(self):
        q, p = g(5, 1), g(0, 1)
        est = mc_kl(
            q.sample,
            lambda x: -0.5 * ((x[:, 0] - 5.0) ** 2) - 0.5 * math.log(2 * math.pi),
            lambda x: -0.5 * (x[:, 0] ** 2) - 0.5 * math.log(2 * math.pi),
            1_000_000,
            99,
        )
        se = 5.0 / 1000.0  # sd of log-ratio is 5 for this pair
        assert abs(est - 12.5) < 3 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussian(DiagonalGaussian([0, 0], [1, 1]), g(0, 1))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q, p = random_pair(rng)
            assert kl_gaussian(q, p) >= 0.0


class TestGeometricMeanParams:
    def test_equal_variances_interpolate_means(self):
        q, p = g(2.0, 0.5), g(-1.0, 0.5)
        for alpha in (0.0, 0.3, 1.0):
            gm = geometric_mean_params(q, p, alpha)
            assert gm.sigma_prime_sq[0] == pytest.approx(0.5, rel=1e-12)
            assert gm.mu_prime[0] == pytest.approx(alpha * 2.0 + (1 - alpha) * -1.0, rel=1e-12)

    def test_alpha_zero_collapses_to_second(self):
        q, p = g(2.0, 0.5), g(-1.0, 0.25)
        gm = geometric_mean_params(q, p, 0.0)
        assert gm.sigma_prime_sq[0] == pytest.approx(0.25, rel=1e-12)
        assert gm.mu_prime[0] == pytest.approx(-1.0, rel=1e-12)

    def test_narrow_posterior_wide_prior(self):
        # vq=0.01, vp=0.1, alpha=0.5: v' = 0.001/0.055, mu' = v' * 50 * mu
        for mu in (0.3, -1.2):
            gm = geometric_mean_params(g(mu, 0.01), g(0.0, 0.1), 0.5)
            assert gm.sigma_prime_sq[0] == pytest.approx(0.001 / 0.055, rel=1e-12)
            assert gm.mu_prime[0] == pytest.approx(mu * 10.0 / 11.0, rel=1e-12)

    def test_dimension_mismatch(self):
        two = DiagonalGaussian([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            geometric_mean_params(two, g(0, 1), 0.5)
        with pytest.raises(ValueError):
            jsg_gaussian_closed(two, g(0, 1), 0.5)
        with pytest.raises(ValueError):
            jsa_mc(two, g(0, 1), 0.5, 10, 1)
        with pytest.raises(ValueError):
            jsg_mc(two, g(0, 1), 0.5, 10, 1)


class TestJsgClosed:
    def test_alpha_zero_equals_kl(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q, p = random_pair(rng, dims=3)
            assert jsg_gaussian_closed(q, p, 0.0) == pytest.approx(kl_gaussian(q, p), rel=1e-12)
            assert jsg_gaussian_closed(q, p, 1.0) == pytest.approx(kl_gaussian(p, q), rel=1e-12)

    def test_reference_value(self):
        assert jsg_gaussian_closed(g(5, 1), g(0, 1), 0.5) == pytest.approx(3.125, abs=1e-12)

    def test_skew_duality(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            q, p = random_pair(rng, dims=2)
            alpha = rng.uniform(0, 1)
            a = jsg_gaussian_closed(q, p, alpha)
            b = jsg_gaussian_closed(p, q, 1.0 - alpha)
            assert a == pytest.approx(b, rel=1e-12)

    def test_symmetry_at_half(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            q, p = random_pair(rng)
            assert jsg_gaussian_closed(q, p, 0.5) == pytest.approx(
                jsg_gaussian_closed(p, q, 0.5), rel=1e-12
            )

    def test_nonnegative_and_zero_on_equal(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            q, p = random_pair(rng)
            alpha = rng.uniform(0, 1)
            assert jsg_gaussian_closed(q, p, alpha) >= 0.0
        q = g(0.3, 0.7)
        assert jsg_gaussian_closed(q, q, 0.37) == pytest.approx(0.0, abs=1e-14)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            jsg_gaussian_closed(g(0, 1), g(0, 1), 1.5)

    def test_matches_weighted_kl_to_geometric_mean(self):
        # definition route: (1-a) KL(q||g') + a KL(p||g')
        rng = np.random.default_rng(15)
        for _ in range(200):
            q, p = random_pair(rng, dims=2)
            alpha = rng.uniform(0, 1)
            gm = geometric_mean_params(q, p, alpha).to_gaussian()
            direct = (1 - alpha) * kl_gaussian(q, gm) + alpha * kl_gaussian(p, gm)
            assert jsg_gaussian_closed(q, p, alpha) == pytest.approx(direct, rel=1e-9, abs=1e-12)


class TestJsaBound:
    def test_symmetric_point(self):
        assert jsa_bound(0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_skewed_point(self):
        assert jsa_bound(0.9) == pytest.approx(2.0828626352604243, rel=1e-10)

    def test_limits_are_infinite(self):
        assert jsa_bound(0.0) == math.inf
        assert jsa_bound(1.0) == math.inf

    def test_diverges_near_zero(self):
        assert jsa_bound(1e-12) > 27.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jsa_bound(-0.1)


class TestMcKl:
    def test_identical_near_zero(self):
        q = g(1.0, 0.5)
        logpdf = lambda x: -((x[:, 0] - 1.0) ** 2) / 1.0 * 0.5  # shared, so difference is 0
        est = mc_kl(q.sample, logpdf, logpdf, 500, 3)
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_is_finite(self):
        q, p = g(5, 1), g(0, 1)
        from jsbnn.divergence import _gaussian_logpdf

        est = mc_kl(q.sample, lambda x: _gaussian_logpdf(x, q), lambda x: _gaussian_logpdf(x, p), 1, 5)
        assert np.isfinite(est)

    def test_nonfinite_logpdf_reports_index(self):
        q = g(0, 1)

        def bad_logpdf(x):
            out = np.zeros(x.shape[0])
            out[2] = np.nan
            return out

        with pytest.raises(NumericError, match="index 2"):
            mc_kl(q.sample, bad_logpdf, lambda x: np.zeros(x.shape[0]), 10, 5)

    def test_rejects_zero_samples(self):
        q = g(0, 1)
        with pytest.raises(ValueError):
            mc_kl(q.sample, lambda x: x[:, 0], lambda x: x[:, 0], 0, 5)


class TestJsgMc:
    def test_alpha_zero_matches_plain_kl_estimate(self):
        q, p = g(5, 1), g(0, 1)
        est = jsg_mc(q, p, 0.0, 2000, 21)
        se = 5.0 / math.sqrt(2000)
        assert abs(est - 12.5) < 3 * se

    def test_converges_to_closed_form(self):
        q, p = g(5, 1), g(0, 1)
        closed = jsg_gaussian_closed(q, p, 0.5)
        errs = [abs(jsg_mc(q, p, 0.5, 600, s) - closed) / closed for s in range(20)]
        assert np.mean(errs) <= 0.05

    def test_identical_inputs_near_zero(self):
        q = g(0.5, 0.3)
        assert jsg_mc(q, q, 0.5, 200, 9) == pytest.approx(0.0, abs=1e-10)

    def test_million_samples_below_half_percent(self):
        # SE of each expectation is 2.5/sqrt(n), so 1e6 samples sit well inside 0.5%
        q, p = g(5, 1), g(0, 1)
        closed = jsg_gaussian_closed(q, p, 0.5)
        err = abs(jsg_mc(q, p, 0.5, 1_000_000, 3) - closed) / closed
        assert err < 0.005

    def test_swap_symmetry_with_stream_pair(self):
        q, p = g(1.0, 0.4), g(-0.5, 1.5)
        a = jsg_mc(q, p, 0.5, 300, streams=(101, 202))
        b = jsg_mc(p, q, 0.5, 300, streams=(202, 101))
        assert a == pytest.approx(b, rel=1e-12)

    def test_deterministic(self):
        q, p = g(1.0, 0.4), g(-0.5, 1.5)
        assert jsg_mc(q, p, 0.3, 100, 7) == jsg_mc(q, p, 0.3, 100, 7)

    def test_seed_and_streams_are_exclusive(self):
        q, p = g(1.0, 0.4), g(-0.5, 1.5)
        with pytest.raises(ValueError):
            jsg_mc(q, p, 0.3, 10, 7, streams=(1, 2))
        with pytest.raises(ValueError):
            jsg_mc(q, p, 0.3, 10)

    def test_prefix_sampling(self):
        # the first n draws are shared across budgets for a fixed seed
        q, p = g(2.0, 1.0), g(0.0, 1.0)
        small = jsg_mc(q, p, 0.5, 100, 55)
        assert small == jsg_mc(q, p, 0.5, 100, 55)


class TestJsaMc:
    def test_identical_near_zero(self):
        q = g(0.2, 0.8)
        assert jsa_mc(q, q, 0.5, 400, 17) == pytest.approx(0.0, abs=1e-10)

    def test_alpha_zero_reduces_to_kl_estimate(self):
        q, p = g(5, 1), g(0, 1)
        est = jsa_mc(q, p, 0.0, 2000, 23)
        se = 5.0 / math.sqrt(2000)
        assert abs(est - 12.5) < 3 * se

    def test_bounded_and_matches_quadrature(self):
        q, p = g(5, 1), g(0, 1)
        vals = np.array([jsa_mc(q, p, 0.5, 100_000, s) for s in range(8)])
        quad = quadrature_jsa(5, 1, 0, 1, 0.5)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - quad) < 3 * se
        assert vals.mean() <= jsa_bound(0.5) + 3 * se

    def test_swap_symmetry_with_stream_pair(self):
        q, p = g(1.0, 0.4), g(-0.5, 1.5)
        a = jsa_mc(q, p, 0.5, 300, streams=(5, 6))
        b = jsa_mc(p, q, 0.5, 300, streams=(6, 5))
        assert a == pytest.approx(b, rel=1e-12)

    def test_multivariate_bounded(self):
        rng = np.random.default_rng(31)
        q = DiagonalGaussian(rng.normal(size=20), np.exp(rng.normal(size=20)))
        p = DiagonalGaussian(rng.normal(size=20), np.exp(rng.normal(size=20)))
        est = jsa_mc(q, p, 0.5, 20_000, 77)
        assert est <= jsa_bound(0.5) + 0.02


class TestDominance:
    def test_threshold_reference_values(self):
        q, p = g(0, 0.01), g(0, 0.1)
        assert alpha_threshold(q, p) == pytest.approx(0.346317306912, rel=1e-9)
        assert alpha_threshold(p, q) == pytest.approx(1.653682693088, rel=1e-9)

    def test_symmetric_pair_gives_one(self):
        q, p = g(0, 1), g(5, 1)  # equal KL both ways
        assert alpha_threshold(q, p) == pytest.approx(1.0, rel=1e-12)

    def test_identical_pair_is_undefined(self):
        q = g(0, 1)
        with pytest.raises(ValueError):
            alpha_threshold(q, q)

    def test_threshold_nonnegative_and_variance_equivalence(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            q, p = random_pair(rng)
            thr = alpha_threshold(q, p)
            assert thr >= 0.0
            assert (thr < 1.0) == variance_condition_holds(q, p)

    def test_variance_condition_cases(self):
        assert variance_condition_holds(g(0, 0.01), g(0, 0.1)) is True
        assert variance_condition_holds(g(0, 0.1), g(0, 0.1)) is False
        assert variance_condition_holds(g(0, 0.1), g(0, 0.01)) is False

    def test_variance_condition_expression_matches_kl_ordering(self):
        # ln[(1/gamma^2) exp(gamma - 1/gamma)] + (dmu^2/vq)(1 - 1/gamma) > 0
        # holds exactly when KL(p||q) > KL(q||p)
        rng = np.random.default_rng(43)
        for _ in range(1000):
            q, p = random_pair(rng)
            gamma = p.var[0] / q.var[0]
            dmu2 = (p.mu[0] - q.mu[0]) ** 2
            # expanded in log space: gamma - 1/gamma - 2*ln(gamma)
            expr = gamma - 1 / gamma - 2 * math.log(gamma) + dmu2 / q.var[0] * (1 - 1 / gamma)
            assert (expr > 0) == (kl_gaussian(p, q) > kl_gaussian(q, p))

    def test_dominates_matches_threshold_at_unit_lambda(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            q, p = random_pair(rng)
            thr = alpha_threshold(q, p)
            alpha = rng.uniform(0, 1)
            assert jsg_dominates_kl(q, p, alpha, 1.0) == (alpha > thr)

    def test_dominates_edge_cases(self):
        q, p = g(0, 0.01), g(0, 0.1)
        thr = alpha_threshold(q, p)
        assert jsg_dominates_kl(q, p, thr + 1e-6, 1.0)
        assert not jsg_dominates_kl(q, p, 0.0, 1.0)
        assert jsg_dominates_kl(q, p, 0.0, 10.0)


class TestGrowthCurve:
    def test_quadratic_coefficients(self):
        mus = np.linspace(-1, 1, 41)
        jsg_vals = [jsg_gaussian_closed(g(m, 0.01), g(0, 0.1), 0.5) for m in mus]
        kl_vals = [kl_gaussian(g(m, 0.01), g(0, 0.1)) for m in mus]
        c_jsg = fit_quadratic_coefficient(mus, jsg_vals)
        c_kl = fit_quadratic_coefficient(mus, kl_vals)
        assert c_jsg == pytest.approx(11.477272727, rel=1e-6)
        assert c_kl == pytest.approx(5.0, rel=1e-6)
        assert c_jsg > c_kl


class TestBoundedness:
    def test_quadrature_respects_bound_on_random_pairs(self):
        # a reduced randomized sweep; the full 1000-pair suite runs in acceptance
        rng = np.random.default_rng(53)
        for _ in range(60):
            q, p = random_pair(rng)
            vals = quadrature_jsa(q.mu[0], q.sigma[0], p.mu[0], p.sigma[0], [0.1, 0.5, 0.9])
            for alpha, val in zip((0.1, 0.5, 0.9), vals.tolist()):
                assert val <= jsa_bound(alpha) + 1e-9


class TestDivergenceConfig:
    def test_validation(self):
        DivergenceConfig(alpha=0.5, lam=2.0, mc_samples=3, seed=1)
        with pytest.raises(ValueError):
            DivergenceConfig(alpha=1.5)
        with pytest.raises(ValueError):
            DivergenceConfig(lam=-1.0)
        with pytest.raises(ValueError):
            DivergenceConfig(mc_samples=0)
        with pytest.raises(ValueError):
            DivergenceConfig(seed=-1)
