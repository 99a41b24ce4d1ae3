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
        with pytest.raises(ValueError):
            quadrature_jsa(*args, [0.1, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        calls = []

        def f(x, k):
            calls.append(x.size)
            y = np.sqrt(x) * (k + 1)  # the kink at 0 takes many refinement rounds
            if len(calls) == 4:
                y[-1] = bad  # a quarter point of the last integral's last panel
            return y

        with pytest.raises(NumericError, match="non-finite"):
            _adaptive_simpson(f, np.array([0.0, 0.5, 1.0]), 1e-12, n_integrals=3)
        assert len(calls) == 4

    def test_non_convergence_raises(self):
        with pytest.raises(NumericError, match="did not converge"):
            _adaptive_simpson(lambda x, k: np.sqrt(x), np.array([0.0, 1.0]), 1e-30, max_rounds=5)


# (criterion 4 pair index, q_mu, q_sigma, p_mu, p_sigma, alpha index, value) as float.hex:
# every 50th of criterion 4's pairs (seed 1004) at one of its alphas 0.1, ..., 0.9,
# pinned from the one-integral-per-call oracle the stacked one replaced
CRITERION_4_VALUES = [
    (0, '-0x1.7f52e55cd1a14p+1', '0x1.690c036385685p-4', '-0x1.1c0b35f8a418ep+1', '0x1.e6968d1c3a92bp-3', 0, '0x1.00eba47cd4263p+1'),
    (50, '-0x1.ecfc09b6972dcp+0', '0x1.5aa622fe94d48p+1', '0x1.51e8cc0f2dec8p-1', '0x1.2e58deb5c6664p+1', 1, '0x1.f26ed72ddda5fp-3'),
    (100, '-0x1.85df21246269dp+0', '0x1.41c346be8ad61p+0', '-0x1.baf03f48b95c0p-4', '0x1.580f375b82b69p-4', 2, '0x1.8886591f7e10dp-1'),
    (150, '0x1.246f98cbc6528p+0', '0x1.c6fb2adc6ee6cp+0', '0x1.3e47c3d675e82p+1', '0x1.e985c9246388ap-5', 3, '0x1.459d74190793ap-1'),
    (200, '-0x1.67cc2763e199ap+1', '0x1.32dddd33cbd51p-3', '0x1.406ee98628958p+0', '0x1.17277fa5f6e8cp-3', 4, '0x1.62e42fefd6c4cp-1'),
    (250, '-0x1.d60642f42fcf4p-1', '0x1.bf1bd19863a30p-3', '-0x1.f5abaa750d618p+0', '0x1.863ca292e5282p-2', 5, '0x1.454b7c9313a45p-1'),
    (300, '-0x1.55ddcfe4bed20p+1', '0x1.ee9d84df0e297p-2', '0x1.13978292c11d0p+0', '0x1.9f8a9b3bd6bd1p+0', 6, '0x1.a031cc52ce133p-1'),
    (350, '0x1.37a469d46a60ap+1', '0x1.3636bae83fe99p-4', '0x1.671ff51271840p+0', '0x1.54bb94d8ec77bp-2', 7, '0x1.4cc8a2dcde65ap+0'),
    (400, '0x1.74c248f62c608p+0', '0x1.5d62b5de03e7bp+0', '0x1.e3887a9369c98p-1', '0x1.424b033608190p-4', 8, '0x1.7ff9bc7c3246fp+0'),
    (450, '-0x1.dd57f4eac5340p-2', '0x1.876d8351e0666p-2', '0x1.6243ec1953290p-2', '0x1.07aca8360797bp-4', 0, '0x1.e1fab6193e853p+0'),
    (500, '0x1.f376b90a26810p+0', '0x1.7270729529cc1p-4', '0x1.4664ec136d94cp+1', '0x1.5f26f9d99fce0p-1', 1, '0x1.c74897b2caf17p-1'),
    (550, '0x1.1bbd46310837cp+0', '0x1.6cb5bbcf3cbb1p-2', '0x1.58b17356dbf14p+1', '0x1.a19a893c2bd44p-2', 2, '0x1.c4d32aa5c99bap-1'),
    (600, '-0x1.05ba1398a874ep+1', '0x1.db3578e073e15p-3', '0x1.79bd08aea9eeap+1', '0x1.6a19685588eeep+0', 3, '0x1.8004ea2eeeba3p-1'),
    (650, '0x1.f675c6840a5e4p+0', '0x1.1d108bd926b9bp+1', '-0x1.5d059c6182f58p+1', '0x1.0343d9245f8b8p-2', 4, '0x1.42e2203b80a28p-1'),
    (700, '-0x1.afdc3cdc26f5ap+0', '0x1.ba1c531f61b08p-5', '-0x1.db2a451727c12p+0', '0x1.0db0357d62a67p+1', 5, '0x1.452632d2599fep-1'),
    (750, '-0x1.473be22d09900p-2', '0x1.d5c202c3d366dp-4', '-0x1.838f2ae1c0b08p-2', '0x1.2bc73c6e76fabp-2', 6, '0x1.b046b318b8accp-3'),
    (800, '-0x1.3675bafbf4c23p+1', '0x1.57c477666463fp+1', '-0x1.d9821271a9158p-1', '0x1.549cca0548d8ap-3', 7, '0x1.072b7bd50a912p+0'),
    (850, '0x1.833170778e790p+0', '0x1.5fe0b1de385d2p-2', '0x1.5c59636e0f444p+1', '0x1.c96699ce636c3p+0', 8, '0x1.2cacc51b6d201p+0'),
    (900, '-0x1.3d43993a1cb0ep+0', '0x1.11ab25484402dp-1', '0x1.7ee6db64f6a20p+1', '0x1.30da92221886ep-1', 0, '0x1.0a82a8631c1a1p+1'),
    (950, '0x1.2202ea916bd0ap+1', '0x1.45ecb21b7bd4dp+1', '-0x1.7d746c934213ap+1', '0x1.766eea9f311a0p-2', 1, '0x1.30914f77d1faep+0'),
]


class TestStackedAlphas:
    PAIR = (0.8, 0.5, -0.2, 1.4)

    @pytest.mark.parametrize("alphas", [
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        [0.0, 0.35, 1.0, 0.5, 0.0, 0.999],
        [1.0],
        [0.0],
    ])
    def test_vector_equals_scalar_calls_exactly(self, alphas):
        vals = quadrature_jsa(*self.PAIR, np.array(alphas))
        assert isinstance(vals, np.ndarray) and vals.shape == (len(alphas),)
        assert vals.tolist() == [quadrature_jsa(*self.PAIR, a) for a in alphas]

    def test_scalar_alpha_returns_float(self):
        assert type(quadrature_jsa(*self.PAIR, 0.3)) is float
        assert type(quadrature_jsa(*self.PAIR, np.float64(0.3))) is float

    def test_empty_vector(self):
        assert quadrature_jsa(*self.PAIR, []).shape == (0,)

    @pytest.mark.parametrize("case", CRITERION_4_VALUES, ids=lambda c: f"pair{c[0]}")
    def test_pinned_criterion_4_values(self, case):
        _, *pair, j, expected = case
        pair = [float.fromhex(v) for v in pair]
        alphas = np.arange(0.1, 0.95, 0.1)
        assert quadrature_jsa(*pair, alphas)[j].hex() == expected
        assert quadrature_jsa(*pair, float(alphas[j])).hex() == expected

    @pytest.mark.parametrize("alphas", [
        [0.5, 1.2], [-0.1, 0.5], [0.1, math.nan, 0.9], [0.2, math.inf], [[0.1, 0.2]],
    ])
    def test_rejects_any_bad_alpha(self, alphas):
        with pytest.raises(ValueError):
            quadrature_jsa(*self.PAIR, alphas)


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
