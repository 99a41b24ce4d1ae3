"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest

from jsbnn import autodiff as ad
from jsbnn.oracles import finite_diff

RNG = np.random.default_rng(2024)


def check_gradient(build, x0, rtol=1e-6):
    """Compare reverse-mode gradient of build(Tensor) against central differences."""
    t = ad.Tensor(x0)
    out = build(t)
    out.backward()
    analytic = t.grad.ravel()

    def f(flat):
        return build(ad.Tensor(flat.reshape(x0.shape))).item()

    numeric = finite_diff(f, x0.ravel())
    scale = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / scale) < rtol


class TestPrimitives:
    def test_add_mul_broadcast(self):
        x0 = RNG.normal(size=(3, 4))
        other = RNG.normal(size=4)
        check_gradient(lambda t: ((t + other) * (t * 2.0 - 1.0)).sum(), x0)

    def test_sub_div(self):
        x0 = RNG.normal(size=5) + 3.0
        other = RNG.normal(size=5) + 4.0
        check_gradient(lambda t: ((other - t) / (t + 10.0)).sum(), x0)
        check_gradient(lambda t: (2.0 / t).sum(), x0)

    def test_pow(self):
        x0 = np.abs(RNG.normal(size=4)) + 0.5
        check_gradient(lambda t: (t**3).sum(), x0)
        check_gradient(lambda t: (t**-1.5).sum(), x0)

    def test_matmul(self):
        x0 = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda t: ((t @ w) ** 2).sum(), x0)
        a = RNG.normal(size=(5, 3))
        check_gradient(lambda t: ((ad.Tensor(a) @ t) ** 2).sum(), x0.copy())

    def test_batched_matmul_broadcasts_leading_axis(self):
        # (n, d) @ (S, d, k) and (S, n, d) @ (d, k): the unbatched side's
        # gradient sums over the sample axis
        x0 = RNG.normal(size=(4, 3))
        w = RNG.normal(size=(5, 3, 2))
        check_gradient(lambda t: ((t @ ad.Tensor(w)) ** 2).sum(), x0)
        check_gradient(lambda t: ((ad.Tensor(x0) @ t) ** 2).sum(), w.copy())
        h0 = RNG.normal(size=(5, 4, 3))
        check_gradient(lambda t: ((t @ ad.Tensor(x0.T)) ** 2).sum(), h0)
        check_gradient(lambda t: ((ad.Tensor(h0) @ t) ** 2).sum(), x0.T.copy())

    def test_columns(self):
        x0 = RNG.normal(size=(3, 7))
        check_gradient(lambda t: (ad.columns(t, slice(2, 5)) ** 2).sum(), x0)
        w = RNG.normal(size=(2, 3))
        check_gradient(
            lambda t: ((ad.columns(t, slice(1, 7)).reshape((3, 2, 3)) * w) ** 2).sum()
            + ad.columns(t, slice(0, 1)).sum(),
            x0,
        )

    def test_reshape(self):
        x0 = RNG.normal(size=6)
        w = RNG.normal(size=(3, 2))
        check_gradient(lambda t: ((t.reshape((2, 3)) @ w) ** 2).sum(), x0)

    def test_log_exp(self):
        x0 = np.abs(RNG.normal(size=5)) + 0.5
        check_gradient(lambda t: ad.log(t).sum(), x0)
        check_gradient(lambda t: ad.exp(t * 0.3).sum(), x0)

    def test_relu(self):
        # keep inputs away from the kink
        x0 = np.array([-2.0, -0.5, 0.7, 1.9])
        check_gradient(lambda t: (ad.relu(t) * 3.0).sum(), x0)

    def test_softplus(self):
        x0 = RNG.normal(size=6) * 3.0
        check_gradient(lambda t: ad.softplus(t).sum(), x0)
        # saturation regions stay finite
        t = ad.Tensor(np.array([-800.0, 800.0]))
        out = ad.softplus(t)
        out.sum().backward()
        assert np.all(np.isfinite(out.value))
        assert np.all(np.isfinite(t.grad))

    def test_logaddexp(self):
        a0 = RNG.normal(size=4)
        b = RNG.normal(size=4)
        check_gradient(lambda t: ad.logaddexp(t, ad.Tensor(b)).sum(), a0)
        check_gradient(lambda t: ad.logaddexp(ad.Tensor(b), t * 2.0).sum(), a0)
        # extreme inputs don't overflow
        t = ad.Tensor(np.array([1000.0, -1000.0]))
        out = ad.logaddexp(t, ad.Tensor(np.array([-1000.0, 1000.0])))
        out.sum().backward()
        assert np.all(np.isfinite(out.value))
        assert np.all(np.isfinite(t.grad))

    def test_logsumexp(self):
        x0 = RNG.normal(size=(4, 3)) * 2.0
        check_gradient(lambda t: ad.logsumexp(t, axis=1).sum(), x0)
        row = np.array([[1000.0, 999.0, 0.0]])
        out = ad.logsumexp(ad.Tensor(row), axis=1)
        assert np.isfinite(out.value).all()

    def test_gather_rows(self):
        x0 = RNG.normal(size=(5, 3))
        idx = np.array([0, 2, 1, 2, 0])
        check_gradient(lambda t: (ad.gather_rows(t, idx) ** 2).sum(), x0)
        # one row pick per sample of a leading (S, n, k) axis
        x3 = RNG.normal(size=(4, 5, 3))
        check_gradient(lambda t: (ad.gather_rows(t, idx) ** 2).sum(), x3)
        picked = ad.gather_rows(ad.Tensor(x3), idx).value
        np.testing.assert_array_equal(picked, np.stack([s[np.arange(5), idx] for s in x3]))

    def test_sum_axis(self):
        x0 = RNG.normal(size=(3, 4))
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x0)
        check_gradient(lambda t: (t.sum(axis=1) ** 2).sum(), x0)

    def test_neg(self):
        x0 = RNG.normal(size=4)
        check_gradient(lambda t: (-t * t).sum(), x0)


class TestGraphMechanics:
    def test_reused_node_accumulates(self):
        t = ad.Tensor(np.array([3.0]))
        out = (t * t + t).sum()  # d/dx (x^2 + x) = 2x + 1
        out.backward()
        np.testing.assert_allclose(t.grad, [7.0], rtol=1e-12)

    def test_deep_chain_no_recursion_error(self):
        t = ad.Tensor(np.array([1.0]))
        node = t
        for _ in range(5000):
            node = node + 1.0
        node.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            t.backward()

    def test_numpy_left_operand(self):
        # ndarray + Tensor must route through Tensor.__radd__, not become object soup
        t = ad.Tensor(np.ones(3))
        out = np.array([1.0, 2.0, 3.0]) + t
        assert isinstance(out, ad.Tensor)
        out2 = np.array([2.0, 2.0, 2.0]) * t
        assert isinstance(out2, ad.Tensor)

    def test_composite_expression(self):
        x0 = np.abs(RNG.normal(size=6)) + 0.2
        check_gradient(
            lambda t: (ad.log(ad.softplus(t) ** 2) + ad.exp(-t * 0.5) / (t + 3.0)).sum(), x0
        )
