"""Minimal reverse-mode automatic differentiation over numpy arrays.

A small tape: each Tensor remembers its parents and a closure that accumulates
gradients into them. backward() runs the closures in reverse topological order.
Only the handful of primitives needed by the reparameterized losses are
implemented. Everything is float64.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

__all__ = ["Tensor", "log", "exp", "relu", "softplus", "logaddexp", "logsumexp", "gather_rows",
           "columns"]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus gradient slot and backward closure."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    # defer numpy binary ops to our reflected methods instead of letting
    # ndarray silently treat a Tensor as an object scalar
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # --- graph execution ------------------------------------------------

    def backward(self):
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = np.zeros_like(node.value)
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # --- arithmetic -------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._wrap(other)
        out = Tensor(self.value + other.value, (self, other))

        def back(g):
            self.grad += _unbroadcast(g, self.value.shape)
            other.grad += _unbroadcast(g, other.value.shape)

        out._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.value, (self,))

        def back(g):
            self.grad -= g

        out._backward = back
        return out

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.value * other.value, (self, other))

        def back(g):
            self.grad += _unbroadcast(g * other.value, self.value.shape)
            other.grad += _unbroadcast(g * self.value, other.value.shape)

        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        out = Tensor(self.value / other.value, (self, other))

        def back(g):
            self.grad += _unbroadcast(g / other.value, self.value.shape)
            other.grad += _unbroadcast(-g * self.value / other.value**2, other.value.shape)

        out._backward = back
        return out

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        out = Tensor(self.value**exponent, (self,))

        def back(g):
            self.grad += g * exponent * self.value ** (exponent - 1)

        out._backward = back
        return out

    def __matmul__(self, other):
        """Matrix product of the last two axes, broadcasting any leading (batch) axes."""
        other = self._wrap(other)
        out = Tensor(self.value @ other.value, (self, other))

        def back(g):
            self.grad += _unbroadcast(g @ np.swapaxes(other.value, -1, -2), self.value.shape)
            other.grad += _unbroadcast(np.swapaxes(self.value, -1, -2) @ g, other.value.shape)

        out._backward = back
        return out

    # --- shape ops ----------------------------------------------------------

    def reshape(self, shape):
        out = Tensor(self.value.reshape(shape), (self,))

        def back(g):
            self.grad += g.reshape(self.value.shape)

        out._backward = back
        return out

    def sum(self, axis=None):
        out = Tensor(self.value.sum(axis=axis), (self,))

        def back(g):
            if axis is None:
                self.grad += g
            else:
                self.grad += np.expand_dims(g, axis)

        out._backward = back
        return out


def log(t: Tensor) -> Tensor:
    out = Tensor(np.log(t.value), (t,))

    def back(g):
        t.grad += g / t.value

    out._backward = back
    return out


def exp(t: Tensor) -> Tensor:
    out = Tensor(np.exp(t.value), (t,))

    def back(g):
        t.grad += g * out.value

    out._backward = back
    return out


def relu(t: Tensor) -> Tensor:
    out = Tensor(np.maximum(t.value, 0.0), (t,))

    def back(g):
        t.grad += g * (t.value > 0.0)

    out._backward = back
    return out


def softplus(t: Tensor) -> Tensor:
    """log(1 + exp(x)), overflow-safe; gradient is the logistic sigmoid."""
    out = Tensor(np.logaddexp(0.0, t.value), (t,))

    def back(g):
        t.grad += g * expit(t.value)

    out._backward = back
    return out


def logaddexp(a, b) -> Tensor:
    """Stable log(exp(a) + exp(b)); gradients are the mixture responsibilities."""
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    out = Tensor(np.logaddexp(a.value, b.value), (a, b))

    def back(g):
        a.grad += _unbroadcast(g * expit(a.value - b.value), a.value.shape)
        b.grad += _unbroadcast(g * expit(b.value - a.value), b.value.shape)

    out._backward = back
    return out


def logsumexp(t: Tensor, axis: int) -> Tensor:
    """Stable log-sum-exp reduction along one axis."""
    m = np.max(t.value, axis=axis, keepdims=True)
    val = np.squeeze(m, axis=axis) + np.log(
        np.sum(np.exp(t.value - m), axis=axis)
    )
    out = Tensor(val, (t,))

    def back(g):
        soft = np.exp(t.value - np.expand_dims(val, axis))
        t.grad += np.expand_dims(g, axis) * soft

    out._backward = back
    return out


def gather_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Pick t[..., i, idx[i]] for each row i of the last two axes of t."""
    idx = np.asarray(idx)
    rows = np.arange(t.value.shape[-2])
    out = Tensor(t.value[..., rows, idx], (t,))

    def back(g):
        # each (row, idx[row]) pair occurs once, so plain indexed addition is exact
        t.grad[..., rows, idx] += g

    out._backward = back
    return out


def columns(t: Tensor, cols: slice) -> Tensor:
    """The column slice t[..., cols] of the last axis."""
    out = Tensor(t.value[..., cols], (t,))

    def back(g):
        t.grad[..., cols] += g

    out._backward = back
    return out
