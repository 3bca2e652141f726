"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the forecaster needs are implemented: elementwise
addition, multiplication and division with broadcasting, matmul (batched
over leading axes, as numpy broadcasts them), reshape, sum, sigmoid and
softmax. Larger blocks (retrieval, the anchored-transport operator and its
prior, the KL loss) compute their values in numpy and register one node
each, `Var(value, parents, backward)`, with a hand-written backward.
Gradients are accumulated on leaf nodes after ``backward`` on a scalar
output. An operand with ``requires_grad`` False is a constant: its gradient
may be returned as None, and ``backward`` ignores None.

Every backward rule returns gradients in its parents' shapes, and a node's
first gradient contribution is stored as-is, so no backward rule may write
into the gradient it receives.
"""
from __future__ import annotations

import numpy as np


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over one axis, shifted by its max so exp cannot overflow."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(s: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The gradient of the softmax logits, given its output s and the
    gradient g of that output."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


class Var:
    """A node in the computation tape."""

    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad")

    # make numpy defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- graph construction helpers -------------------------------------

    @staticmethod
    def lift(x) -> "Var":
        return x if isinstance(x, Var) else Var(x, requires_grad=False)

    def __add__(self, other):
        other = Var.lift(other)
        out = Var(self.data + other.data, (self, other))

        def back(g):
            return unbroadcast(g, self.shape), unbroadcast(g, other.shape)

        out._backward = back
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = Var.lift(other)
        out = Var(self.data * other.data, (self, other))

        def back(g):
            return (
                unbroadcast(g * other.data, self.shape),
                unbroadcast(g * self.data, other.shape),
            )

        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Var.lift(other)
        out = Var(self.data / other.data, (self, other))

        def back(g):
            return (
                unbroadcast(g / other.data, self.shape),
                unbroadcast(-g * self.data / other.data**2, other.shape),
            )

        out._backward = back
        return out

    def __matmul__(self, other):
        other = Var.lift(other)
        out = Var(self.data @ other.data, (self, other))
        a, b = self.data, other.data

        def back(g):
            # promote 1-D operands to matrices as numpy does, then apply the
            # batched rule; the gradient of a constant operand is skipped
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g = np.asarray(g)
            if b.ndim == 1:
                g = g[..., None]
            if a.ndim == 1:
                g = np.expand_dims(g, -2)
            ga = gb = None
            if self.requires_grad:
                ga = unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape).reshape(a.shape)
            if other.requires_grad:
                gb = unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape).reshape(b.shape)
            return ga, gb

        out._backward = back
        return out

    def reshape(self, *shape):
        out = Var(self.data.reshape(*shape), (self,))
        out._backward = lambda g: (np.reshape(g, self.shape),)
        return out

    def sum(self, axis=None):
        out = Var(self.data.sum(axis=axis), (self,))

        def back(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), self.shape).copy(),)

        out._backward = back
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out = Var(s, (self,))
        out._backward = lambda g: (g * s * (1.0 - s),)
        return out

    def softmax(self, axis=-1):
        s = softmax(self.data, axis)
        out = Var(s, (self,))
        out._backward = lambda g: (softmax_vjp(s, g, axis),)
        return out

    # -- backward pass --------------------------------------------------

    def backward(self):
        if self.data.ndim != 0:
            raise ValueError("backward requires a scalar output")
        topo: list[Var] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node.parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # first contribution: stored as-is (every rule returns its
                    # parent's shape). No rule writes into its incoming
                    # gradient, so sharing a child's buffer is safe.
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

