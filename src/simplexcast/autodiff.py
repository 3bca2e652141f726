"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations needed by the forecaster are implemented: elementwise
arithmetic with broadcasting, matmul (batched over leading axes, as numpy
broadcasts them), reshape, indexing, sum, log/sigmoid/softmax,
abs/sqrt/clipping, and the boundary-clipped radius-1 mass shift over the
last axis. Gradients are accumulated on leaf nodes after ``backward`` on a
scalar output. An operand with ``requires_grad`` False is a constant: matmul
skips its gradient, returning None, and ``backward`` ignores None.

When one matmul operand is a 2-D matrix shared across a batched other
operand (a weight applied to every row of a batch), its gradient is one
``einsum`` of the upstream gradient with the other operand over the
flattened batch axes. It equals summing the (batch, m, n) per-item products,
which is never built. Every backward rule returns gradients in its parents'
shapes, and a node's first gradient contribution is stored as-is, so no
backward rule may write into the gradient it receives.
"""
from __future__ import annotations

import numpy as np


def _batch_flat(x: np.ndarray) -> np.ndarray:
    """(..., m, n) -> (batch, m, n), every leading axis folded into one."""
    return x.reshape(-1, *x.shape[-2:])


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
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
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        out._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Var(-self.data, (self,))
        out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-Var.lift(other))

    def __rsub__(self, other):
        return Var.lift(other) + (-self)

    def __mul__(self, other):
        other = Var.lift(other)
        out = Var(self.data * other.data, (self, other))

        def back(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Var.lift(other)
        out = Var(self.data / other.data, (self, other))

        def back(g):
            return (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / other.data**2, other.shape),
            )

        out._backward = back
        return out

    def __rtruediv__(self, other):
        return Var.lift(other) / self

    def __matmul__(self, other):
        other = Var.lift(other)
        out = Var(self.data @ other.data, (self, other))
        a, b = self.data, other.data

        def back(g):
            # promote 1-D operands to matrices as numpy does, then apply the
            # batched rule; the gradient of a constant operand is skipped, and
            # a matrix shared across the batch contracts over the batch axes
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g = np.asarray(g)
            if b.ndim == 1:
                g = g[..., None]
            if a.ndim == 1:
                g = np.expand_dims(g, -2)
            ga = gb = None
            if self.requires_grad:
                if a2.ndim == 2 and b2.ndim > 2:
                    ga = np.einsum("bin,bjn->ij", _batch_flat(g), _batch_flat(b2))
                else:
                    ga = _unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape)
                ga = ga.reshape(a.shape)
            if other.requires_grad:
                if b2.ndim == 2 and a2.ndim > 2:
                    gb = np.einsum("bmi,bmj->ij", _batch_flat(a2), _batch_flat(g))
                else:
                    gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape)
                gb = gb.reshape(b.shape)
            return ga, gb

        out._backward = back
        return out

    def __rmatmul__(self, other):
        return Var.lift(other) @ self

    def __getitem__(self, idx):
        out = Var(self.data[idx], (self,))
        basic = all(
            i is None or i is Ellipsis or isinstance(i, (int, slice))
            for i in (idx if isinstance(idx, tuple) else (idx,))
        )

        def back(g):
            full = np.zeros_like(self.data)
            if basic:  # a basic index selects each element at most once
                full[idx] += g
            else:
                np.add.at(full, idx, g)
            return (full,)

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

    def log(self):
        out = Var(np.log(self.data), (self,))
        out._backward = lambda g: (g / self.data,)
        return out

    def sqrt(self):
        r = np.sqrt(self.data)
        out = Var(r, (self,))
        out._backward = lambda g: (g / (2.0 * r),)
        return out

    def abs(self):
        out = Var(np.abs(self.data), (self,))
        out._backward = lambda g: (g * np.sign(self.data),)
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out = Var(s, (self,))
        out._backward = lambda g: (g * s * (1.0 - s),)
        return out

    def softmax(self, axis=-1):
        x = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(x)
        s = e / e.sum(axis=axis, keepdims=True)
        out = Var(s, (self,))

        def back(g):
            dot = (g * s).sum(axis=axis, keepdims=True)
            return (s * (g - dot),)

        out._backward = back
        return out

    def clip_max(self, hi: float):
        """min(x, hi); zero gradient where clipped."""
        mask = self.data < hi
        out = Var(np.where(mask, self.data, hi), (self,))
        out._backward = lambda g: (g * mask,)
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


def shift_mass_var(left: Var, stay: Var, right: Var) -> Var:
    """Differentiable boundary-clipped radius-1 mass accumulation over the
    last axis, matching transport.shift_mass."""
    from .transport import shift_mass

    out_data = shift_mass(left.data, stay.data, right.data)
    out = Var(out_data, (left, stay, right))

    def back(g):
        gl = np.empty_like(g)
        gl[..., 0] = g[..., 0]
        gl[..., 1:] = g[..., :-1]
        gr = np.empty_like(g)
        gr[..., -1] = g[..., -1]
        gr[..., :-1] = g[..., 1:]
        return gl, g.copy(), gr

    out._backward = back
    return out
