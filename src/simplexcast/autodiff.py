"""Minimal reverse-mode automatic differentiation over numpy arrays: the
tape core, `Var` and its `backward`.

The forecaster registers one node per training step (`model.loss_var`):
`Var(value, parents, backward)` over one leaf, the parameter buffer, whose
backward maps the node's gradient to one gradient per parent. Gradients are
accumulated on leaf nodes after ``backward`` on a scalar output. An operand
with ``requires_grad`` False is a constant: its gradient may be returned as
None, and ``backward`` ignores None. The tape has no operator overloads;
the one-op-per-node reference that the forecaster's reverse passes are
tested against lives in ``tests/tape_reference.py``.

Every backward rule returns gradients in its parents' shapes, and a node's
first gradient contribution is stored as-is, so no backward rule may write
into the gradient it receives.
"""
from __future__ import annotations

import numpy as np


class Var:
    """A node in the computation tape."""

    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad")

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
