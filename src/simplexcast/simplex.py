"""Probability vectors on the simplex: construction, smoothing, mixing,
isometric log-ratio coordinates, ordered-support moments, the softmax and
its reverse pass, and the causal sequence primitives that the encoder, the
baselines and the aliasing diagnostic share.

A distribution is represented as a 1-D float64 numpy array with nonnegative
entries summing to one; a sequence of them is a (T, D) array. `normalize`,
`smooth`, `ilr_forward` and `ilr_inverse` work over the last axis, so they
take one distribution or a whole block. Support bins are indexed 1..D
throughout, so the mean of a point mass at bin k is k.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidValue

SUM_TOL = 1e-9

Dist = NDArray[np.float64]


def as_dist(values) -> Dist:
    """Validate (and if slightly off, renormalize) a vector as a distribution.

    Inputs whose sum deviates from 1 by more than SUM_TOL are renormalized
    rather than rejected.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise InvalidValue(f"expected 1-D vector with D >= 2, got shape {v.shape}")
    if np.any(v < 0):
        raise InvalidValue("distribution has negative entries")
    s = v.sum()
    if s <= 0:
        raise InvalidValue("distribution has zero total mass")
    if abs(s - 1.0) > SUM_TOL:
        v = v / s
    return v


def normalize(raw) -> Dist:
    """Normalize nonnegative masses to distributions over the last axis; a
    negative entry or a total mass of zero is an InvalidValue. Each row of
    a block is summed as its own 1-D vector would be."""
    v = np.asarray(raw, dtype=np.float64)
    if np.any(v < 0):
        raise InvalidValue("raw masses contain negative entries")
    s = v.sum(axis=-1, keepdims=True)
    if np.any(s == 0):
        raise InvalidValue("raw masses sum to zero")
    return v / s


def smooth(p: Dist, eps: float = 1e-8) -> Dist:
    """Floor distributions (last axis) away from zero: (p + eps) / (1 + D*eps)."""
    if eps <= 0:
        raise InvalidValue("eps must be positive")
    p = np.asarray(p, dtype=np.float64)
    return (p + eps) / (1.0 + p.shape[-1] * eps)


@lru_cache(maxsize=64)
def helmert_basis(d: int) -> NDArray[np.float64]:
    """Orthonormal contrast basis ((D-1) x D): row i contrasts the first i
    parts against part i+1."""
    rows = []
    for i in range(1, d):
        row = np.zeros(d)
        row[:i] = 1.0 / i
        row[i] = -1.0
        row *= np.sqrt(i / (i + 1.0))
        rows.append(row)
    return np.array(rows)


def ilr_forward(p: Dist) -> NDArray[np.float64]:
    """Isometric log-ratio coordinates of interior points over the last
    axis: (..., D) -> (..., D-1)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0):
        raise InvalidValue("ilr requires strictly positive entries; smooth first")
    logp = np.log(p)
    clr = logp - logp.mean(axis=-1, keepdims=True)
    # a stacked mat-vec gives each row the bytes of the 1-D product;
    # clr @ H.T does not
    return (helmert_basis(p.shape[-1]) @ clr[..., None])[..., 0]


def ilr_inverse(z, d: int) -> Dist:
    """Inverse ilr over the last axis, (..., D-1) -> (..., D): softmax of the
    basis-expanded coordinates."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] != d - 1:
        raise InvalidValue(f"expected {d - 1} coordinates, got shape {z.shape}")
    # stacked, as in ilr_forward: each row has the bytes of the 1-D product
    return softmax((helmert_basis(d).T @ z[..., None])[..., 0])


def softmax(x, axis: int = -1) -> NDArray[np.float64]:
    """Softmax over one axis, shifted by its max so exp cannot overflow."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(s, g, axis: int = -1) -> NDArray[np.float64]:
    """The gradient of the softmax logits from its output s and output gradient g."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def history_windows(steps, w: int) -> NDArray[np.float64]:
    """Last-w window ending at every position, (T, D) -> (T, w*D): row t is
    steps[t-w+1 : t+1] oldest first, zero-padded on the left, flattened."""
    steps = np.asarray(steps, dtype=np.float64)
    t_len, d = steps.shape
    padded = np.concatenate([np.zeros((w - 1, d)), steps])
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=0)  # (T, D, w)
    return windows.transpose(0, 2, 1).reshape(t_len, w * d)


def smoothed_levels(x, alpha) -> NDArray[np.float64]:
    """Exponential-smoothing level after each row of x (T, ...):
    level[0] = x[0], level[t] = alpha*x[t] + (1-alpha)*level[t-1]. alpha is a
    scalar or broadcasts against a row."""
    x = np.asarray(x, dtype=np.float64)
    levels = np.empty_like(x)
    levels[0] = x[0]
    for t in range(1, len(x)):
        levels[t] = alpha * x[t] + (1 - alpha) * levels[t - 1]
    return levels


def support_bins(d: int) -> NDArray[np.float64]:
    return np.arange(1, d + 1, dtype=np.float64)


@dataclass
class SimplexSeries:
    """A time-indexed sequence of distributions.

    steps has shape (T, D); loss_mask has length T-1 and marks the scored
    one-step targets (mask[t] scores the transition steps[t] -> steps[t+1]).
    """

    id: str
    ordered: bool
    steps: NDArray[np.float64]
    loss_mask: NDArray[np.bool_] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.float64)
        if self.steps.ndim != 2 or self.steps.shape[1] < 2:
            raise InvalidValue(f"steps must be (T, D>=2), got {self.steps.shape}")
        if self.loss_mask is None:
            self.loss_mask = np.ones(len(self.steps) - 1, dtype=bool)
        else:
            self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        if self.loss_mask.shape != (len(self.steps) - 1,):
            raise InvalidValue(
                f"loss_mask length {self.loss_mask.shape} != T-1 = {len(self.steps) - 1}"
            )

    @property
    def dim(self) -> int:
        return self.steps.shape[1]

    def __len__(self) -> int:
        return len(self.steps)
