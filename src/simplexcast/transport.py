"""The anchored-transport operator and radius-1 local stochastic transport.

A transport kernel is a D x 3 row-stochastic matrix K(j, o) over offsets
o in {-1, 0, +1}; applying it moves mass at most one bin, with offsets
clipped into {1..D} at the boundary. The mean-shift budget gate scales the
transport strength so that the realized support-mean displacement stays
within B = delta_mu + delta_sigma * std_support(a).

`cast_step` (anchor, transport, budget gate, mix) and
`operator_regularizer` are the only implementation of the operator; the
model trains and predicts through them. Both work on the last axis, so they
take one distribution (D,) or a batch (B, D) with one operator per row.
Each computes its block in numpy and registers one tape node whose backward
is written by hand (the custom vector-Jacobian-product pattern); the two
backwards share one reverse chain through the mean shift and the budget.
`apply_transport` and `TransportKernel` define scenario successors and
serve as independent numpy references in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .autodiff import Var, unbroadcast
from .errors import DimensionMismatch
from .simplex import Dist, std_support, support_bins


@dataclass(frozen=True)
class TransportKernel:
    """Per-bin offset probabilities, rows[j] = (left, stay, right)."""

    rows: NDArray[np.float64]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise DimensionMismatch(f"kernel rows must be (D, 3), got {rows.shape}")
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("kernel rows must be nonnegative and sum to 1")

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @staticmethod
    def identity(d: int) -> "TransportKernel":
        rows = np.zeros((d, 3))
        rows[:, 1] = 1.0
        return TransportKernel(rows)

    @staticmethod
    def pure_shift(d: int, direction: int) -> "TransportKernel":
        """All mass moves one bin left (direction=-1) or right (+1)."""
        rows = np.zeros((d, 3))
        rows[:, 1 + direction] = 1.0
        return TransportKernel(rows)


@dataclass(frozen=True)
class BudgetParams:
    delta_mu: float = 0.25
    delta_sigma: float = 0.10
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.delta_mu < 0 or self.delta_sigma < 0:
            raise ValueError("budget coefficients must be nonnegative")

    def budget(self, a: Dist) -> float:
        return self.delta_mu + self.delta_sigma * std_support(a)


def shift_mass(left: np.ndarray, stay: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Accumulate per-bin offset masses into destination bins of the last
    axis with boundary clipping. Shared with the differentiable model path."""
    out = stay.copy()
    out[..., :-1] += left[..., 1:]
    out[..., 0] += left[..., 0]
    out[..., 1:] += right[..., :-1]
    out[..., -1] += right[..., -1]
    return out


def apply_transport(kernel: TransportKernel, a: Dist) -> Dist:
    """(T a)(k) = sum_j a(j) sum_o K(j,o) 1{k = clip(j+o, 1, D)}."""
    a = np.asarray(a, dtype=np.float64)
    if kernel.dim != a.size:
        raise DimensionMismatch(f"kernel dim {kernel.dim} != dist dim {a.size}")
    m = a[:, None] * kernel.rows
    return shift_mass(m[:, 0], m[:, 1], m[:, 2])


# the offsets whose squared mass the prior's off-identity term sums
_OFF_IDENTITY = np.array([1.0, 0.0, 1.0])


def _shift_mass_vjp(g: np.ndarray) -> np.ndarray:
    """The gradients of `shift_mass` for its (left, stay, right) inputs,
    stacked on a new last axis: (..., D) -> (..., D, 3)."""
    out = np.empty(g.shape + (3,))
    out[..., 0, 0] = g[..., 0]
    out[..., 1:, 0] = g[..., :-1]
    out[..., 1] = g
    out[..., -1, 2] = g[..., -1]
    out[..., :-1, 2] = g[..., 1:]
    return out


def cast_step(p, r, lam, kernel, rho, budget: BudgetParams) -> dict:
    """One anchored-transport transition: anchor a = lam*p + (1-lam)*r, then
    mix in the radius-1 transport of a with the strength rho scaled down by
    the mean-shift budget gate. Arguments are tape Vars or plain arrays;
    kernel=None means anchor only (unordered supports, or the anchor_only
    variant). This is the one implementation that training, inference and
    the theory oracle run.

    p and r are (..., D): one distribution, or a batch (B, D) with one
    transition per row. lam and rho are per row (shape (...), or scalars
    shared by every row) and the kernel is (..., D, 3) or one (D, 3) kernel
    for every row.

    The step is computed in numpy and registers one tape node, p_hat, whose
    parents are (p, r, lam) without a kernel and (p, r, lam, kernel, rho)
    with one. Its backward is written by hand, with the rules of the
    elementwise derivation: the 1e-18 inside the support std, the sign of
    delta_mu, and no gradient through the gate where it is clipped at 1.

    Returns the parts by name: a, ta, kernel, rho, rho_eff, delta_mu,
    budget and p_hat as Vars, only p_hat (a without a kernel) on the tape;
    the transport entries are None without a kernel. The per-row entries
    rho_eff, delta_mu and budget have shape (...). With a kernel, `chain`
    is the reverse chain through delta_mu and the budget that
    `operator_regularizer` shares."""
    p, r, lam = Var.lift(p), Var.lift(r), Var.lift(lam)
    lam_c = lam.data[..., None]
    a = lam_c * p.data + (1.0 - lam_c) * r.data

    def anchor_grads(g_a):
        """(p, r, lam) gradients from one of a."""
        return (
            g_a * lam_c if p.requires_grad else None,
            g_a * (1.0 - lam_c) if r.requires_grad else None,
            unbroadcast(np.sum(g_a * (p.data - r.data), axis=-1), lam.shape)
            if lam.requires_grad else None,
        )

    parts = dict.fromkeys(("ta", "kernel", "rho", "rho_eff", "delta_mu", "budget"))
    if kernel is None:
        a_var = Var(a, (p, r, lam), anchor_grads)
        parts.update(a=a_var, p_hat=a_var)
        return parts

    kernel, rho = Var.lift(kernel), Var.lift(rho)
    k = kernel.data
    m = a[..., None] * k
    ta = shift_mass(m[..., 0], m[..., 1], m[..., 2])
    bins = support_bins(a.shape[-1])
    centered = bins - (a @ bins)[..., None]
    sigma = np.sqrt((a * centered * centered).sum(axis=-1) + 1e-18)
    b = budget.delta_mu + budget.delta_sigma * sigma
    delta_mu = (ta - a) @ bins
    den = np.abs(delta_mu) + budget.epsilon
    ratio = b / den
    binds = ratio < 1.0  # the budget scales rho down; elsewhere the gate is 1
    gate = np.where(binds, ratio, 1.0)
    rho_eff = rho.data * gate
    re = rho_eff[..., None]
    p_hat = (1.0 - re) * a + re * ta

    def chain(g_a, g_ta, g_dm, g_b, g_k):
        """(p, r, lam, kernel) gradients from those of a, ta, delta_mu, the
        budget and the kernel, in the layout of a and of a * kernel; g_a
        and g_ta are written into."""
        g_dm_bins = g_dm[..., None] * bins
        g_ta += g_dm_bins
        g_a -= g_dm_bins
        g_var = (budget.delta_sigma * g_b / (2.0 * sigma))[..., None]
        g_centered = 2.0 * g_var * a * centered
        g_a += g_var * centered * centered
        g_a -= g_centered.sum(axis=-1)[..., None] * bins
        g_m = _shift_mass_vjp(g_ta)
        g_a += (g_m * k).sum(axis=-1)
        g_k = g_k + a[..., None] * g_m
        return anchor_grads(g_a) + (
            unbroadcast(g_k, kernel.shape) if kernel.requires_grad else None,
        )

    def back(g):
        g_re = np.sum(g * (ta - a), axis=-1)
        g_ratio = g_re * rho.data * binds
        g_abs = -g_ratio * b / (den * den)
        grads = chain(g * (1.0 - re), g * re, g_abs * np.sign(delta_mu), g_ratio / den, 0.0)
        return grads + (unbroadcast(g_re * gate, rho.shape) if rho.requires_grad else None,)

    parts.update(a=Var.lift(a), ta=Var.lift(ta), kernel=kernel, rho=rho,
                 rho_eff=Var.lift(rho_eff), delta_mu=Var.lift(delta_mu), budget=Var.lift(b),
                 chain=chain, p_hat=Var(p_hat, (p, r, lam, kernel, rho), back))
    return parts


def operator_regularizer(parts, weights) -> Var | None:
    """Target-free operator prior on the parts of a cast_step: weighted sum
    of transport strength, off-identity mass, neighbor roughness, and
    relative mean shift, one value per row. One tape node with the parents
    of the step's p_hat; its backward reaches them through the step's
    `chain`. None when the step had no transport."""
    kernel = parts["kernel"]
    if kernel is None:
        return None
    w_strength, w_offid, w_smooth, w_shift = weights
    k, rho = kernel.data, parts["rho"]
    dm, b = parts["delta_mu"].data, parts["budget"].data
    off_id = (k[..., 0] * k[..., 0]).sum(axis=-1) + (k[..., 2] * k[..., 2]).sum(axis=-1)
    dk = k[..., :-1, :] - k[..., 1:, :]
    smoothness = (dk * dk).sum(axis=(-2, -1))
    ratio = dm / b
    prior = (w_strength * rho.data + w_offid * off_id + w_smooth * smoothness
             + w_shift * (ratio * ratio))

    def back(g):
        g_row = g[..., None, None]
        g_k = (2.0 * w_offid) * g_row * k * _OFF_IDENTITY
        g_dk = (2.0 * w_smooth) * g_row * dk
        g_k[..., :-1, :] += g_dk
        g_k[..., 1:, :] -= g_dk
        g_ratio = (2.0 * w_shift) * g * ratio
        a = parts["a"].data
        grads = parts["chain"](np.zeros_like(a), np.zeros_like(a), g_ratio / b,
                               -g_ratio * dm / (b * b), g_k)
        return grads + (unbroadcast(w_strength * g, rho.shape) if rho.requires_grad else None,)

    return Var(prior, parts["p_hat"].parents, back)
