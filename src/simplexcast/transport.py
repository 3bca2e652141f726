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
`apply_transport` and `TransportKernel` define scenario successors and
serve as independent numpy references in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .autodiff import Var, shift_mass_var
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


def _col(v: Var) -> Var:
    """A per-row value as a column that broadcasts over the last axis."""
    return v.reshape(v.shape + (1,))


def cast_step(p, r, lam, kernel, rho, budget: BudgetParams) -> dict:
    """One anchored-transport transition on the autodiff tape: anchor
    a = lam*p + (1-lam)*r, then mix in the radius-1 transport of a with the
    strength rho scaled down by the mean-shift budget gate. Arguments are
    tape Vars or plain arrays; kernel=None means anchor only (unordered
    supports, or the anchor_only variant). This is the one implementation
    that training, inference and the theory oracle run.

    p and r are (..., D): one distribution, or a batch (B, D) with one
    transition per row. lam and rho are per row (shape (...), or scalars
    shared by every row) and the kernel is (..., D, 3) or one (D, 3) kernel
    for every row.

    Returns the intermediate Vars by name: a, ta, kernel, rho, rho_eff,
    delta_mu, budget and p_hat; the transport entries are None without a
    kernel. The per-row entries rho_eff, delta_mu and budget have shape
    (...)."""
    p, r, lam = Var.lift(p), Var.lift(r), _col(Var.lift(lam))
    a = lam * p + (1.0 - lam) * r
    parts = dict.fromkeys(("ta", "kernel", "rho", "rho_eff", "delta_mu", "budget"))
    parts.update(a=a, p_hat=a)
    if kernel is None:
        return parts
    kernel, rho = Var.lift(kernel), Var.lift(rho)
    ta = shift_mass_var(a * kernel[..., 0], a * kernel[..., 1], a * kernel[..., 2])

    bins = Var(support_bins(a.shape[-1]), requires_grad=False)
    mu_a = a @ bins
    centered = bins - _col(mu_a)
    sigma = ((a * centered * centered).sum(axis=-1) + 1e-18).sqrt()
    b = budget.delta_mu + budget.delta_sigma * sigma
    delta_mu = (ta - a) @ bins
    gate = (b / (delta_mu.abs() + budget.epsilon)).clip_max(1.0)
    rho_eff = rho * gate
    p_hat = (1.0 - _col(rho_eff)) * a + _col(rho_eff) * ta
    parts.update(ta=ta, kernel=kernel, rho=rho, rho_eff=rho_eff, delta_mu=delta_mu,
                 budget=b, p_hat=p_hat)
    return parts


def operator_regularizer(parts: dict, weights) -> Var | None:
    """Target-free operator prior on the parts of a cast_step: weighted sum
    of transport strength, off-identity mass, neighbor roughness, and
    relative mean shift, one value per row. None when the step had no
    transport."""
    k = parts["kernel"]
    if k is None:
        return None
    w_strength, w_offid, w_smooth, w_shift = weights
    off_id = (k[..., 0] * k[..., 0]).sum(axis=-1) + (k[..., 2] * k[..., 2]).sum(axis=-1)
    dk = k[..., :-1, :] - k[..., 1:, :]
    smoothness = (dk * dk).sum(axis=(-2, -1))
    ratio = parts["delta_mu"] / parts["budget"]
    shift = ratio * ratio
    return (
        w_strength * parts["rho"]
        + w_offid * off_id
        + w_smooth * smoothness
        + w_shift * shift
    )
