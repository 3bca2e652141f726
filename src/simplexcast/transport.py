"""The anchored-transport operator and radius-1 local stochastic transport.

A transport kernel is a D x 3 row-stochastic matrix K(j, o) over offsets
o in {-1, 0, +1}; applying it moves mass at most one bin, with offsets
clipped into {1..D} at the boundary. The mean-shift budget gate scales the
transport strength so that the realized support-mean displacement stays
within B = delta_mu + delta_sigma * std(a), std(a) the standard deviation of
a over the bins 1..D.

`cast_step` (anchor, transport, budget gate, mix, and the operator's
target-free prior) is the only implementation of the operator; the model
trains and predicts through it. It works on the last axis, so it takes one
distribution (D,) or a batch (B, D) with one operator per row. It runs on
plain arrays and returns its value with its reverse pass, a hand-written
vector-Jacobian product (the custom-VJP pattern) that takes the gradients
of p_hat and of the prior together, so a training step runs one chain
through the mean shift and the budget.
A kernel is a plain (..., D, 3) array here: the model's kernel head makes
valid ones, `theory.AliasingScenario` checks the (K, D, 3) block of its
regimes, and tests/transport_reference.py keeps a checked one-kernel form
as the reference, with the budget formula written without the gate's epsilon.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue
from .simplex import support_bins


@dataclass(frozen=True)
class BudgetParams:
    delta_mu: float = 0.25
    delta_sigma: float = 0.10
    epsilon: float = 1e-8

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(np.isfinite(x) and x >= 0 for x in (self.delta_mu, self.delta_sigma)):
            raise InvalidValue("budget coefficients must be nonnegative and finite")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidValue(f"budget epsilon must be positive and finite, got {self.epsilon}")


def shift_mass(left: np.ndarray, stay: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Accumulate per-bin offset masses into destination bins of the last
    axis with boundary clipping. Shared by `cast_step` and the theory's
    scenario successors."""
    out = stay.copy()
    out[..., :-1] += left[..., 1:]
    out[..., 0] += left[..., 0]
    out[..., 1:] += right[..., :-1]
    out[..., -1] += right[..., -1]
    return out


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


def cast_step(p, r, lam, kernel, rho, budget: BudgetParams, weights=None) -> dict:
    """One anchored-transport transition: anchor a = lam*p + (1-lam)*r, then
    mix in the radius-1 transport of a with the strength rho scaled down by
    the mean-shift budget gate. kernel=None means anchor only (unordered
    supports, or the anchor_only variant). With `weights`, the four weights
    of (strength, off-identity, smoothness, shift), the step also computes
    its target-free prior: the weighted sum of the transport strength rho,
    the off-identity mass sum K(., -1)^2 + K(., +1)^2, the neighbor
    roughness of the kernel's rows and the squared relative mean shift
    (delta_mu / budget)^2. This is the one implementation that training,
    inference and the theory oracle run.

    p and r are (..., D): one distribution, or a batch (B, D) with one
    transition per row. lam and rho are per row (shape (...), or scalars
    shared by every row) and the kernel is (..., D, 3) or one (D, 3) kernel
    for every row.

    Returns the parts by name as arrays: a, ta, kernel, rho, rho_eff,
    delta_mu, budget, prior and p_hat (a without a kernel); the transport
    entries are None without a kernel, and prior is None without a kernel
    or without weights. The per-row entries rho_eff, delta_mu, budget and
    prior have shape (...). `vjp(g, g_prior=None)` maps a gradient g of
    p_hat, and one g_prior of the prior where the step has one, to those of
    (r, lam, kernel, rho), the last two None without a kernel, in one
    reverse pass through the mean shift and the budget, by the rules of the
    elementwise derivation: the 1e-18 inside the support std, the sign of
    delta_mu, and no gradient through the gate where it is clipped at 1. An
    input with one value per row gets a gradient of its shape; a shared one
    is a constant whose gradient is not read."""
    lam_c = np.asarray(lam, dtype=np.float64)[..., None]
    a = lam_c * p + (1.0 - lam_c) * r

    def anchor_vjp(g_a):
        """(r, lam) gradients from one of a."""
        return g_a * (1.0 - lam_c), np.sum(g_a * (p - r), axis=-1)

    parts = dict.fromkeys(("ta", "kernel", "rho", "rho_eff", "delta_mu", "budget", "prior"))
    if kernel is None:
        parts.update(a=a, p_hat=a, vjp=lambda g, g_prior=None: anchor_vjp(g) + (None, None))
        return parts

    m = a[..., None] * kernel
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
    rho_eff = rho * gate
    re = rho_eff[..., None]
    p_hat = (1.0 - re) * a + re * ta
    if weights is not None:
        w_strength, w_offid, w_smooth, w_shift = weights
        squared = kernel * kernel
        off_id = squared[..., 0].sum(axis=-1) + squared[..., 2].sum(axis=-1)
        dk = kernel[..., :-1, :] - kernel[..., 1:, :]
        roughness = (dk * dk).sum(axis=(-2, -1))
        shift = delta_mu / b
        parts["prior"] = (w_strength * rho + w_offid * off_id + w_smooth * roughness
                          + w_shift * (shift * shift))

    def vjp(g, g_prior=None):
        g_re = np.sum(g * (ta - a), axis=-1)
        g_ratio = g_re * rho * binds
        g_a, g_ta = g * (1.0 - re), g * re
        g_dm = -g_ratio * b / (den * den) * np.sign(delta_mu)
        g_b = g_ratio / den
        g_kernel, g_rho = 0.0, g_re * gate
        if g_prior is not None:
            g_row = g_prior[..., None, None]
            g_kernel = (2.0 * w_offid) * g_row * kernel * _OFF_IDENTITY
            g_dk = (2.0 * w_smooth) * g_row * dk
            g_kernel[..., :-1, :] += g_dk
            g_kernel[..., 1:, :] -= g_dk
            g_shift = (2.0 * w_shift) * g_prior * shift
            g_dm = g_dm + g_shift / b
            g_b = g_b - g_shift * delta_mu / (b * b)
            g_rho = g_rho + w_strength * g_prior
        g_dm_bins = g_dm[..., None] * bins
        g_ta += g_dm_bins
        g_a -= g_dm_bins
        g_var = (budget.delta_sigma * g_b / (2.0 * sigma))[..., None]
        g_centered = 2.0 * g_var * a * centered
        g_a += g_var * centered * centered
        g_a -= g_centered.sum(axis=-1)[..., None] * bins
        g_shifted = _shift_mass_vjp(g_ta)
        g_a += (g_shifted * kernel).sum(axis=-1)
        return anchor_vjp(g_a) + (g_kernel + a[..., None] * g_shifted, g_rho)

    parts.update(a=a, ta=ta, kernel=kernel, rho=rho, rho_eff=rho_eff, delta_mu=delta_mu, budget=b,
                 vjp=vjp, p_hat=p_hat)
    return parts
