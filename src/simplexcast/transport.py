"""The anchored-transport operator and radius-1 local stochastic transport.

A transport kernel is a D x 3 row-stochastic matrix K(j, o) over offsets
o in {-1, 0, +1}; applying it moves mass at most one bin, with offsets
clipped into {1..D} at the boundary. The mean-shift budget gate scales the
transport strength so that the realized support-mean displacement stays
within B = delta_mu + delta_sigma * std(a), std(a) the standard deviation of
a over the bins 1..D.

`cast_step` (anchor, transport, budget gate, mix) and
`operator_regularizer` are the only implementation of the operator; the
model trains and predicts through them. Both work on the last axis, so they
take one distribution (D,) or a batch (B, D) with one operator per row.
Each runs on plain arrays and returns its value with its reverse pass, a
hand-written vector-Jacobian product (the custom-VJP pattern); the two
reverse passes share one chain through the mean shift and the budget.
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


def cast_step(p, r, lam, kernel, rho, budget: BudgetParams) -> dict:
    """One anchored-transport transition: anchor a = lam*p + (1-lam)*r, then
    mix in the radius-1 transport of a with the strength rho scaled down by
    the mean-shift budget gate. kernel=None means anchor only (unordered
    supports, or the anchor_only variant). This is the one implementation
    that training, inference and the theory oracle run.

    p and r are (..., D): one distribution, or a batch (B, D) with one
    transition per row. lam and rho are per row (shape (...), or scalars
    shared by every row) and the kernel is (..., D, 3) or one (D, 3) kernel
    for every row.

    Returns the parts by name as arrays: a, ta, kernel, rho, rho_eff,
    delta_mu, budget and p_hat (a without a kernel); the transport entries
    are None without a kernel. The per-row entries rho_eff, delta_mu and
    budget have shape (...). `vjp` maps a gradient of p_hat to those of
    (r, lam, kernel, rho), the last two None without a kernel, by the rules
    of the elementwise derivation: the 1e-18 inside the support std, the
    sign of delta_mu, and no gradient through the gate where it is clipped
    at 1. An input with one value per row gets a gradient of its shape; a
    shared one is a constant whose gradient is not read. With a kernel,
    `chain` is the reverse chain through delta_mu and the budget that
    `operator_regularizer` shares."""
    lam_c = np.asarray(lam, dtype=np.float64)[..., None]
    a = lam_c * p + (1.0 - lam_c) * r

    def anchor_vjp(g_a):
        """(r, lam) gradients from one of a."""
        return g_a * (1.0 - lam_c), np.sum(g_a * (p - r), axis=-1)

    parts = dict.fromkeys(("ta", "kernel", "rho", "rho_eff", "delta_mu", "budget"))
    if kernel is None:
        parts.update(a=a, p_hat=a, vjp=lambda g: anchor_vjp(g) + (None, None))
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

    def chain(g_a, g_ta, g_dm, g_b, g_k):
        """(r, lam, kernel) gradients from those of a, ta, delta_mu, the
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
        g_a += (g_m * kernel).sum(axis=-1)
        return anchor_vjp(g_a) + (g_k + a[..., None] * g_m,)

    def vjp(g):
        g_re = np.sum(g * (ta - a), axis=-1)
        g_ratio = g_re * rho * binds
        g_abs = -g_ratio * b / (den * den)
        grads = chain(g * (1.0 - re), g * re, g_abs * np.sign(delta_mu), g_ratio / den, 0.0)
        return grads + (g_re * gate,)

    parts.update(a=a, ta=ta, kernel=kernel, rho=rho, rho_eff=rho_eff, delta_mu=delta_mu, budget=b,
                 chain=chain, vjp=vjp, p_hat=p_hat)
    return parts


def operator_regularizer(parts, weights):
    """Target-free operator prior on the parts of a cast_step: weighted sum
    of transport strength, off-identity mass, neighbor roughness, and
    relative mean shift, one value per row. Returns (prior, vjp), where vjp
    maps a gradient of the prior to those of the step's (r, lam, kernel,
    rho) through the step's `chain`; None when the step had no transport."""
    k = parts["kernel"]
    if k is None:
        return None
    w_strength, w_offid, w_smooth, w_shift = weights
    dm, b = parts["delta_mu"], parts["budget"]
    off_id = (k[..., 0] * k[..., 0]).sum(axis=-1) + (k[..., 2] * k[..., 2]).sum(axis=-1)
    dk = k[..., :-1, :] - k[..., 1:, :]
    smoothness = (dk * dk).sum(axis=(-2, -1))
    ratio = dm / b
    prior = (w_strength * parts["rho"] + w_offid * off_id + w_smooth * smoothness
             + w_shift * (ratio * ratio))

    def vjp(g):
        g_row = g[..., None, None]
        g_k = (2.0 * w_offid) * g_row * k * _OFF_IDENTITY
        g_dk = (2.0 * w_smooth) * g_row * dk
        g_k[..., :-1, :] += g_dk
        g_k[..., 1:, :] -= g_dk
        g_ratio = (2.0 * w_shift) * g * ratio
        a = parts["a"]
        grads = parts["chain"](np.zeros_like(a), np.zeros_like(a), g_ratio / b,
                               -g_ratio * dm / (b * b), g_k)
        return grads + (w_strength * g,)

    return prior, vjp
