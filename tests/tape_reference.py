"""The forecaster's forward pass built from elementary tape nodes, one per
arithmetic operation: the reference for the hand-written reverse passes of
retrieval (`model._retrieval`), the persistence and transport-strength
gates (`model._gate`), the kernel head (`model._kernel_head`), the
anchored-transport operator and its prior (`transport.cast_step`), the KL
loss (`model._kl_term`) and the loss reduction (`model.loss_var`).

Each stage here is the composition of small rules that the hand-written
reverse passes replace, so reverse mode over it is an independent
derivation of the same gradients. `Var` below is `simplexcast.autodiff.Var`
with the operator library: broadcasting add, multiply and divide, batched
matmul, reshape, sum, sigmoid and softmax, with constants lifted to nodes
(`Var.lift`) and gradients summed back to their operands' shapes
(`unbroadcast`). The other ops (negation, subtraction, basic indexing,
log, sqrt, abs, clipping from above and the boundary-clipped radius-1 mass
shift) are node-building functions below. Every rule here runs on the
package's own `backward`.
"""
import numpy as np

from simplexcast import autodiff
from simplexcast.model import fixed_local_kernel, support_position_encoding
from simplexcast.simplex import softmax, softmax_vjp, support_bins
from simplexcast.transport import shift_mass


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


class Var(autodiff.Var):
    """A tape node with elementary operators. An operand may be a
    reference node, a package node or a constant (lifted to a node)."""

    __slots__ = ()

    # make numpy defer to the reflected operators below
    __array_ufunc__ = None

    @classmethod
    def lift(cls, x) -> "Var":
        """x itself if it is a tape node, else x as a constant node."""
        return x if isinstance(x, autodiff.Var) else cls(x, requires_grad=False)

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


def as_ref_vars(params):
    """The parameters of a `model.CastParams` as reference leaves."""
    return {k: Var(v) for k, v in params.values.items()}


# ---------------------------------------------------------------- ops


def neg(x):
    return Var(-x.data, (x,), lambda g: (-g,))


def sub(x, y):
    """x - y for tape values or constants."""
    return Var.lift(x) + neg(Var.lift(y))


def take(x, idx):
    """x[idx] for a basic index, which selects each element at most once."""

    def back(g):
        full = np.zeros_like(x.data)
        full[idx] += g
        return (full,)

    return Var(x.data[idx], (x,), back)


def log(x):
    return Var(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x):
    s = np.sqrt(x.data)
    return Var(s, (x,), lambda g: (g / (2.0 * s),))


def abs_(x):
    return Var(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


def clip_max(x, hi):
    """min(x, hi); zero gradient where clipped."""
    mask = x.data < hi
    return Var(np.where(mask, x.data, hi), (x,), lambda g: (g * mask,))


def shift_mass_var(left, stay, right):
    """`transport.shift_mass` of three tape values."""

    def back(g):
        gl = np.empty_like(g)
        gl[..., 0] = g[..., 0]
        gl[..., 1:] = g[..., :-1]
        gr = np.empty_like(g)
        gr[..., -1] = g[..., -1]
        gr[..., :-1] = g[..., 1:]
        return gl, g.copy(), gr

    return Var(shift_mass(left.data, stay.data, right.data), (left, stay, right), back)


def _col(v):
    return v.reshape(v.shape + (1,))


# ---------------------------------------------------------- operator


def cast_step_ref(p, r, lam, kernel, rho, budget):
    """`transport.cast_step`, one node per operation."""
    p, r, lam = Var.lift(p), Var.lift(r), _col(Var.lift(lam))
    a = lam * p + sub(1.0, lam) * r
    parts = dict.fromkeys(("ta", "kernel", "rho", "rho_eff", "delta_mu", "budget"))
    parts.update(a=a, p_hat=a)
    if kernel is None:
        return parts
    kernel, rho = Var.lift(kernel), Var.lift(rho)
    ta = shift_mass_var(*(a * take(kernel, (..., o)) for o in range(3)))
    bins = Var(support_bins(a.shape[-1]), requires_grad=False)
    mu_a = a @ bins
    centered = sub(bins, _col(mu_a))
    sigma = sqrt((a * centered * centered).sum(axis=-1) + 1e-18)
    b = budget.delta_mu + budget.delta_sigma * sigma
    delta_mu = sub(ta, a) @ bins
    gate = clip_max(b / (abs_(delta_mu) + budget.epsilon), 1.0)
    rho_eff = rho * gate
    p_hat = sub(1.0, _col(rho_eff)) * a + _col(rho_eff) * ta
    parts.update(ta=ta, kernel=kernel, rho=rho, rho_eff=rho_eff, delta_mu=delta_mu,
                 budget=b, p_hat=p_hat)
    return parts


def operator_regularizer_ref(parts, weights):
    """The prior of `transport.cast_step`, one node per operation."""
    k = parts["kernel"]
    if k is None:
        return None
    w_strength, w_offid, w_smooth, w_shift = weights
    k0, k2 = take(k, (..., 0)), take(k, (..., 2))
    off_id = (k0 * k0).sum(axis=-1) + (k2 * k2).sum(axis=-1)
    dk = sub(take(k, (..., slice(None, -1), slice(None))),
             take(k, (..., slice(1, None), slice(None))))
    smoothness = (dk * dk).sum(axis=(-2, -1))
    ratio = parts["delta_mu"] / parts["budget"]
    return (
        w_strength * parts["rho"]
        + w_offid * off_id
        + w_smooth * smoothness
        + w_shift * (ratio * ratio)
    )


# ------------------------------------------------------------- model


def retrieval_ref(p, hc, memory, pv, cfg):
    """Masked causal multi-head retrieval and the head mix, one head at a
    time, with head m's query and key taken from `w_qk[m, 0]` and
    `w_qk[m, 1]`; row i reads the memory slots lo[i] <= j < hi[i], one
    head has no mix, and a row with an empty window takes r = p. Returns r
    and the per-head attention weights (H, B, T)."""
    b, d = p.shape
    mem_feats, mem_succ, lo, hi = memory
    t_max = mem_feats.shape[1]
    slot = np.arange(t_max)
    mask = np.where((slot >= lo[:, None]) & (slot < hi[:, None]), 0.0, -np.inf)
    empty = hi <= lo
    mask[empty, 0] = 0.0
    mf = Var(mem_feats, requires_grad=False)
    ms = Var(mem_succ, requires_grad=False)
    heads, attn = [], []
    for m in range(cfg.heads):
        q = (hc @ take(pv["w_qk"], (m, 0))).reshape(b, cfg.d_r, 1)
        scores = (mf @ (take(pv["w_qk"], (m, 1)) @ q)).reshape(b, t_max)
        alpha = (scores / np.sqrt(cfg.d_r) + mask).softmax()
        heads.append((alpha.reshape(b, 1, t_max) @ ms).reshape(b, d))
        attn.append(alpha.data)
    r = heads[0]
    if cfg.heads > 1:
        eta = (hc @ pv["w_eta"]).softmax()
        r = heads[0] * take(eta, (slice(None), slice(0, 1)))
        for m in range(1, cfg.heads):
            r = r + heads[m] * take(eta, (slice(None), slice(m, m + 1)))
    has = (~empty)[:, None].astype(np.float64)
    return r * has + p * (1.0 - has), np.stack(attn)


def forward_var_ref(p, h, memory, pv, cfg):
    """`model._forward` with every stage on elementary nodes."""
    b, d = p.shape
    hc = Var(h, requires_grad=False)
    r = Var(p, requires_grad=False)
    attn = []
    lam = Var(0.0, requires_grad=False)
    if cfg.feature_mode != "current_only":
        r, attn = retrieval_ref(p, hc, memory, pv, cfg)
        if cfg.variant != "no_persistence_mix":
            lam = cfg.lambda_min + (cfg.lambda_max - cfg.lambda_min) * (
                hc @ pv["w_gate"] + pv["b_gate"]
            ).sigmoid()
    kernel = rho_raw = None
    if cfg.transport_active:
        rho_raw = cfg.rho_max * (hc @ pv["w_rho"] + pv["b_rho"]).sigmoid()
        if cfg.variant == "fixed_local_kernel":
            kernel = fixed_local_kernel(d)
        else:
            pe = Var(support_position_encoding(d), requires_grad=False)
            logits = (hc @ pv["wt_h"]).reshape(b, 1, 3) + (pe @ pv["wt_pe"]) + pv["bt"]
            kernel = logits.softmax(axis=-1)
    parts = cast_step_ref(p, r, lam, kernel, rho_raw, cfg.budget)
    parts.update(lam=lam, r=r, attn=attn)
    return parts["p_hat"], parts


def kl_term_ref(target, p_hat, eps=1e-8):
    """Per-row KL(target || p_hat), both eps-smoothed."""
    d = target.shape[-1]
    ts = (target + eps) / (1.0 + d * eps)
    qs = (p_hat + eps) * (1.0 / (1.0 + d * eps))
    const = np.sum(ts * np.log(ts), axis=-1)
    return sub(const, (Var(ts, requires_grad=False) * log(qs)).sum(axis=-1))


def loss_var_ref(batch, pv, cfg):
    """`model.loss_var` over the reference forward."""
    p, h, memory, targets = batch
    p_hat, parts = forward_var_ref(p, h, memory, pv, cfg)
    n = len(p)
    total = kl_term_ref(targets, p_hat).sum() / n
    if cfg.variant != "no_structural_reg":
        reg = operator_regularizer_ref(parts, cfg.reg_weights)
        if reg is not None:
            total = total + (reg.sum() / n) * cfg.lambda_op
    return total, p_hat
