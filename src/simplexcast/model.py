"""The trainable anchored-transport forecaster.

The causal encoder is a fixed windowed feature map (recent distributions,
exponentially weighted running mean, one-step delta, and ordered-support
moments); everything downstream of it is learnable: per-head retrieval
projections, head mixing, the persistence gate, the transport head, and
the transport-strength gate. All learnable paths run through the autodiff
tape so gradients are exact reverse-mode. The model produces the operator's
inputs (retrieval r, gate lambda, kernel, raw strength rho); the anchor,
transport, budget gate and mix, and the operator regularizer, are
`transport.cast_step` and `transport.operator_regularizer`, the same code
the theory oracle runs.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Var
from .errors import (
    DivergedTraining,
    EmptyBatch,
    EmptyPrefix,
    NonFiniteGradient,
)
from .simplex import SimplexSeries, support_bins
from .transport import BudgetParams, cast_step, operator_regularizer

VARIANTS = (
    "full",
    "no_structural_reg",
    "anchor_only",
    "single_head",
    "fixed_local_kernel",
    "no_persistence_mix",
)

CHECKPOINT_MAGIC = b"SXC1"


def _solve_gate_bias(target: float, lo: float, hi: float) -> float:
    """Sigmoid-inverse for a gate initialized at `target` within [lo, hi]."""
    if hi <= lo:
        return 0.0
    s = np.clip((target - lo) / (hi - lo), 1e-12, 1.0 - 1e-12)
    return float(np.log(s / (1.0 - s)))


@dataclass(frozen=True)
class ModelConfig:
    dim: int
    ordered: bool
    window: int = 8
    ew_beta: float = 0.9
    feature_mode: str = "full"  # "full" or "current_only"
    heads: int = 2
    d_r: int = 64
    lambda_min: float = 0.05
    lambda_max: float = 0.95
    rho_max: float = 0.20
    lambda_init: float = 0.55
    rho_init: float = 0.02
    budget: BudgetParams = field(default_factory=BudgetParams)
    reg_weights: tuple = (5e-4, 5e-4, 1e-4, 5e-4)
    lambda_op: float = 5e-4
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.feature_mode not in ("full", "current_only"):
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")
        if self.variant == "single_head":
            object.__setattr__(self, "heads", 1)
        if min(self.window, self.heads, self.d_r) < 1:
            raise ValueError("window, heads and d_r must be >= 1")
        if not 0.0 <= self.lambda_min <= self.lambda_max <= 1.0:
            raise ValueError("need 0 <= lambda_min <= lambda_max <= 1")
        # above 1, (1 - rho_eff) * a goes negative and closure breaks
        if not 0.0 < self.rho_max <= 1.0:
            raise ValueError("rho_max must lie in (0, 1]")
        w = self.reg_weights
        if not (
            isinstance(w, (tuple, list))
            and len(w) == 4
            and all(isinstance(x, (int, float)) and x >= 0 for x in w)
        ):
            raise ValueError("reg_weights must be four nonnegative numbers")
        object.__setattr__(self, "reg_weights", tuple(w))

    @property
    def feature_dim(self) -> int:
        base = self.dim if self.feature_mode == "current_only" else (self.window + 2) * self.dim
        return base + (2 if self.ordered and self.feature_mode == "full" else 0)

    @property
    def transport_active(self) -> bool:
        return self.ordered and self.variant != "anchor_only"


def encode_all(steps: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Features for every prefix of a sequence, shape (T, F). Row t depends
    only on steps[: t + 1]."""
    steps = np.asarray(steps, dtype=np.float64)
    if steps.ndim != 2 or len(steps) == 0:
        raise EmptyPrefix("need a nonempty (T, D) prefix")
    t_len, d = steps.shape
    if cfg.feature_mode == "current_only":
        feats = [steps]
    else:
        w = cfg.window
        padded = np.vstack([np.zeros((w - 1, d)), steps])
        window = np.stack([padded[t : t + w] for t in range(t_len)])  # (T, W, D)
        ew = np.empty_like(steps)
        ew[0] = steps[0]
        for t in range(1, t_len):
            ew[t] = cfg.ew_beta * ew[t - 1] + (1.0 - cfg.ew_beta) * steps[t]
        delta = np.vstack([np.zeros((1, d)), np.diff(steps, axis=0)])
        feats = [window.reshape(t_len, w * d), ew, delta]
        if cfg.ordered:
            bins = support_bins(d)
            mu = steps @ bins
            var = np.einsum("td,td->t", steps, (bins[None, :] - mu[:, None]) ** 2)
            sigma = np.sqrt(np.maximum(var, 0.0))
            feats.append(np.column_stack([mu / d, sigma / d]))
    return np.concatenate(feats, axis=1)


def encode(prefix: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Features of the last position of a prefix."""
    return encode_all(prefix, cfg)[-1]


def support_position_encoding(d: int) -> np.ndarray:
    """Two-dimensional sinusoidal encoding of bin position, (D, 2)."""
    theta = np.pi * np.arange(d) / max(d - 1, 1)
    return np.column_stack([np.sin(theta), np.cos(theta)])


def fixed_local_kernel(d: int) -> np.ndarray:
    """Constant (0.25, 0.5, 0.25) kernel, renormalized at the boundaries."""
    rows = np.tile([0.25, 0.5, 0.25], (d, 1))
    rows[0] = [0.0, 0.5 / 0.75, 0.25 / 0.75]
    rows[-1] = [0.25 / 0.75, 0.5 / 0.75, 0.0]
    return rows


class CastParams:
    """Parameter set: named float64 arrays plus the model configuration."""

    def __init__(self, cfg: ModelConfig, values: dict[str, np.ndarray]):
        self.cfg = cfg
        self.values = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}

    @staticmethod
    def init(cfg: ModelConfig, seed: int) -> "CastParams":
        rng = np.random.default_rng(seed)
        f = cfg.feature_dim
        scale = 0.5 / np.sqrt(f)
        vals: dict[str, np.ndarray] = {}
        for m in range(cfg.heads):
            vals[f"wq{m}"] = rng.normal(0, scale, size=(f, cfg.d_r))
            vals[f"wk{m}"] = rng.normal(0, scale, size=(f, cfg.d_r))
        vals["w_eta"] = rng.normal(0, scale, size=(f, cfg.heads))
        vals["w_gate"] = rng.normal(0, scale, size=f)
        vals["b_gate"] = np.array(
            _solve_gate_bias(cfg.lambda_init, cfg.lambda_min, cfg.lambda_max)
        )
        vals["w_rho"] = rng.normal(0, scale, size=f)
        vals["b_rho"] = np.array(_solve_gate_bias(cfg.rho_init, 0.0, cfg.rho_max))
        vals["wt_h"] = rng.normal(0, scale, size=(f, 3))
        vals["wt_pe"] = rng.normal(0, scale, size=(2, 3))
        vals["bt"] = np.array([0.0, 2.0, 0.0])
        return CastParams(cfg, vals)

    def copy(self) -> "CastParams":
        return CastParams(self.cfg, {k: v.copy() for k, v in self.values.items()})

    def as_vars(self) -> dict[str, Var]:
        return {k: Var(v) for k, v in self.values.items()}

    # -- checkpoint serialization ---------------------------------------

    def save(self, path) -> None:
        entries = [{"name": k, "shape": list(v.shape)} for k, v in self.values.items()]
        cfg = self.cfg
        header = {
            "format_version": 1,
            "entries": entries,
            "config": {
                "dim": cfg.dim,
                "ordered": cfg.ordered,
                "window": cfg.window,
                "ew_beta": cfg.ew_beta,
                "feature_mode": cfg.feature_mode,
                "heads": cfg.heads,
                "d_r": cfg.d_r,
                "lambda_min": cfg.lambda_min,
                "lambda_max": cfg.lambda_max,
                "rho_max": cfg.rho_max,
                "lambda_init": cfg.lambda_init,
                "rho_init": cfg.rho_init,
                "budget": [cfg.budget.delta_mu, cfg.budget.delta_sigma, cfg.budget.epsilon],
                "reg_weights": list(cfg.reg_weights),
                "lambda_op": cfg.lambda_op,
                "variant": cfg.variant,
            },
        }
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for k in self.values:
                fh.write(self.values[k].astype("<f8").tobytes(order="C"))

    @staticmethod
    def load(path) -> "CastParams":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError("not a checkpoint file")
            (n,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(n).decode())
            if header.get("format_version") != 1:
                raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
            c = header["config"]
            budget = BudgetParams(*c.pop("budget"))
            cfg = ModelConfig(budget=budget, **c)
            values = {}
            for e in header["entries"]:
                shape = tuple(e["shape"])
                count = int(np.prod(shape)) if shape else 1
                arr = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(shape)
                values[e["name"]] = arr.astype(np.float64)
        return CastParams(cfg, values)


@dataclass
class ForwardTrace:
    r: np.ndarray
    a: np.ndarray
    lam: float
    rho_eff: float
    kernel: np.ndarray | None
    delta_mu: float


def _forward_var(
    prefix: np.ndarray,
    mem_feats: np.ndarray | None,
    mem_succ: np.ndarray | None,
    pv: dict[str, Var],
    cfg: ModelConfig,
    h: np.ndarray | None = None,
):
    """Differentiable forward pass. Returns (p_hat, parts) where parts holds
    the intermediate Vars needed for the regularizer and trace."""
    prefix = np.asarray(prefix, dtype=np.float64)
    if len(prefix) == 0:
        raise EmptyPrefix("empty prefix")
    p_t = prefix[-1]
    d = cfg.dim
    if h is None:
        h = encode(prefix, cfg)
    hc = Var(h, requires_grad=False)

    # retrieval
    use_memory = (
        mem_feats is not None
        and len(mem_feats) > 0
        and cfg.feature_mode != "current_only"
    )
    attn = []
    if use_memory:
        heads = []
        for m in range(cfg.heads):
            q = hc @ pv[f"wq{m}"]
            keys = Var(mem_feats, requires_grad=False) @ pv[f"wk{m}"]
            alpha = ((keys @ q) / np.sqrt(cfg.d_r)).softmax()
            heads.append(alpha @ Var(mem_succ, requires_grad=False))
            attn.append(alpha.data)
        eta = (hc @ pv["w_eta"]).softmax()
        r = heads[0] * eta[0]
        for m in range(1, cfg.heads):
            r = r + heads[m] * eta[m]
    else:
        r = Var(p_t, requires_grad=False)

    # persistence gate
    if cfg.variant == "no_persistence_mix":
        lam = Var(0.0, requires_grad=False)
    else:
        lam = cfg.lambda_min + (cfg.lambda_max - cfg.lambda_min) * (
            hc @ pv["w_gate"] + pv["b_gate"]
        ).sigmoid()

    # transport head; the anchor, transport, budget gate and mix run in
    # transport.cast_step
    kernel = rho_raw = None
    if cfg.transport_active:
        rho_raw = cfg.rho_max * (hc @ pv["w_rho"] + pv["b_rho"]).sigmoid()
        if cfg.variant == "fixed_local_kernel":
            kernel = fixed_local_kernel(d)
        else:
            pe = support_position_encoding(d)
            logits = (hc @ pv["wt_h"]) + (Var(pe, requires_grad=False) @ pv["wt_pe"]) + pv["bt"]
            kernel = logits.softmax(axis=-1)
            # boundary rows cannot move mass outside; the clip in shift_mass
            # handles it, no masking required
    parts = cast_step(p_t, r, lam, kernel, rho_raw, cfg.budget)
    parts.update(lam=lam, r=r, attn=attn)
    return parts["p_hat"], parts


def forward(
    prefix: np.ndarray,
    mem_feats: np.ndarray | None,
    mem_succ: np.ndarray | None,
    params: CastParams,
    h: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Non-differentiable forward: one-step prediction plus trace."""
    p_hat, parts = _forward_var(prefix, mem_feats, mem_succ, params.as_vars(), params.cfg, h=h)
    trace = ForwardTrace(
        r=parts["r"].data.copy(),
        a=parts["a"].data.copy(),
        lam=float(parts["lam"].data),
        rho_eff=float(parts["rho_eff"].data) if parts["rho_eff"] is not None else 0.0,
        kernel=parts["kernel"].data.copy() if parts["kernel"] is not None else None,
        delta_mu=float(parts["delta_mu"].data) if parts["delta_mu"] is not None else 0.0,
    )
    return p_hat.data.copy(), trace


def _kl_term(target: np.ndarray, p_hat: Var, eps: float = 1e-8) -> Var:
    d = target.size
    ts = (target + eps) / (1.0 + d * eps)
    qs = (p_hat + eps) * (1.0 / (1.0 + d * eps))
    const = float(np.sum(ts * np.log(ts)))
    return const - (Var(ts, requires_grad=False) * qs.log()).sum()


@dataclass
class Batch:
    """Teacher-forced positions: each item is (sequence steps, position t)
    predicting steps[t + 1] from steps[: t + 1]."""

    items: list  # list of (steps (T, D), t, feats_all (T, F))


def make_batch(seqs, positions, cfg: ModelConfig, feats_cache: dict | None = None) -> Batch:
    items = []
    for seq_idx, t in positions:
        seq = seqs[seq_idx]
        if feats_cache is not None:
            feats = feats_cache.get(seq.id)
            if feats is None:
                feats = encode_all(seq.steps, cfg)
                feats_cache[seq.id] = feats
        else:
            feats = encode_all(seq.steps, cfg)
        items.append((seq.steps, t, feats))
    return Batch(items)


def loss_var(batch: Batch, pv: dict[str, Var], cfg: ModelConfig) -> Var:
    if not batch.items:
        raise EmptyBatch("no scored positions in batch")
    step_terms = []
    reg_terms = []
    for steps, t, feats in batch.items:
        mem_feats = feats[:t] if t > 0 else None
        mem_succ = steps[1 : t + 1] if t > 0 else None
        p_hat, parts = _forward_var(steps[: t + 1], mem_feats, mem_succ, pv, cfg, h=feats[t])
        step_terms.append(_kl_term(steps[t + 1], p_hat))
        if cfg.variant != "no_structural_reg":
            reg = operator_regularizer(parts, cfg.reg_weights)
            if reg is not None:
                reg_terms.append(reg)
    total = step_terms[0]
    for term in step_terms[1:]:
        total = total + term
    total = total / len(step_terms)
    if reg_terms:
        reg_total = reg_terms[0]
        for term in reg_terms[1:]:
            reg_total = reg_total + term
        total = total + (reg_total / len(reg_terms)) * cfg.lambda_op
    return total


def loss(batch: Batch, params: CastParams) -> float:
    return loss_var(batch, params.as_vars(), params.cfg).item()


def gradient(batch: Batch, params: CastParams) -> tuple[float, dict[str, np.ndarray]]:
    """Exact reverse-mode gradient of the training loss for every parameter."""
    pv = params.as_vars()
    out = loss_var(batch, pv, params.cfg)
    if not np.isfinite(out.data):
        raise NonFiniteGradient(f"loss is not finite: {out.data}")
    out.backward()
    grads = {
        k: (v.grad if v.grad is not None else np.zeros_like(v.data)) for k, v in pv.items()
    }
    return out.item(), grads


def scored_positions(seqs) -> list[tuple[int, int]]:
    out = []
    for i, seq in enumerate(seqs):
        for t in np.flatnonzero(seq.loss_mask):
            out.append((i, int(t)))
    return out


@dataclass
class TrainConfig:
    iters: int = 2000
    batch_size: int = 8
    lr: float = 3e-4
    warmup: int = 200
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    eval_every: int = 100
    max_val_positions: int = 256
    cosine_decay: bool = False  # anneal lr to 0 after warmup
    tail_average: float = 0.0  # fraction of final iters whose weights are averaged


def evaluate_val_kl(seqs, params: CastParams, max_positions: int, feats_cache: dict) -> float:
    from .metrics import kl as kl_metric

    positions = scored_positions(seqs)[:max_positions]
    if not positions:
        return np.nan
    total = 0.0
    for seq_idx, t in positions:
        seq = seqs[seq_idx]
        feats = feats_cache.get(seq.id)
        if feats is None:
            feats = encode_all(seq.steps, params.cfg)
            feats_cache[seq.id] = feats
        mem_feats = feats[:t] if t > 0 else None
        mem_succ = seq.steps[1 : t + 1] if t > 0 else None
        p_hat, _ = forward(seq.steps[: t + 1], mem_feats, mem_succ, params, h=feats[t])
        total += kl_metric(seq.steps[t + 1], p_hat)
    return total / len(positions)


def train(
    train_seqs,
    val_seqs,
    cfg: ModelConfig,
    tc: TrainConfig,
    seed: int,
) -> tuple[CastParams, list[dict]]:
    """AdamW with linear warmup, gradient-norm clipping, and model selection
    by lowest validation one-step KL. Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    params = CastParams.init(cfg, seed)
    positions = scored_positions(train_seqs)
    if not positions:
        raise EmptyBatch("training split has no scored positions")
    m_state = {k: np.zeros_like(v) for k, v in params.values.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.values.items()}
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    feats_cache: dict = {}
    best = params.copy()
    best_val = np.inf
    log: list[dict] = []
    avg_start = (
        tc.iters - int(tc.iters * tc.tail_average) + 1 if tc.tail_average > 0 else None
    )
    avg_vals: dict[str, np.ndarray] | None = None
    avg_n = 0

    for step in range(1, tc.iters + 1):
        idx = rng.integers(0, len(positions), size=min(tc.batch_size, len(positions)))
        batch = make_batch(train_seqs, [positions[i] for i in idx], cfg, feats_cache)
        loss_value, grads = gradient(batch, params)
        if not np.isfinite(loss_value):
            raise DivergedTraining(f"loss diverged at step {step}")

        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        scale = min(1.0, tc.clip_norm / (norm + 1e-12))
        lr = tc.lr * min(1.0, step / max(tc.warmup, 1))
        if tc.cosine_decay and step > tc.warmup:
            progress = (step - tc.warmup) / max(tc.iters - tc.warmup, 1)
            lr *= 0.5 * (1.0 + np.cos(np.pi * progress))
        for k, g in grads.items():
            g = g * scale
            m_state[k] = beta1 * m_state[k] + (1 - beta1) * g
            v_state[k] = beta2 * v_state[k] + (1 - beta2) * g * g
            mhat = m_state[k] / (1 - beta1**step)
            vhat = v_state[k] / (1 - beta2**step)
            params.values[k] -= lr * (
                mhat / (np.sqrt(vhat) + adam_eps) + tc.weight_decay * params.values[k]
            )

        if avg_start is not None and step >= avg_start:
            if avg_vals is None:
                avg_vals = {k: v.copy() for k, v in params.values.items()}
            else:
                for k, v in params.values.items():
                    avg_vals[k] += v
            avg_n += 1

        if step % tc.eval_every == 0 or step == tc.iters:
            val_kl = evaluate_val_kl(val_seqs, params, tc.max_val_positions, feats_cache)
            log.append({"step": step, "train_loss": loss_value, "val_kl": val_kl})
            if np.isfinite(val_kl) and val_kl < best_val:
                best_val = val_kl
                best = params.copy()

    if avg_vals is not None and avg_n > 0:
        # Polyak-style tail averaging: the averaged iterate suppresses the
        # stochastic-gradient noise floor, so it replaces checkpoint selection
        best = CastParams(cfg, {k: v / avg_n for k, v in avg_vals.items()})
        val_kl = evaluate_val_kl(val_seqs, best, tc.max_val_positions, feats_cache)
        log.append({"step": tc.iters, "train_loss": float("nan"), "val_kl": val_kl})
    return best, log


def config_for_variant(cfg: ModelConfig, variant: str) -> ModelConfig:
    return replace(cfg, variant=variant)


def make_series(seq_id, ordered, steps, loss_mask=None) -> SimplexSeries:
    return SimplexSeries(seq_id, ordered, np.asarray(steps, dtype=np.float64), loss_mask)
