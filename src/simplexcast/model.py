"""The trainable anchored-transport forecaster.

The causal encoder is a fixed windowed feature map (recent distributions,
exponentially weighted running mean, one-step delta, and ordered-support
moments); everything downstream of it is learnable: per-head retrieval
projections, head mixing, the persistence gate, the transport head, and
the transport-strength gate. The model produces the operator's inputs
(retrieval r, gate lambda, kernel, raw strength rho); the anchor,
transport, budget gate and mix, and the operator regularizer, are
`transport.cast_step` and `transport.operator_regularizer`, the same code
the theory oracle runs.

The forward pass has a leading batch axis and runs on plain arrays;
retrieval adds a leading head axis, so its H attention heads are one pass
of stacked products, and a position without memory is a fully masked row
of the padded memory. Every stage (retrieval, the two gates, the kernel
head, the operator and its prior, the per-row KL, which is `metrics.kl`)
returns its value and its reverse pass, a hand-written vector-Jacobian
product, so gradients are exact reverse-mode.
`loss_var` is the one place that builds a tape: one node over one leaf,
`CastParams.flat`, whose backward runs the stages' reverse passes in a
fixed order into a gradient of the same layout. A split is packed once
(`Split`) and every retrieval memory is an index into it: a training batch
(`make_batch`) gathers one memory per row, and scoring (`predict`, no tape)
is one `forward` pass per block of whole sequences (`score_blocks`) whose
rows share one slice of the split's (feature, successor) pairs, each row's
window letting row t of a sequence see only its own pairs before t.

The parameters live in one float64 buffer, `CastParams.flat`, and the named
arrays the forward pass reads are views into it: init, copy, save, load,
the gradient, the AdamW update and tail averaging each act on one such buffer.
The buffer holds only the heads that the config runs (`_heads`), and every
head in it runs on every batch, so each view of a gradient is written. A
checkpoint's config is read against ModelConfig's own fields and type hints.
"""
from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import astuple, dataclass, field, fields
from itertools import zip_longest
from typing import get_type_hints

import numpy as np

from .autodiff import Var
from .errors import InvalidValue
from .io import atomic_write, json_type_ok
from .metrics import DEFAULT_EPS as EPS, kl as kl_metric
from .simplex import history_windows, smooth, smoothed_levels, softmax, softmax_vjp, support_bins
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
MAX_VAL_POSITIONS = 256  # scored validation positions that model selection reads


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
            raise InvalidValue(f"unknown variant {self.variant!r}")
        if self.feature_mode not in ("full", "current_only"):
            raise InvalidValue(f"unknown feature_mode {self.feature_mode!r}")
        if self.variant == "single_head":
            object.__setattr__(self, "heads", 1)
        # as `io.ingest` asks of a dataset's D
        if self.dim < 2:
            raise InvalidValue(f"dim must be >= 2, got {self.dim}")
        if min(self.window, self.heads, self.d_r) < 1:
            raise InvalidValue("window, heads and d_r must be >= 1")
        if not 0.0 <= self.lambda_min <= self.lambda_max <= 1.0:
            raise InvalidValue("need 0 <= lambda_min <= lambda_max <= 1")
        # above 1, (1 - rho_eff) * a goes negative and closure breaks
        if not 0.0 < self.rho_max <= 1.0:
            raise InvalidValue("rho_max must lie in (0, 1]")
        # written so that NaN fails; `_solve_gate_bias` would clip it into range
        if not self.lambda_min <= self.lambda_init <= self.lambda_max:
            raise InvalidValue(f"lambda_init {self.lambda_init} not in [lambda_min, lambda_max]")
        if not 0.0 <= self.rho_init <= self.rho_max:
            raise InvalidValue(f"rho_init {self.rho_init} not in [0, rho_max]")
        # written so that NaN fails both checks
        if not 0.0 <= self.ew_beta <= 1.0:
            raise InvalidValue(f"ew_beta must lie in [0, 1], got {self.ew_beta}")
        if not (math.isfinite(self.lambda_op) and self.lambda_op >= 0):
            raise InvalidValue(f"lambda_op must be >= 0 and finite, got {self.lambda_op}")
        w = self.reg_weights
        if not (
            isinstance(w, (tuple, list))
            and len(w) == 4
            and all(isinstance(x, (int, float)) and x >= 0 for x in w)
        ):
            raise InvalidValue("reg_weights must be four nonnegative numbers")
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
    d = steps.shape[1]
    if cfg.feature_mode == "current_only":
        feats = [steps]
    else:
        # EW mean: ew[t] = ew_beta*ew[t-1] + (1-ew_beta)*steps[t]
        ew = smoothed_levels(steps, 1.0 - cfg.ew_beta)
        delta = np.vstack([np.zeros((1, d)), np.diff(steps, axis=0)])
        feats = [history_windows(steps, cfg.window), ew, delta]
        if cfg.ordered:
            bins = support_bins(d)
            mu = steps @ bins
            var = np.einsum("td,td->t", steps, (bins[None, :] - mu[:, None]) ** 2)
            sigma = np.sqrt(np.maximum(var, 0.0))
            feats.append(np.column_stack([mu / d, sigma / d]))
    return np.concatenate(feats, axis=1)


@functools.cache
def support_position_encoding(d: int) -> np.ndarray:
    """Two-dimensional sinusoidal encoding of bin position, (D, 2); made once
    per d and read-only, as every caller shares it."""
    theta = np.pi * np.arange(d) / max(d - 1, 1)
    pe = np.column_stack([np.sin(theta), np.cos(theta)])
    pe.flags.writeable = False
    return pe


@functools.cache
def fixed_local_kernel(d: int) -> np.ndarray:
    """Constant (0.25, 0.5, 0.25) kernel, renormalized at the boundaries;
    made once per d and read-only, as every caller shares it."""
    rows = np.tile([0.25, 0.5, 0.25], (d, 1))
    rows[0] = [0.0, 0.5 / 0.75, 0.25 / 0.75]
    rows[-1] = [0.25 / 0.75, 0.5 / 0.75, 0.0]
    rows.flags.writeable = False
    return rows


def _heads(cfg: ModelConfig) -> list[tuple[str, bool, dict[str, tuple]]]:
    """Each head in checkpoint order: the `cast_step` input it feeds, whether
    `cfg` runs it, and its parameter shapes by name; the one place that says
    which heads run (read by `param_shapes`, `CastParams.init`, `_forward`,
    `score_blocks`). `w_qk[m, 0]` and `w_qk[m, 1]` are retrieval head m's
    query and key; the head mix runs only when H > 1, and the persistence
    gate only with retrieval, since without it r = p."""
    f = cfg.feature_dim
    retrieves = cfg.feature_mode != "current_only"
    return [
        ("r", retrieves, {"w_qk": (cfg.heads, 2, f, cfg.d_r)}),
        ("r", retrieves and cfg.heads > 1, {"w_eta": (f, cfg.heads)}),
        ("lam", retrieves and cfg.variant != "no_persistence_mix", {"w_gate": (f,), "b_gate": ()}),
        ("rho", cfg.transport_active, {"w_rho": (f,), "b_rho": ()}),
        ("kernel", cfg.transport_active and cfg.variant != "fixed_local_kernel",
         {"wt_h": (f, 3), "wt_pe": (2, 3), "bt": (3,)}),
    ]


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Name and shape of every parameter of the heads that `cfg` runs, in
    checkpoint order."""
    return {k: s for _, runs, shapes in _heads(cfg) if runs for k, s in shapes.items()}


class CastParams:
    """Parameter set: one C-contiguous float64 buffer `flat` in `param_shapes`
    order (the checkpoint payload order), plus the model configuration. The
    buffer holds only the heads that the configuration runs. `values` maps
    each parameter name to its shaped view into `flat`."""

    def __init__(self, cfg: ModelConfig, flat: np.ndarray):
        self.cfg = cfg
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        shapes = param_shapes(cfg)
        # a buffer of any other length fails the reshape of its last piece
        pieces = np.split(self.flat, np.cumsum([math.prod(s) for s in shapes.values()])[:-1])
        self.values = {k: x.reshape(s) for (k, s), x in zip(shapes.items(), pieces)}

    @staticmethod
    def init(cfg: ModelConfig, seed: int) -> "CastParams":
        """Draws every head in checkpoint order and keeps the heads that `cfg`
        runs, so initial values do not depend on the variant."""
        rng = np.random.default_rng(seed)
        scale = 0.5 / np.sqrt(cfg.feature_dim)
        biases = {
            "b_gate": _solve_gate_bias(cfg.lambda_init, cfg.lambda_min, cfg.lambda_max),
            "b_rho": _solve_gate_bias(cfg.rho_init, 0.0, cfg.rho_max),
            "bt": [0.0, 2.0, 0.0],
        }
        draws = [
            (runs, biases[k] if k in biases else rng.normal(0, scale, size=shape))
            for _, runs, shapes in _heads(cfg) for k, shape in shapes.items()
        ]
        kept = [np.ravel(x) for runs, x in draws if runs]
        # the empty piece keeps a config that runs no head a valid, empty buffer
        return CastParams(cfg, np.concatenate([np.zeros(0)] + kept))

    def copy(self) -> "CastParams":
        return CastParams(self.cfg, self.flat.copy())

    # -- checkpoint serialization ---------------------------------------

    def save(self, path) -> None:
        """Writes atomically (io.atomic_write)."""
        entries = [{"name": k, "shape": list(v.shape)} for k, v in self.values.items()]
        # every ModelConfig field, the budget as its three numbers in the
        # order `load` passes them back to BudgetParams
        config = {f.name: getattr(self.cfg, f.name) for f in fields(self.cfg)}
        config["budget"] = astuple(self.cfg.budget)
        header = {"format_version": 1, "entries": entries, "config": config}
        blob = json.dumps(header, sort_keys=True).encode()

        def emit(fh):
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(self.flat.astype("<f8", copy=False).tobytes())

        atomic_write(path, emit, binary=True)

    @staticmethod
    def load(path) -> "CastParams":
        """Reads a checkpoint, rejecting with InvalidValue a bad header, a
        format_version other than the integer 1, a config other than the
        fields of ModelConfig with values of their annotated types
        (`io.json_type_ok`), an entry shape not a list of integers, an entry
        list other than the names and shapes of `param_shapes` in order
        (naming the first entry that differs), any other byte length, and a
        non-finite value."""
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != CHECKPOINT_MAGIC or len(data) < 8:
            raise InvalidValue("not a checkpoint file")
        (n,) = struct.unpack("<I", data[4:8])
        try:
            header = json.loads(data[8 : 8 + n].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidValue(f"bad checkpoint header: {exc}") from exc
        version = header.get("format_version") if json_type_ok(header, dict) else None
        if not json_type_ok(version, int) or version != 1:
            raise InvalidValue("unsupported checkpoint version")
        c, types = header.get("config"), get_type_hints(ModelConfig)
        if not json_type_ok(c, dict) or c.keys() != types.keys():
            raise InvalidValue(f"checkpoint config must have exactly the keys {sorted(types)}")
        for key, hint in types.items():
            if not json_type_ok(c[key], hint):
                raise InvalidValue(f"checkpoint config {key!r} must be of type {hint.__name__}")
        cfg = ModelConfig(**{**c, "budget": BudgetParams(*c["budget"])})
        expected = list(param_shapes(cfg).items())
        try:
            layout = [(e["name"], tuple(e["shape"])) for e in header.get("entries")]
        except (KeyError, TypeError) as exc:
            raise InvalidValue("bad checkpoint entries") from exc
        # a shape of floats would pass the layout check: (2.0,) == (2,)
        if not all(json_type_ok(e["shape"], list[int]) for e in header["entries"]):
            raise InvalidValue("checkpoint entry shapes must be lists of integers")
        if layout != expected:
            pairs = zip_longest(layout, expected, fillvalue=("end of entries",))
            has, want = (" ".join(map(str, e)) for e in next(x for x in pairs if x[0] != x[1]))
            raise InvalidValue("checkpoint entries do not match the model layout: "
                               f"file has {has}, layout has {want}")
        size = 8 + n + 8 * sum(math.prod(shape) for _, shape in expected)
        if len(data) != size:
            raise InvalidValue(f"checkpoint is {len(data)} bytes, expected {size}")
        params = CastParams(cfg, np.frombuffer(data, dtype="<f8", offset=8 + n).astype(np.float64))
        bad = next((k for k, v in params.values.items() if not np.isfinite(v).all()), None)
        if bad is not None:
            raise InvalidValue(f"checkpoint parameter {bad!r} holds a non-finite value")
        return params


class Split(list):
    """A split's sequences, packed once for retrieval under `cfg`: steps
    (N + 1, D) and `encode_all` features (N + 1, F) end to end, each with one
    zero pad row last. Sequence i is rows start[i] : start[i + 1]."""

    def __init__(self, seqs, cfg: ModelConfig):
        super().__init__(seqs)
        self.cfg = cfg
        self.start = np.cumsum([0] + [len(seq.steps) for seq in self])
        # preallocated: joining per-sequence arrays would hold both at once
        self.steps = np.zeros((self.start[-1] + 1, cfg.dim))
        self.feats = np.zeros((self.start[-1] + 1, cfg.feature_dim))
        for seq, lo, hi in zip(self, self.start, self.start[1:]):
            self.steps[lo:hi] = seq.steps
            self.feats[lo:hi] = encode_all(seq.steps, cfg)


def _retrieval(p: np.ndarray, h: np.ndarray, memory, values: dict, cfg: ModelConfig, out=None):
    """Masked causal multi-head retrieval over the query and key weights
    `w_qk` (H, 2, F, d_r) and the head mix `w_eta` in `values`, every head
    at once along a leading head axis. Row i of the current distributions
    p (B, D) and features h (B, F) attends to the slots lo[i] <= j < hi[i]
    of the memory (mem_feats, mem_succ, lo, hi) of `make_batch` (one padded
    memory per row, lo = 0) or `forward` (one slice shared by every row);
    each head is a softmax over scaled dot-product scores, the heads are
    mixed by eta = softmax(h @ w_eta) (a column of ones for one head, which
    has no `w_eta`), and a row with an empty window takes r = p. The memory
    is a constant, so no gradient is computed for it. Returns r, its reverse
    pass to the gradients of w_qk (written into `out`, a w_qk-shaped array,
    when given) and of w_eta when there is one, and the attention weights
    (H, B, T)."""
    mem_feats, mem_succ, lo, hi = memory
    slot = np.arange(mem_feats.shape[1])
    mask = np.where((slot >= lo[:, None]) & (slot < hi[:, None]), 0.0, -np.inf)
    empty = hi <= lo
    mask[empty, 0] = 0.0  # keeps an empty row's softmax finite; r = p below
    has = (~empty)[:, None].astype(np.float64)
    scale = np.sqrt(cfg.d_r)
    w_q, w_k = values["w_qk"][:, 0], values["w_qk"][:, 1]
    w_eta = values.get("w_eta")
    eta = np.ones((len(h), 1)) if w_eta is None else softmax(h @ w_eta)
    q = h @ w_q  # (H, B, d_r)
    u = w_k[:, None] @ q[..., None]  # (H, B, F, 1): the queries in feature space
    attn = softmax((mem_feats @ u)[..., 0] / scale + mask)
    heads = (attn[..., None, :] @ mem_succ)[..., 0, :]  # (H, B, D)
    mix = (heads * eta.T[..., None]).sum(axis=0)
    r = mix * has + p * (1.0 - has)

    def back(g):
        g = g * has
        g_attn = (mem_succ @ (g * eta.T[..., None])[..., None])[..., 0]
        g_scores = softmax_vjp(attn, g_attn) / scale
        g_u = (g_scores[..., None, :] @ mem_feats)[..., 0, :]  # (H, B, F)
        # matmul into the two halves: np.stack of them took ~8x as long at
        # H = 2, F = 212, d_r = 64 (2-vCPU VM)
        g_qk = np.empty_like(values["w_qk"]) if out is None else out
        np.matmul(h.T, g_u @ w_k, out=g_qk[:, 0])
        np.matmul(g_u.swapaxes(1, 2), q, out=g_qk[:, 1])
        if w_eta is None:
            return (g_qk,)
        # the softmax rule for the eta logits, s * (g - sum(s * g)), with
        # the mix subtracted from each head before the sum over bins: two
        # heads that nearly agree then lose no digits to cancellation
        return g_qk, h.T @ (eta * np.sum(g * (heads - mix), axis=-1).T)

    return r, back, attn


def _gate(h: np.ndarray, w: np.ndarray, b: np.ndarray, lo: float, hi: float):
    """lo + (hi - lo) * sigmoid(h @ w + b), one value per row of the
    features h (B, F), and its reverse pass to the gradients of the weight
    w and bias b."""
    s = 1.0 / (1.0 + np.exp(-(h @ w + b)))
    span = hi - lo

    def back(g):
        g_logit = g * span * s * (1.0 - s)
        return h.T @ g_logit, g_logit.sum()

    return lo + span * s, back


def _kernel_head(h: np.ndarray, pe: np.ndarray, values: dict):
    """Per-row, per-bin transport kernels, (B, D, 3): a softmax over the
    three offsets of logits h @ wt_h (one per row) + pe @ wt_pe (one per
    bin, from the support position encoding pe (D, 2)) + bt, and its
    reverse pass to the gradients of wt_h, wt_pe and bt."""
    s = softmax((h @ values["wt_h"]).reshape(len(h), 1, 3) + pe @ values["wt_pe"] + values["bt"])

    def back(g):
        g = softmax_vjp(s, g)
        return h.T @ g.sum(axis=1), pe.T @ g.sum(axis=0), g.sum(axis=(0, 1))

    return s, back


def _forward(p: np.ndarray, h: np.ndarray, memory, values: dict, cfg: ModelConfig,
             out: dict | None = None):
    """Forward pass over B positions at once from the parameter arrays
    `values`: current distributions p (B, D), features h (B, F), and the
    retrieval memory of `make_batch` or `forward`. The heads that
    `_heads(cfg)` runs feed `transport.cast_step`; without retrieval r = p,
    and a transport strength without the kernel head moves mass by the
    fixed local kernel. Returns p_hat, the step's parts with lam, r and attn
    (H, B, T) added, and one (operator input, parameter names, reverse pass)
    entry per input that a head feeds. `out`, the named views of a gradient
    buffer, lets retrieval's reverse pass write the w_qk gradient in place."""
    d = p.shape[1]
    live: dict = {}
    for name, runs, shapes in _heads(cfg):
        if runs:
            live[name] = live.get(name, ()) + tuple(shapes)
    op = {"r": p, "lam": 0.0, "rho": None, "kernel": None}
    attn, backs = np.zeros((0, len(p), memory[0].shape[1])), {}
    if "r" in live:
        op["r"], backs["r"], attn = _retrieval(p, h, memory, values, cfg,
                                               None if out is None else out["w_qk"])
    for name, lo, hi in (("lam", cfg.lambda_min, cfg.lambda_max), ("rho", 0.0, cfg.rho_max)):
        if name in live:
            op[name], backs[name] = _gate(h, *(values[k] for k in live[name]), lo, hi)
    if "kernel" in live:
        # boundary rows cannot move mass outside; the clip in shift_mass
        # handles it, no masking required
        op["kernel"], backs["kernel"] = _kernel_head(h, support_position_encoding(d), values)
    elif "rho" in live:
        op["kernel"] = fixed_local_kernel(d)
    parts = cast_step(p, op["r"], op["lam"], op["kernel"], op["rho"], cfg.budget)
    parts.update(lam=op["lam"], r=op["r"], attn=attn)
    return parts["p_hat"], parts, [(name, live[name], back) for name, back in backs.items()]


# rows x memory slots of one scoring pass (`score_blocks`). On 4-step
# sequences at D = 21 (2-vCPU VM), a pass cost ~200 us per row alone and
# ~28 us per row over 1k-4k cells, rising again above (45 us at 16k), as
# the masked slots of other sequences outgrow the per-pass cost they save
SCORE_BLOCK = 2048


def forward(split: Split, i, ts, params: CastParams):
    """Non-differentiable scoring of the positions (i, t) of a split in one
    pass, i one sequence index or one per row: row (i, t) predicts
    steps[t + 1] of sequence i from its steps[: t + 1]. Every row reads the
    same memory, the pairs (feats[j], steps[j + 1]) of the split from the
    first scored sequence's start to the furthest row's slot t - 1 as one
    slice (the pad row alone when that is empty), and is masked to its own
    window, the t slots of its own sequence before t. A row outside
    0 <= t < len(sequence) is an InvalidValue. Returns p_hat (len(ts), D)
    and the parts of `_forward`, one row each. A sequence scored alone reads
    the slice of its own first max(ts) pairs; scored with others, its rows
    may differ from that in the last bits, since sums and products over the
    wider slice and the taller row block round by their size. Builds no
    tape."""
    i, ts = np.broadcast_arrays(np.asarray(i, dtype=np.intp), np.asarray(ts, dtype=np.intp))
    lo = split.start[i]
    if np.any((ts < 0) | (ts >= split.start[i + 1] - lo)):
        raise InvalidValue(f"scored rows {ts.min()}..{ts.max()} need 0 <= t < len(sequence)")
    first, end = int(lo.min(initial=split.start[-1])), int((lo + ts).max(initial=0))
    if end > first:
        feats, succ = split.feats[first:end], split.steps[first + 1 : end + 1]
    else:
        feats, succ = split.feats[-1:], split.steps[-1:]
    memory = (feats[None], succ[None], lo - first, lo - first + ts)
    return _forward(split.steps[lo + ts], split.feats[lo + ts], memory, params.values,
                    params.cfg)[:2]


def score_blocks(split: Split, i, ts):
    """The positions (i, t) of a split, in split order, cut into the blocks
    that `forward` scores in one pass each: runs of whole sequences that grow
    while rows x memory slots stay within SCORE_BLOCK, or rows alone when
    the split's config reads no memory. A sequence over it alone is a block
    of its own, scored exactly as by itself. Yields (i, ts) array pairs."""
    i, ts = np.broadcast_arrays(np.asarray(i, dtype=np.intp), np.asarray(ts, dtype=np.intp))
    if len(i) == 0:
        return
    lo = split.start[i]
    reach = lo + ts
    runs = np.flatnonzero(np.diff(i)) + 1  # where each next sequence's rows start
    retrieves = any(on for name, on, _ in _heads(split.cfg) if name == "r")
    first = 0
    for start, end in zip([0, *runs], [*runs, len(i)]):
        slots = reach[first:end].max() - lo[first] if retrieves else 1
        if start > first and (end - first) * slots > SCORE_BLOCK:
            yield i[first:start], ts[first:start]
            first = start
    yield i[first:], ts[first:]


def predict(split: Split, i, ts, params: CastParams) -> np.ndarray:
    """p_hat (len(ts), D) of the positions (i, t) that `forward` takes, in
    input order, from one `forward` pass per block of `score_blocks`; no
    position gives (0, D)."""
    blocks = [forward(split, *block, params)[0] for block in score_blocks(split, i, ts)]
    return np.concatenate([np.zeros((0, params.cfg.dim)), *blocks])


def _kl_term(target: np.ndarray, p_hat: np.ndarray):
    """Per-row `metrics.kl(target, p_hat)` and its reverse pass to p_hat's
    gradient, -smooth(target) / (p_hat + eps): the floor's 1/(1 + D eps) cancels."""
    return kl_metric(target, p_hat), lambda g: -g[..., None] * smooth(target) / (p_hat + EPS)


def make_batch(split: Split, positions):
    """Teacher-forced inputs at `positions`, (sequence index, t) pairs of a
    split each predicting steps[t + 1] from steps[: t + 1], stacked for
    `_forward`: current distributions (B, D), features (B, F), the padded
    memory, and the targets (B, D). Row i's memory slot j is the pair
    (feats[j], steps[j + 1]) of its own sequence for j < t, else the pad
    row. A t outside 0 <= t < len(sequence) - 1 is an InvalidValue."""
    if len(positions) == 0:
        raise InvalidValue("no scored positions in batch")
    seq, t = np.asarray(positions, dtype=np.intp).T
    first = split.start[seq]
    if np.any((t < 0) | (t + 1 >= split.start[seq + 1] - first)):
        raise InvalidValue(f"batch positions {positions} need 0 <= t < len(sequence) - 1")
    slot = np.arange(max(t.max(), 1))
    mem = np.where(slot < t[:, None], first[:, None] + slot, -1)  # -1 is the pad row
    memory = (split.feats[mem], split.steps[np.where(mem < 0, -1, mem + 1)], np.zeros_like(t), t)
    rows = first + t
    return split.steps[rows], split.feats[rows], memory, split.steps[rows + 1]


def loss_var(batch: tuple, params: CastParams, out: CastParams | None = None) -> Var:
    """Mean one-step KL over a `make_batch` batch plus lambda_op times the
    mean operator regularizer, as the one tape node of a training step over
    one leaf, `params.flat`. Its backward runs the mean, the KL, the step's
    `vjp` plus the prior's, then each head's reverse pass into its views of
    a gradient laid out as `params.flat`: the buffer of `out` when given,
    else a new one. Every head in the layout runs on every batch, so every
    view is written and none keeps a value from an earlier step; retrieval's
    reverse pass writes the w_qk view of `out` directly."""
    cfg = params.cfg
    p, h, memory, targets = batch
    p_hat, parts, heads = _forward(p, h, memory, params.values, cfg,
                                   None if out is None else out.values)
    kl, kl_back = _kl_term(targets, p_hat)
    n = len(kl)
    total = kl.sum() / n
    prior = None
    if cfg.variant != "no_structural_reg":
        prior = operator_regularizer(parts, cfg.reg_weights)
    if prior is not None:
        total = total + (prior[0].sum() / n) * cfg.lambda_op

    def back(g):
        g_in = parts["vjp"](kl_back(np.full(n, g / n)))
        if prior is not None:
            g_in = [a + b for a, b in zip(g_in, prior[1](np.full(n, g * cfg.lambda_op / n)))]
        g_in = dict(zip(("r", "lam", "kernel", "rho"), g_in))
        grad = CastParams(cfg, np.empty_like(params.flat)) if out is None else out
        for name, keys, head_back in heads:
            for key, g_key in zip(keys, head_back(g_in[name]), strict=True):
                if g_key is not grad.values[key]:  # retrieval writes out's w_qk itself
                    grad.values[key][...] = g_key
        return (grad.flat,)

    return Var(total, (Var(params.flat),), back)


def gradient(batch: tuple, params: CastParams,
             out: CastParams | None = None) -> tuple[float, np.ndarray]:
    """The training loss and its exact gradient, laid out as `params.flat`
    (in `out.flat` when given), which holds only the heads the config runs."""
    node = loss_var(batch, params, out)
    node.backward()
    return node.item(), node.parents[0].grad


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
    tail_average: float = 0.0  # fraction of final iters whose weights are averaged

    def __post_init__(self):
        for name in ("iters", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise InvalidValue(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.warmup < 0:
            raise InvalidValue(f"warmup must be >= 0, got {self.warmup}")
        # written so that NaN fails every check
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise InvalidValue(f"lr must be positive and finite, got {self.lr}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise InvalidValue(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not (np.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise InvalidValue(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if not 0.0 <= self.tail_average < 1.0:
            raise InvalidValue(f"tail_average must lie in [0, 1), got {self.tail_average}")


def evaluate_val_kl(split: Split, params: CastParams, max_positions: int) -> float:
    """Mean one-step KL over a split's first `max_positions` scored positions:
    one `kl` call over their `predict` rows, summed in position order."""
    positions = scored_positions(split)[:max_positions]
    i, ts = np.reshape(positions, (-1, 2)).T
    kls = kl_metric(split.steps[split.start[i] + ts + 1], predict(split, i, ts, params))
    return float(sum(kls) / len(positions))


def train(
    train_seqs,
    val_seqs,
    cfg: ModelConfig,
    tc: TrainConfig,
    seed: int,
) -> tuple[CastParams, list[dict]]:
    """AdamW with linear warmup, gradient-norm clipping, and model selection
    by lowest validation one-step KL, each split packed once (`Split`). The
    clipping norm is one sum over the gradient, Adam's bias corrections two
    scalars. Deterministic given the seed, whatever the BLAS thread count."""
    rng = np.random.default_rng(seed)
    params = CastParams.init(cfg, seed)
    positions = scored_positions(train_seqs)
    if not positions:
        raise InvalidValue("training split has no scored positions")
    # model selection needs a score: without one, train would return the init
    if not scored_positions(val_seqs):
        raise InvalidValue("validation split has no scored positions")
    # the gradient with its named views, the AdamW moments and a scratch
    # buffer in the layout of params.flat; each step writes into them, since a
    # new parameter-sized array per step can cost fresh pages and page faults
    grad = CastParams(cfg, np.zeros_like(params.flat))
    g = grad.flat
    m, v, work = (np.zeros_like(params.flat) for _ in range(3))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    # a sequence is its index in its packed split: ids are unique only per file
    train_split, val_split = Split(train_seqs, cfg), Split(val_seqs, cfg)
    best = params.copy()
    best_val = np.inf
    log: list[dict] = []
    n_avg = int(tc.iters * tc.tail_average)  # final iterates averaged; 0 turns it off
    avg_sum = None

    for step in range(1, tc.iters + 1):
        idx = rng.integers(0, len(positions), size=min(tc.batch_size, len(positions)))
        # no name holds the batch, so its padded memory is freed before validation
        picked = [positions[i] for i in idx]
        loss_value, _ = gradient(make_batch(train_split, picked), params, grad)
        if not np.isfinite(loss_value):
            raise InvalidValue(f"loss is not finite at step {step}: {loss_value}")

        # einsum, not BLAS's dot, which splits the sum by its thread count
        norm = math.sqrt(np.einsum("i,i->", g, g))
        scale = min(1.0, tc.clip_norm / (norm + 1e-12))
        lr = tc.lr * min(1.0, step / max(tc.warmup, 1))
        if scale != 1.0:
            g *= scale
        m *= beta1
        m += np.multiply(1 - beta1, g, out=work)
        v *= beta2
        v += np.multiply(np.multiply(1 - beta2, g, out=work), g, out=work)
        # lr * mhat / (sqrt(vhat) + eps) with the bias corrections folded into two scalars
        # (Kingma & Ba, arXiv:1412.6980, section 2); g becomes that plus lr * wd * flat
        correction = math.sqrt(1 - beta2**step)
        alpha, eps_hat = lr * correction / (1 - beta1**step), adam_eps * correction
        np.divide(m, np.add(np.sqrt(v, out=work), eps_hat, out=work), out=g)
        g *= alpha
        if tc.weight_decay:
            g += np.multiply(lr * tc.weight_decay, params.flat, out=work)
        params.flat -= g

        if step > tc.iters - n_avg:
            if avg_sum is None:
                avg_sum = params.flat.copy()
            else:
                avg_sum += params.flat

        if step % tc.eval_every == 0 or step == tc.iters:
            val_kl = evaluate_val_kl(val_split, params, MAX_VAL_POSITIONS)
            log.append({"step": step, "train_loss": loss_value, "val_kl": val_kl})
            if val_kl < best_val:
                best_val = val_kl
                best = params.copy()

    if avg_sum is not None:
        # Polyak-style tail averaging: the averaged iterate suppresses the
        # stochastic-gradient noise floor, so it replaces checkpoint selection
        best = CastParams(cfg, avg_sum / n_avg)
        val_kl = evaluate_val_kl(val_split, best, MAX_VAL_POSITIONS)
        log.append({"step": tc.iters, "train_loss": float("nan"), "val_kl": val_kl})
    return best, log
