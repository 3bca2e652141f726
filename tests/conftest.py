import numpy as np
import pytest

from simplexcast.errors import InvalidValue
from simplexcast.metrics import l1


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dist(rng, d):
    v = rng.gamma(1.0, 1.0, size=d)
    while v.sum() == 0:
        v = rng.gamma(1.0, 1.0, size=d)
    return v / v.sum()


# ------------------------------------------------------------------------
# Per-row and per-position reference code for the block primitives of
# `simplexcast.simplex`: the block versions must reproduce these bytes.


def window_ref(steps, t, w):
    """Last-w window ending at t, zero-padded on the left, flattened."""
    d = steps.shape[1]
    out = np.zeros((w, d))
    lo = max(0, t - w + 1)
    out[w - (t + 1 - lo) :] = steps[lo : t + 1]
    return out.ravel()


def descriptor_ref(steps, t, w):
    """The same window built by stacking a zero pad onto the slice."""
    lo = max(0, t + 1 - w)
    window = steps[lo : t + 1]
    if len(window) < w:
        window = np.vstack([np.zeros((w - len(window), steps.shape[1])), window])
    return window.reshape(-1)


def stacked_windows_ref(steps, w):
    """Every window at once, stacked from a left-padded copy."""
    t_len, d = steps.shape
    padded = np.vstack([np.zeros((w - 1, d)), steps])
    return np.stack([padded[t : t + w] for t in range(t_len)]).reshape(t_len, w * d)


def smooth_row_ref(p, eps=1e-8):
    return (p + eps) / (1.0 + p.size * eps)


def ilr_row_ref(p):
    """ilr of one interior distribution as a 1-D clr and mat-vec."""
    from simplexcast.simplex import helmert_basis

    logp = np.log(p)
    return helmert_basis(p.size) @ (logp - logp.mean())


def ilr_inverse_row_ref(z):
    """Inverse ilr of one coordinate vector as a 1-D mat-vec and softmax."""
    from simplexcast.simplex import helmert_basis

    x = helmert_basis(z.size + 1).T @ z
    e = np.exp(x - x.max())
    return e / e.sum()


def ilr_rows_ref(steps):
    return np.array([ilr_row_ref(smooth_row_ref(p)) for p in steps])


# ------------------------------------------------------------------------
# Per-row references for the packed split of `simplexcast.model`: a batch
# built row by row, each memory copied into its own padded slots, and a
# per-position scorer with its own encoding and memory.


def pad_memory_ref(mem_feats, mem_succ):
    """Pads per-row retrieval memories, (t_i, F) features and (t_i, D)
    successors, to the longest t: (B, T, F), (B, T, D) and each row's window
    of slots, from 0 (B,) to its length (B,). When every memory is empty, T
    is one masked slot."""
    lengths = np.array([len(m) for m in mem_feats])
    t_max = max(int(lengths.max()), 1)
    feats = np.zeros((len(lengths), t_max, mem_feats[0].shape[-1]))
    succ = np.zeros((len(lengths), t_max, mem_succ[0].shape[-1]))
    for i, t in enumerate(lengths):
        feats[i, :t] = mem_feats[i]
        succ[i, :t] = mem_succ[i]
    return feats, succ, np.zeros_like(lengths), lengths


def make_batch_ref(seqs, positions, cfg):
    """`model.make_batch` row by row: each position's own sequence encoded,
    and its memory the pairs (feats[j], steps[j + 1]) for j < t."""
    from simplexcast.model import encode_all

    items = [(seqs[i].steps, t, encode_all(seqs[i].steps, cfg)) for i, t in positions]
    p = np.stack([steps[t] for steps, t, _ in items])
    h = np.stack([feats[t] for _, t, feats in items])
    memory = pad_memory_ref(
        [feats[:t] for _, t, feats in items], [steps[1 : t + 1] for steps, t, _ in items]
    )
    targets = np.stack([steps[t + 1] for steps, t, _ in items])
    return p, h, memory, targets


def forward_steps(steps, ts, params):
    """`model.forward` over a split of the one sequence `steps`."""
    from simplexcast.model import Split, forward
    from simplexcast.simplex import SimplexSeries

    seq = SimplexSeries("s", params.cfg.ordered, steps)
    return forward(Split([seq], params.cfg), 0, ts, params)


def cast_predict_ref(params, steps, t):
    """The forecast of steps[t + 1] from its own encoding of steps[: t + 1]
    and its own memory of the t pairs before t."""
    from simplexcast.model import _forward, encode_all

    prefix = steps[: t + 1]
    feats = encode_all(prefix, params.cfg)
    memory = pad_memory_ref([feats[:t]], [prefix[1:]])
    p_hat, _, _ = _forward(prefix[t:], feats[t:], memory, params.values, params.cfg)
    return p_hat[0]


def loss(batch, params):
    """The training loss of `model.loss_var` at `params`, as a float."""
    from simplexcast.model import loss_var

    return loss_var(batch, params).item()


def val_kl_ref(seqs, params, max_positions):
    """Mean one-step KL over the first `max_positions` scored positions."""
    from simplexcast.metrics import kl
    from simplexcast.model import scored_positions

    positions = scored_positions(seqs)[:max_positions]
    total = 0.0
    for seq_idx, t in positions:
        steps = seqs[seq_idx].steps
        total += kl(steps[t + 1], cast_predict_ref(params, steps, t))
    return total / len(positions)


# ------------------------------------------------------------------------
# One-pair references for the metrics of `simplexcast.metrics`, which reduce
# over the last axis: every row of a block must reproduce these bytes.


def kl_ref(p, q, eps=1e-8):
    ps, qs = smooth_row_ref(p, eps), smooth_row_ref(q, eps)
    return float(np.sum(ps * (np.log(ps) - np.log(qs))))


def jsd_ref(p, q, eps=1e-8):
    m = 0.5 * (p + q)
    return 0.5 * kl_ref(p, m, eps) + 0.5 * kl_ref(q, m, eps)


def l1_ref(p, q):
    return float(np.abs(p - q).sum())


def bray_curtis_ref(p, q):
    return float(np.abs(p - q).sum() / (p + q).sum())


def w1_ordered_ref(p, q):
    return float(np.abs(np.cumsum(p - q)).sum())


METRIC_REFS = {
    "kl": kl_ref,
    "jsd": jsd_ref,
    "l1": l1_ref,
    "bray_curtis": bray_curtis_ref,
    "w1_ordered": w1_ordered_ref,
}


# ------------------------------------------------------------------------
# Closed forms that only the tests use: the anchor mix of the operator and
# Pinsker's lower bound on KL.


def convex_mix(a, b, lam):
    """Entrywise lam*a + (1-lam)*b; stays on the simplex by convexity."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidValue(f"shapes {a.shape} and {b.shape} differ")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    return lam * a + (1.0 - lam) * b


def pinsker_lower_bound(p, q):
    """0.5 * ||p - q||_1^2, a lower bound on kl(p, q)."""
    return 0.5 * l1(p, q) ** 2
