import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from simplexcast import model
from simplexcast.baselines import CastPredictor
from simplexcast.errors import InvalidValue
from simplexcast.evaluate import evaluate_offline
from simplexcast.metrics import kl, metric_report
from simplexcast.model import (
    CastParams,
    _forward,
    ModelConfig,
    SCORE_BLOCK,
    Split,
    TrainConfig,
    encode_all,
    evaluate_val_kl,
    fixed_local_kernel,
    forward,
    gradient,
    loss_var,
    make_batch,
    param_shapes,
    predict,
    score_blocks,
    scored_positions,
    support_position_encoding,
    train,
)
from simplexcast.simplex import SimplexSeries
from simplexcast.transport import BudgetParams

from conftest import forward_steps, loss, make_batch_ref, random_dist, val_kl_ref
from transport_reference import budget, mean_support


def random_series(rng, t_len, d, seq_id="s0", ordered=True):
    steps = np.array([random_dist(rng, d) for _ in range(t_len)])
    return SimplexSeries(seq_id, ordered, steps)


def small_cfg(**kw):
    defaults = dict(dim=5, ordered=True, window=3, heads=2, d_r=8)
    defaults.update(kw)
    return ModelConfig(**defaults)


# ---------------------------------------------------------------- features


def test_encode_constant_series_ew_mean_equals_current():
    cfg = small_cfg()
    p = np.full(5, 0.2)
    steps = np.tile(p, (6, 1))
    feats = encode_all(steps, cfg)
    d, w = cfg.dim, cfg.window
    ew = feats[-1, w * d : (w + 1) * d]
    assert np.allclose(ew, p)


def test_encode_beta_zero_ignores_old_history(rng):
    cfg = small_cfg(ew_beta=0.0)
    steps = np.array([random_dist(rng, 5) for _ in range(10)])
    permuted = steps.copy()
    permuted[:7] = steps[:7][::-1]  # shuffle strictly before the last window
    assert np.allclose(encode_all(steps, cfg)[-1], encode_all(permuted, cfg)[-1])


def test_encode_causality(rng):
    cfg = small_cfg()
    steps = np.array([random_dist(rng, 5) for _ in range(10)])
    mutated = steps.copy()
    mutated[6:] = 1.0 / 5
    assert np.allclose(encode_all(steps, cfg)[:6], encode_all(mutated, cfg)[:6])


def test_encode_feature_dims(rng):
    steps = np.array([random_dist(rng, 5) for _ in range(4)])
    for cfg in (
        small_cfg(),
        small_cfg(ordered=False),
        small_cfg(feature_mode="current_only"),
    ):
        assert encode_all(steps, cfg).shape == (4, cfg.feature_dim)


def test_encode_delta_and_window_padding(rng):
    cfg = small_cfg()
    steps = np.array([random_dist(rng, 5) for _ in range(2)])
    feats = encode_all(steps, cfg)
    d, w = cfg.dim, cfg.window
    # first row: zero delta, window zero-padded except the last slot
    assert np.allclose(feats[0, (w + 1) * d : (w + 2) * d], 0.0)
    assert np.allclose(feats[0, : (w - 1) * d], 0.0)
    assert np.allclose(feats[0, (w - 1) * d : w * d], steps[0])
    assert np.allclose(feats[1, (w + 1) * d : (w + 2) * d], steps[1] - steps[0])


def test_support_position_encoding_shape_and_range():
    pe = support_position_encoding(7)
    assert pe.shape == (7, 2)
    assert np.all(np.abs(pe) <= 1.0 + 1e-12)
    # second column is injective over bins (cosine over [0, pi])
    assert np.all(np.diff(pe[:, 1]) < 0)


# ---------------------------------------------------------------- forward


def _scored(rng, cfg, params, t_len=7):
    """forward over every scored row of a random sequence."""
    steps = np.array([random_dist(rng, cfg.dim) for _ in range(t_len)])
    p_hat, parts = forward_steps(steps, np.arange(t_len - 1), params)
    return steps, p_hat, parts


def test_forward_outputs_simplex_and_gate_bounds(rng):
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=0)
    for _ in range(20):
        _, p_hat, parts = _scored(rng, cfg, params)
        assert np.all(p_hat >= -1e-12)
        assert np.allclose(p_hat.sum(axis=1), 1.0, atol=1e-9)
        lam = parts["lam"]
        assert np.all((cfg.lambda_min - 1e-12 <= lam) & (lam <= cfg.lambda_max + 1e-12))
        rho_eff = parts["rho_eff"]
        assert np.all((0.0 <= rho_eff) & (rho_eff <= cfg.rho_max + 1e-12))
        assert np.allclose(parts["kernel"].sum(axis=-1), 1.0)


def test_forward_empty_memory_falls_back_to_persistence(rng):
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=0)
    p0 = random_dist(rng, cfg.dim)
    _, parts = forward_steps(p0[None, :], [0], params)
    assert np.allclose(parts["r"][0], p0)
    # the t = 0 row of a longer call has no memory either
    steps, _, parts = _scored(rng, cfg, params)
    assert np.allclose(parts["r"][0], steps[0])


def test_forward_current_only_ignores_memory(rng):
    cfg = small_cfg(feature_mode="current_only")
    params = CastParams.init(cfg, seed=0)
    steps, p_hat, parts = _scored(rng, cfg, params)
    for t in range(len(p_hat)):
        alone, _ = forward_steps(steps[t : t + 1], [0], params)
        assert np.allclose(p_hat[t], alone[0])
    assert np.allclose(parts["r"], steps[:-1])


def test_forward_mean_drift_bounded_by_budget(rng):
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=3)
    for _ in range(50):
        _, p_hat, parts = _scored(rng, cfg, params)
        for p, a in zip(p_hat, parts["a"]):
            drift = abs(mean_support(p) - mean_support(a))
            assert drift <= cfg.rho_max * budget(cfg.budget, a) + 1e-9


def test_anchor_only_variant_disables_transport(rng):
    cfg = small_cfg(variant="anchor_only")
    params = CastParams.init(cfg, seed=0)
    _, p_hat, parts = _scored(rng, cfg, params)
    assert parts["rho_eff"] is None
    assert parts["kernel"] is None
    assert np.allclose(p_hat, parts["a"])


def test_no_persistence_mix_variant(rng):
    cfg = small_cfg(variant="no_persistence_mix")
    params = CastParams.init(cfg, seed=0)
    _, _, parts = _scored(rng, cfg, params)
    assert np.all(parts["lam"] == 0.0)
    assert np.allclose(parts["a"], parts["r"])


def test_single_head_variant_forces_one_head():
    cfg = ModelConfig(dim=5, ordered=True, heads=4, variant="single_head")
    assert cfg.heads == 1
    params = CastParams.init(cfg, seed=0)
    assert params.values["w_qk"].shape[0] == 1 and "w_eta" not in params.values


def test_fixed_local_kernel_rows():
    k = fixed_local_kernel(6)
    assert np.allclose(k.sum(axis=1), 1.0)
    assert k[0, 0] == 0.0 and k[-1, 2] == 0.0
    assert np.allclose(k[2], [0.25, 0.5, 0.25])


def test_support_constants_are_computed_once_and_read_only():
    for make in (support_position_encoding, fixed_local_kernel):
        shared = make(6)
        assert make(6) is shared and make(7) is not shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            shared += 1.0


def test_fixed_local_kernel_variant_uses_constant_kernel(rng):
    cfg = small_cfg(variant="fixed_local_kernel")
    params = CastParams.init(cfg, seed=0)
    _, _, parts = _scored(rng, cfg, params)
    assert np.allclose(parts["kernel"], fixed_local_kernel(cfg.dim))


def test_unordered_config_has_no_transport(rng):
    cfg = small_cfg(ordered=False)
    params = CastParams.init(cfg, seed=0)
    _, p_hat, parts = _scored(rng, cfg, params)
    assert parts["kernel"] is None
    assert np.allclose(p_hat, parts["a"])


def test_initial_gate_values_match_config(rng):
    # with zero feature weights the gates sit exactly at their init targets
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=0)
    params.values["w_gate"][:] = 0.0
    params.values["w_rho"][:] = 0.0
    _, _, parts = _scored(rng, cfg, params)
    assert np.allclose(parts["lam"], cfg.lambda_init, atol=1e-12)


def test_scoring_builds_no_tape(rng, monkeypatch):
    # forward, validation scoring, the cast predictor and the theory oracle
    # run on plain arrays: none of them constructs a tape node
    from simplexcast import autodiff
    from simplexcast.theory import cast_oracle, default_scenario

    made = []
    init = autodiff.Var.__init__

    def counting_init(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff.Var, "__init__", counting_init)
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=0)
    seqs = [random_series(rng, 7, cfg.dim, f"s{i}") for i in range(2)]
    split = Split(seqs, cfg)
    forward(split, 0, np.arange(6), params)
    evaluate_val_kl(split, params, 10)
    CastPredictor(params).predict_all(seqs[1].steps, np.arange(6))
    cast_oracle(default_scenario(), BudgetParams())
    assert made == []
    # positive control: a training step's gradient builds the loss node
    # and its one leaf
    gradient(make_batch(split, [(0, 3)]), params)
    assert len(made) == 2


# ---------------------------------------------------------------- causality


def test_forward_ignores_future_steps(rng):
    # one call scores rows before and after t over one shared memory; the
    # mask alone keeps row t from reading steps[t + 1 :]
    for kw in ({}, dict(ordered=False), dict(feature_mode="current_only")):
        cfg = small_cfg(**kw)
        params = CastParams.init(cfg, seed=1)
        steps = np.array([random_dist(rng, cfg.dim) for _ in range(9)])
        ts = np.arange(8)
        base, _ = forward_steps(steps, ts, params)
        for t in ts:
            mutated = steps.copy()
            mutated[t + 1 :] = np.roll(mutated[t + 1 :], 1, axis=-1)
            out, _ = forward_steps(mutated, ts, params)
            np.testing.assert_array_equal(out[: t + 1], base[: t + 1])


def test_memory_is_strictly_causal(rng):
    # the successor of the current step must not be available at retrieval:
    # row 1's memory is the single pair (feats[0], steps[1]), so r = p_1
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=1)
    steps = np.array([random_dist(rng, cfg.dim) for _ in range(9)])
    _, parts = forward_steps(steps, [1, 5], params)
    assert np.allclose(parts["r"][0], steps[1])
    assert not np.allclose(parts["r"][0], steps[2])


def test_forward_on_a_packed_split_equals_the_sequence_alone(rng):
    # a sequence scores the same bytes in a split of several, a length-1
    # sequence among them, as in a split of its own
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=1)
    seqs = [random_series(rng, n, cfg.dim, f"s{n}") for n in (9, 1, 4, 6)]
    split = Split(seqs, cfg)
    for i, ts in ((0, [0, 3, 7, 8]), (1, [0]), (2, [3, 1]), (3, [0, 5])):
        got, _ = forward(split, i, ts, params)
        alone, _ = forward_steps(seqs[i].steps, ts, params)
        np.testing.assert_array_equal(got, alone)


# short sequences around one whose 60 scored rows over 59 slots exceed
# SCORE_BLOCK alone, a length-1 one among them
PACKED_LENGTHS = (4, 1, 6, 3, 5, 61, 5, 2, 4, 7, 3)
LONG = 5


def test_packed_blocks_equal_each_sequence_alone(rng):
    assert 60 * 59 > SCORE_BLOCK >= 4 * 60
    for kw in ({}, dict(ordered=False), dict(feature_mode="current_only"),
               dict(variant="single_head"), dict(variant="fixed_local_kernel")):
        cfg = small_cfg(**kw)
        params = CastParams.init(cfg, seed=5)
        seqs = [random_series(rng, n, cfg.dim, f"s{k}") for k, n in enumerate(PACKED_LENGTHS)]
        seqs[2].loss_mask[[0, 3]] = False
        split = Split(seqs, cfg)
        i, ts = np.transpose(scored_positions(split))
        blocks = list(score_blocks(split, i, ts))
        np.testing.assert_array_equal(np.concatenate([b for b, _ in blocks]), i)
        np.testing.assert_array_equal(np.concatenate([t for _, t in blocks]), ts)
        if cfg.feature_mode == "full":
            assert [set(b) for b, _ in blocks].count({LONG}) == 1
            assert max(len(set(b)) for b, _ in blocks) > 2
        else:
            # without memory a block is bounded by its rows alone
            assert len(blocks) == 1
        for bi, bts in blocks:
            lo = split.start[bi]
            if len(set(bi)) > 1 and cfg.feature_mode == "full":
                assert len(bi) * ((lo + bts).max() - lo[0]) <= SCORE_BLOCK
            got = forward(split, bi, bts, params)[0]
            for k in set(bi):
                alone = forward_steps(seqs[k].steps, bts[bi == k], params)[0]
                if set(bi) == {k}:
                    np.testing.assert_array_equal(got[bi == k], alone)
                else:
                    np.testing.assert_allclose(got[bi == k], alone, rtol=1e-12, atol=0)


def test_predict_is_forward_over_one_sequence_and_empty_without_positions(rng):
    for kw in ({}, dict(feature_mode="current_only")):
        cfg = small_cfg(**kw)
        params = CastParams.init(cfg, seed=3)
        split = Split([random_series(rng, 6, cfg.dim, "s0")], cfg)
        ts = np.array([4, 0, 2])
        np.testing.assert_array_equal(predict(split, 0, ts, params),
                                      forward(split, 0, ts, params)[0])
        for i in (0, []):
            assert predict(split, i, [], params).shape == (0, cfg.dim)


def test_scoring_is_one_forward_per_block_and_no_batch(rng, monkeypatch):
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=6)
    seqs = [random_series(rng, n, cfg.dim, f"s{k}") for k, n in enumerate(PACKED_LENGTHS)]
    split = Split(seqs, cfg)
    n_blocks = len(list(score_blocks(split, *np.transpose(scored_positions(split)))))
    assert n_blocks < len(seqs)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return forward(*args)

    def refused(*args):
        raise AssertionError("scoring built a training batch")

    monkeypatch.setattr(model, "forward", counted)
    monkeypatch.setattr(model, "make_batch", refused)
    evaluate_val_kl(split, params, 10_000)
    assert len(calls) == n_blocks
    calls.clear()
    evaluate_offline(CastPredictor(params), seqs)
    assert len(calls) == n_blocks


def test_cast_offline_evaluation_equals_the_per_sequence_loop(rng):
    for kw in ({}, dict(ordered=False), dict(variant="anchor_only")):
        cfg = small_cfg(**kw)
        predictor = CastPredictor(CastParams.init(cfg, seed=7))
        seqs = [random_series(rng, n, cfg.dim, f"s{k}", cfg.ordered)
                for k, n in enumerate(PACKED_LENGTHS)]
        seqs[3].loss_mask[:] = False  # a sequence with no scored row is skipped
        seqs[6].loss_mask[[1, 2]] = False
        reports = [
            metric_report(seq.steps[ts + 1], predictor.predict_all(seq.steps, ts), seq.ordered)
            for seq in seqs if len(ts := np.flatnonzero(seq.loss_mask))
        ]
        # the mean over every scored row of every sequence
        want = {name: np.concatenate([r[name] for r in reports]).mean() for name in reports[0]}
        got = evaluate_offline(predictor, seqs)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-12, abs=0), name


def test_evaluate_val_kl_equals_per_position_reference(rng):
    for kw in ({}, dict(variant="no_persistence_mix"), dict(ordered=False),
               dict(feature_mode="current_only")):
        cfg = small_cfg(**kw)
        params = CastParams.init(cfg, seed=2)
        seqs = [random_series(rng, n, cfg.dim, f"v{n}") for n in (9, 2, 6)]
        seqs[2].loss_mask[[1, 3]] = False  # non-contiguous scored rows
        # 20 covers every position; 10 stops inside the last sequence
        for max_positions in (20, 10, 1):
            got = evaluate_val_kl(Split(seqs, cfg), params, max_positions)
            want = val_kl_ref(seqs, params, max_positions)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------- gradient


def _flatten(params):
    return np.concatenate([params.values[k].ravel() for k in sorted(params.values)])


def _unflatten(params, flat):
    out = params.copy()
    i = 0
    for k in sorted(out.values):
        n = out.values[k].size
        out.values[k][...] = flat[i : i + n].reshape(out.values[k].shape)
        i += n
    return out


FD_VARIANTS = ("full", "no_structural_reg", "anchor_only", "fixed_local_kernel",
               "no_persistence_mix")
# a budget so small that the mean-shift gate binds (gate < 1), with room for
# the strength to grow
GATE_BINDS = dict(budget=BudgetParams(0.01, 0.0), rho_max=1.0)


@pytest.mark.parametrize("kw", [dict(variant=v) for v in FD_VARIANTS] + [GATE_BINDS],
                         ids=list(FD_VARIANTS) + ["gate_binds"])
def test_gradient_matches_finite_differences(rng, kw):
    cfg = small_cfg(**kw)
    params = CastParams.init(cfg, seed=7)
    seqs = [random_series(rng, 7, cfg.dim, f"s{i}") for i in range(2)]
    batch = make_batch(Split(seqs, cfg), [(0, 4), (1, 5), (0, 2)])
    if kw is GATE_BINDS:
        parts = _forward(*batch[:3], params.values, cfg)[1]
        assert np.any(parts["rho_eff"] < parts["rho"])

    _, g = gradient(batch, params)
    grads = CastParams(cfg, g).values
    flat_grad = np.concatenate([grads[k].ravel() for k in sorted(grads)])

    flat0 = _flatten(params)
    step = 1e-5
    check_idx = np.linspace(0, flat0.size - 1, 120).astype(int)
    fd = np.zeros_like(check_idx, dtype=float)
    for j, i in enumerate(check_idx):
        plus = flat0.copy()
        plus[i] += step
        minus = flat0.copy()
        minus[i] -= step
        fd[j] = (
            loss(batch, _unflatten(params, plus)) - loss(batch, _unflatten(params, minus))
        ) / (2 * step)
    analytic = flat_grad[check_idx]
    denom = np.maximum(np.abs(fd), np.abs(analytic))
    mask = denom > 1e-10
    rel = np.abs(fd - analytic)[mask] / denom[mask]
    assert rel.max() < 1e-4


@pytest.mark.parametrize(
    "kw",
    [dict(variant=v) for v in ("full", "no_structural_reg", "anchor_only", "single_head",
                               "fixed_local_kernel", "no_persistence_mix")]
    + [dict(feature_mode="current_only"), dict(ordered=False)],
)
def test_batch_equals_mean_of_one_item_batches(rng, kw):
    cfg = small_cfg(**kw)
    params = CastParams.init(cfg, seed=3)
    seqs = [random_series(rng, n, cfg.dim, f"s{n}") for n in (9, 5, 3)]
    # a t = 0 item (empty memory) and memories of unequal lengths
    positions = [(0, 0), (0, 7), (1, 3), (2, 1), (0, 4)]
    split = Split(seqs, cfg)
    loss_b, g_b = gradient(make_batch(split, positions), params)
    singles = [gradient(make_batch(split, [pos]), params) for pos in positions]
    assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12, abs=1e-15)
    grads_single = [CastParams(cfg, s[1]).values for s in singles]
    for k, g in CastParams(cfg, g_b).values.items():
        mean = np.mean([grads[k] for grads in grads_single], axis=0)
        scale = max(np.abs(mean).max(), 1e-300)
        assert np.abs(g - mean).max() <= 1e-12 * scale, k


def test_batched_forward_is_causal(rng):
    cfg = small_cfg()
    values = CastParams.init(cfg, seed=1).values
    seqs = [random_series(rng, 10, cfg.dim, f"s{i}") for i in range(2)]
    positions = [(0, 6), (1, 2), (0, 0)]

    def p_hat(seqs):
        p, h, memory, _ = make_batch(Split(seqs, cfg), positions)
        return _forward(p, h, memory, values, cfg)[0]

    base = p_hat(seqs)
    for i, (seq_idx, t) in enumerate(positions):
        steps = seqs[seq_idx].steps.copy()
        steps[t + 2 :] = np.roll(steps[t + 2 :], 1, axis=-1)
        edited = list(seqs)
        edited[seq_idx] = SimplexSeries(f"s{seq_idx}", True, steps)
        np.testing.assert_array_equal(p_hat(edited)[i], base[i])


# ---------------------------------------------------------------- packed split


@pytest.mark.parametrize(
    "kw",
    [dict(heads=h) for h in (1, 2, 3)]
    + [dict(variant=v) for v in ("anchor_only", "single_head", "no_persistence_mix")]
    + [dict(feature_mode="current_only"), dict(ordered=False, heads=3)],
    ids=["h1", "h2", "h3", "anchor_only", "single_head", "no_persistence_mix", "current_only",
         "unordered_h3"],
)
def test_packed_batch_equals_per_row_reference(rng, kw):
    # sequences of mixed lengths, length-1 ones among them (no position of
    # their own, but they move the start of every later sequence); t = 0
    # rows, a sequence's last position and repeated positions
    cfg = small_cfg(**kw)
    params = CastParams.init(cfg, seed=5)
    seqs = [random_series(rng, n, cfg.dim, f"s{i}", ordered=cfg.ordered)
            for i, n in enumerate((1, 9, 2, 1, 6, 3))]
    split = Split(seqs, cfg)
    scored = scored_positions(seqs)
    fixed = [(1, 0), (1, 7), (2, 0), (4, 4), (1, 7), (5, 1), (4, 0), (4, 4)]
    for positions in [fixed, [(2, 0)]] + [
        [scored[j] for j in rng.integers(0, len(scored), size=8)] for _ in range(4)
    ]:
        got, want = make_batch(split, positions), make_batch_ref(seqs, positions, cfg)
        for a, b in zip((*got[:2], *got[2], got[3]), (*want[:2], *want[2], want[3])):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)
        loss_got, g_got = gradient(got, params)
        loss_want, g_want = gradient(want, params)
        assert loss_got == loss_want
        np.testing.assert_array_equal(g_got, g_want)


def test_split_boundary_causality(rng):
    # a row reads only its own sequence: editing every other sequence of the
    # split, in its values or its length, moves no kept row's p_hat or
    # gradient. Rows (2, 0) and (4, 0) are t = 0 rows of sequences that
    # follow longer ones, and (2, 1) and (4, 3) read the first slots after
    # a boundary
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=3)
    lengths = (9, 6, 3, 8, 5, 2)
    seqs = [random_series(rng, n, cfg.dim, f"s{i}") for i, n in enumerate(lengths)]
    positions = [(0, 7), (0, 2), (2, 0), (2, 1), (4, 0), (4, 3)]

    def rows(seqs):
        split = Split(seqs, cfg)
        batch = make_batch(split, positions)
        p_hat = _forward(*batch[:3], params.values, cfg)[0]
        grads = [gradient(make_batch(split, [pos]), params)[1] for pos in positions]
        scores = [forward(split, i, [t for j, t in positions if j == i], params)[0]
                  for i in (0, 2, 4)]
        return p_hat, grads, scores, forward(split, *np.transpose(positions), params)[0]

    base = rows(seqs)
    for new_len in (lambda n: n, lambda n: n + 3, lambda n: 1):
        edited = [seq if i % 2 == 0 else random_series(rng, new_len(len(seq)), cfg.dim, seq.id)
                  for i, seq in enumerate(seqs)]
        got = rows(edited)
        np.testing.assert_array_equal(got[0], base[0])
        for a, b in zip(got[1] + got[2], base[1] + base[2]):
            np.testing.assert_array_equal(a, b)
        # packed, the other sequences' slots lie in the shared slice, masked:
        # new values keep every byte, and new lengths move the kept rows'
        # windows within the slice, whose sums may round in the last bits
        if new_len(5) == 5:
            np.testing.assert_array_equal(got[3], base[3])
        else:
            np.testing.assert_allclose(got[3], base[3], rtol=1e-12, atol=0)


def test_out_of_range_positions_are_refused(rng):
    # packed, an out-of-range t would read the next sequence's rows
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=0)
    split = Split([random_series(rng, n, cfg.dim, f"s{n}") for n in (4, 6, 5)], cfg)
    for pos in ((1, -1), (1, 5), (1, 9), (0, 3)):
        with pytest.raises(InvalidValue, match="need 0 <= t < len\\(sequence\\) - 1$"):
            make_batch(split, [(2, 1), pos])
    for ts in ([-1], [0, 6], [7]):
        with pytest.raises(InvalidValue, match="need 0 <= t < len\\(sequence\\)$"):
            forward(split, 1, ts, params)
    with pytest.raises(InvalidValue, match="^scored rows -1..2 need"):
        CastPredictor(params).predict_all(split[1].steps, [2, -1])


RETRIEVAL = ["w_qk", "w_eta"]
GATE, STRENGTH, KERNEL = ["w_gate", "b_gate"], ["w_rho", "b_rho"], ["wt_h", "wt_pe", "bt"]


@pytest.mark.parametrize(
    "kw, names",
    [
        (dict(variant="full"), RETRIEVAL + GATE + STRENGTH + KERNEL),
        (dict(variant="no_structural_reg"), RETRIEVAL + GATE + STRENGTH + KERNEL),
        (dict(variant="anchor_only"), RETRIEVAL + GATE),
        (dict(variant="single_head"), ["w_qk"] + GATE + STRENGTH + KERNEL),
        (dict(variant="fixed_local_kernel"), RETRIEVAL + GATE + STRENGTH),
        (dict(variant="no_persistence_mix"), RETRIEVAL + STRENGTH + KERNEL),
        (dict(feature_mode="current_only"), STRENGTH + KERNEL),
        (dict(ordered=False), RETRIEVAL + GATE),
    ],
    ids=["full", "no_structural_reg", "anchor_only", "single_head", "fixed_local_kernel",
         "no_persistence_mix", "current_only", "unordered"],
)
def test_layout_holds_only_the_heads_a_config_runs(rng, monkeypatch, kw, names):
    from simplexcast import model

    cfg = small_cfg(**kw)
    assert list(param_shapes(cfg)) == names
    # init draws every head in checkpoint order and keeps the ones that run:
    # each kept view equals the same name's values when every head runs,
    # which for the ordered full-feature `full` config with more than one
    # head is its own init
    every_head = model._heads
    for seed in (0, 7):
        params = CastParams.init(cfg, seed)
        with monkeypatch.context() as m:
            m.setattr(model, "_heads", lambda c: [(n, True, s) for n, _, s in every_head(c)])
            ref = CastParams.init(cfg, seed)
        if cfg.ordered and cfg.feature_mode == "full" and cfg.heads > 1:
            full = CastParams.init(replace(cfg, variant="full"), seed)
            np.testing.assert_array_equal(ref.flat, full.flat)
        for k, x in params.values.items():
            np.testing.assert_array_equal(x, ref.values[k], err_msg=k)
    # no dead head: on a batch with memory every view's gradient is nonzero
    # somewhere
    seqs = [random_series(rng, 6, cfg.dim, ordered=cfg.ordered)]
    _, g = gradient(make_batch(Split(seqs, cfg), [(0, 3), (0, 4)]),
                    CastParams.init(cfg, seed=2))
    for k, x in CastParams(cfg, g).values.items():
        assert x.any(), k


def test_config_that_runs_no_head_trains_saves_and_loads(rng, tmp_path):
    # current-only features, no persistence mix and an unordered support:
    # p_hat = p, and the parameter buffer is empty
    cfg = small_cfg(ordered=False, feature_mode="current_only", variant="no_persistence_mix")
    assert param_shapes(cfg) == {}
    seqs = [random_series(rng, 6, cfg.dim, f"s{i}", ordered=False) for i in range(3)]
    params, _ = train(seqs[:2], seqs[2:], cfg, TrainConfig(iters=3, eval_every=1), seed=0)
    params.save(tmp_path / "m.ckpt")
    loaded = CastParams.load(tmp_path / "m.ckpt")
    assert loaded.flat.shape == (0,)
    np.testing.assert_array_equal(forward(Split(seqs, cfg), 0, [2, 4], loaded)[0],
                                  seqs[0].steps[[2, 4]])


def test_gradient_into_a_used_buffer_equals_a_new_one(rng):
    # train passes one buffer to every step, holding the last step's update,
    # and every view is written on every step: on a batch whose positions
    # are all at t = 0 every memory row is masked, and retrieval's views come
    # back exactly 0
    seqs = [random_series(rng, 6, 5, f"s{i}") for i in range(2)]
    for variant, positions in (("anchor_only", [(0, 3), (0, 1)]), ("full", [(0, 0), (1, 0)])):
        cfg = small_cfg(variant=variant)
        params = CastParams.init(cfg, seed=2)
        batch = make_batch(Split(seqs, cfg), positions)
        value, g = gradient(batch, params)
        buf = CastParams(cfg, np.full_like(params.flat, np.nan))
        value_buf, g_buf = gradient(batch, params, buf)
        assert g_buf is buf.flat and value_buf == value
        np.testing.assert_array_equal(g_buf, g)
        if variant == "full":
            for k in RETRIEVAL:
                np.testing.assert_array_equal(buf.values[k], 0.0, err_msg=k)


@pytest.mark.parametrize(
    "feature_mode, variant", [("current_only", "full"), ("full", "anchor_only"), ("full", "full")]
)
def test_synthetic_tape_node_counts(feature_mode, variant):
    # the requires-grad nodes that one synthetic training step's backward
    # visits, batch of 8: the one loss node and its one leaf, the parameter
    # buffer, whichever heads the variant runs
    from simplexcast.theory import build_aliasing_dataset, default_scenario

    sc = default_scenario()
    cfg = ModelConfig(dim=sc.dim, ordered=True, feature_mode=feature_mode, variant=variant)
    seqs = build_aliasing_dataset(sc, 8, seed=0)
    out = loss_var(make_batch(Split(seqs, cfg), scored_positions(seqs)), CastParams.init(cfg, 0))
    seen, stack = {id(out): out}, [out]
    while stack:
        for parent in stack.pop().parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    with_rule = sum(node._backward is not None for node in seen.values())
    assert (with_rule, len(seen) - with_rule) == (1, 1)


# ---------------------------------------------------------------- training


def _tiny_dataset(rng, n, t_len=10, d=5):
    return [random_series(rng, t_len, d, f"seq{i}") for i in range(n)]


def test_train_is_deterministic(rng):
    cfg = small_cfg()
    seqs = _tiny_dataset(rng, 3)
    tc = TrainConfig(iters=20, batch_size=4, eval_every=10, lr=1e-3)
    p1, log1 = train(seqs[:2], seqs[2:], cfg, tc, seed=11)
    p2, log2 = train(seqs[:2], seqs[2:], cfg, tc, seed=11)
    for k in p1.values:
        assert np.array_equal(p1.values[k], p2.values[k])
    assert log1 == log2


def test_train_equals_textbook_adamw(rng):
    # AdamW as Kingma & Ba write it, with m-hat and v-hat, over the same batch
    # draws and `gradient`; clipping binds at every step and the weights
    # decay. eval_every = iters, so model selection returns the last iterate
    cfg = small_cfg()
    seqs = _tiny_dataset(rng, 3)
    tc = TrainConfig(iters=12, batch_size=4, lr=1e-2, warmup=5, weight_decay=0.1,
                     clip_norm=1e-3, eval_every=12)
    got, _ = train(seqs[:2], seqs[2:], cfg, tc, seed=5)

    draws, params = np.random.default_rng(5), CastParams.init(cfg, 5)
    positions, split = scored_positions(seqs[:2]), Split(seqs[:2], cfg)
    m = v = np.zeros_like(params.flat)
    for step in range(1, tc.iters + 1):
        idx = draws.integers(0, len(positions), size=tc.batch_size)
        _, g = gradient(make_batch(split, [positions[i] for i in idx]), params)
        norm = np.linalg.norm(g)
        assert norm > tc.clip_norm
        g = g * tc.clip_norm / (norm + 1e-12)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat, v_hat = m / (1 - 0.9**step), v / (1 - 0.999**step)
        lr = tc.lr * min(1.0, step / tc.warmup)
        params.flat[...] -= lr * (m_hat / (np.sqrt(v_hat) + 1e-8)
                                  + tc.weight_decay * params.flat)
    assert np.abs(got.flat - params.flat).max() <= 1e-12 * np.abs(params.flat).max()


BLAS_THREADS_SCRIPT = """
import sys
import numpy as np
from simplexcast.model import ModelConfig, TrainConfig, train
from simplexcast.simplex import SimplexSeries

rng = np.random.default_rng(3)
seqs = [SimplexSeries(f"b{i}", True, rng.dirichlet(np.ones(5), size=12)) for i in range(3)]
params, _ = train(seqs[:2], seqs[2:], ModelConfig(dim=5, ordered=True),
                  TrainConfig(iters=5, warmup=1, clip_norm=1e-3), seed=0)
sys.stdout.write(params.flat.tobytes().hex())
"""


def test_train_bytes_do_not_depend_on_blas_threads():
    # the default config's w_qk holds 13,312 floats, enough for OpenBLAS to
    # split a dot product over the gradient between its threads, and the
    # clipping binds, so the clipping norm's last bits reach the parameters
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = [subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT],
                           env={**env, "OPENBLAS_NUM_THREADS": str(n)},
                           capture_output=True, text=True, check=True).stdout for n in (1, 2)]
    assert runs[0] == runs[1]


def test_train_checkpoint_golden_with_clipping_and_tail_average(tmp_path):
    # clip_norm binds at every step (gradient norms are >= 0.015) and the
    # last 12 of 40 iterates are averaged; the hashes pin the bytes that
    # AdamW, clipping and tail averaging produce, the second those of the
    # payload alone, which a change of the header's entries leaves as it is.
    # Re-recorded when the loss became `metrics.kl`, the clipping norm one
    # sum and AdamW's bias corrections two scalars: parameters moved at most
    # 8.6e-15 of the largest
    rng = np.random.default_rng(2024)
    seqs = [SimplexSeries(f"g{i}", True, rng.dirichlet(np.ones(5), size=10)) for i in range(3)]
    tc = TrainConfig(iters=40, batch_size=4, eval_every=10, lr=1e-2, warmup=5,
                     clip_norm=1e-3, tail_average=0.3)
    params, log = train(seqs[:2], seqs[2:], small_cfg(), tc, seed=13)
    assert np.isnan(log[-1]["train_loss"])  # the averaged iterate's entry
    path = tmp_path / "model.ckpt"
    params.save(path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "605ffea64d397eee56ca665215546993b1ae41a4f9be68a568496609b282318f"
    )
    assert hashlib.sha256(data[-8 * params.flat.size :]).hexdigest() == (
        "76dcda996d0132fb222bc2c83477d4b624c9d822c5975928d08f852dd56ee4e0"
    )


# Recorded while each retrieval head had its own query and key matrices
# (`wq{m}`, `wk{m}`) and one head still carried a mix weight `w_eta`: the
# head axis and the dropped mix must keep every byte of training and scoring.
# The digest covers the trained buffer (without the old `w_eta` when H = 1),
# the training log, p_hat over every row and over row 0 alone, r and attn.
# Re-recorded when the loss became `metrics.kl`, the clipping norm one sum and
# AdamW's bias corrections two scalars: over H = 1, 2, 3 the parameters moved
# at most 3.4e-15 of the largest, the log values, p_hat, r and attn at most
# 4.4e-16 relative.
HEADS_SHA256 = {
    1: "1330b696d865ab210cbe2d2a51ea5b35c85419d8959693f4055d3284755b3aaf",
    2: "d15ad1c2823c5521c84f02ea3b5c81e814d1e7dd6405a6608882fb76c6a24005",
    3: "f45ab3c0a5dbe41513ed55ca316a25815a18c1d1882ab3d07970f61a01159677",
}


@pytest.mark.parametrize("heads", sorted(HEADS_SHA256))
def test_trained_heads_golden(heads):
    rng = np.random.default_rng(2025)
    seqs = [SimplexSeries(f"h{i}", True, rng.dirichlet(np.ones(5), size=9)) for i in range(4)]
    tc = TrainConfig(iters=30, batch_size=4, eval_every=10, lr=1e-2, warmup=5)
    params, log = train(seqs[:3], seqs[3:], small_cfg(heads=heads), tc, seed=heads)
    p_hat, parts = forward_steps(seqs[3].steps, np.arange(8), params)
    p_first, _ = forward_steps(seqs[3].steps, [0], params)
    digest = hashlib.sha256()
    for x in (params.flat, [v for e in log for v in (e["train_loss"], e["val_kl"])],
              p_hat, p_first, parts["r"], parts["attn"]):
        digest.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    assert digest.hexdigest() == HEADS_SHA256[heads]


def test_train_reduces_loss_on_learnable_signal(rng):
    # alternating two-state sequences: retrieval can learn the successor map
    d = 5
    a = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
    b = np.array([0.05, 0.05, 0.1, 0.1, 0.7])
    steps = np.array([a if t % 2 == 0 else b for t in range(12)])
    seqs = [SimplexSeries(f"alt{i}", True, steps) for i in range(3)]
    cfg = small_cfg()
    tc = TrainConfig(iters=150, batch_size=6, eval_every=25, lr=2e-2, warmup=10)
    params, log = train(seqs[:2], seqs[2:], cfg, tc, seed=5)
    assert log[-1]["val_kl"] < log[0]["val_kl"]


def test_train_stops_at_the_step_whose_loss_is_not_finite(rng):
    # a learning rate of 1e300 throws the parameters to ~1e297 at step 1, and
    # the retrieval scores of step 2 overflow
    seqs = _tiny_dataset(rng, 3)
    tc = TrainConfig(iters=5, batch_size=4, lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(InvalidValue,
                                                  match="^loss is not finite at step 2: nan$"):
        train(seqs[:2], seqs[2:], small_cfg(), tc, seed=0)


def test_train_rejects_a_validation_split_with_no_scored_positions(rng, monkeypatch):
    # selection over no score would return the initial parameters after all
    # the steps; train refuses before its first step
    from simplexcast import model

    seqs = _tiny_dataset(rng, 3)
    seqs[2].loss_mask[:] = False
    monkeypatch.setattr(model, "gradient", lambda *args: pytest.fail("a step ran"))
    for val in (seqs[2:], []):
        with pytest.raises(InvalidValue, match="^validation split has no scored positions$"):
            train(seqs[:2], val, small_cfg(), TrainConfig(iters=50), seed=0)


def test_scored_positions_respect_mask(rng):
    steps = np.array([random_dist(rng, 4) for _ in range(5)])
    mask = np.array([False, True, False, True])
    seq = SimplexSeries("m", False, steps, mask)
    assert scored_positions([seq]) == [(0, 1), (0, 3)]


# ---------------------------------------------------------------- rollout


def cast_rollout(context, horizon, params):
    """Feed each CastPredictor prediction back as the next input, as
    evaluate.evaluate_rollout does."""
    predictor = CastPredictor(params)
    prefix = np.array(context, dtype=np.float64)
    preds = []
    for _ in range(horizon):
        preds.append(predictor.predict(prefix))
        prefix = np.vstack([prefix, preds[-1]])
    return np.array(preds)


def test_rollout_shapes_and_closure(rng):
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=4)
    context = np.array([random_dist(rng, cfg.dim) for _ in range(6)])
    out = cast_rollout(context, horizon=4, params=params)
    assert out.shape == (4, cfg.dim)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-8)
    assert np.all(out >= -1e-12)


def test_rollout_deterministic_and_first_step_matches_forward(rng):
    cfg = small_cfg()
    params = CastParams.init(cfg, seed=4)
    context = np.array([random_dist(rng, cfg.dim) for _ in range(6)])
    out1 = cast_rollout(context, 3, params)
    out2 = cast_rollout(context, 3, params)
    assert np.array_equal(out1, out2)
    one, _ = forward_steps(context, [len(context) - 1], params)
    assert np.allclose(out1[0], one[0])


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path, rng):
    cfg = small_cfg(variant="no_structural_reg")
    params = CastParams.init(cfg, seed=9)
    path = tmp_path / "model.ckpt"
    params.save(path)
    loaded = CastParams.load(path)
    assert loaded.cfg == cfg
    assert set(loaded.values) == set(params.values)
    for k in params.values:
        assert np.array_equal(loaded.values[k], params.values[k])
    steps = np.array([random_dist(rng, cfg.dim) for _ in range(6)])
    a, _ = forward_steps(steps, np.arange(6), params)
    b, _ = forward_steps(steps, np.arange(6), loaded)
    assert np.array_equal(a, b)
    again = tmp_path / "again.ckpt"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.ckpt", "model.ckpt"]


def test_values_are_views_into_flat_and_copy_is_not():
    params = CastParams.init(small_cfg(), seed=0)
    assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
    offset = 0
    for k, v in params.values.items():
        assert np.shares_memory(v, params.flat), k
        np.testing.assert_array_equal(v.ravel(), params.flat[offset : offset + v.size])
        offset += v.size
    assert offset == params.flat.size
    params.flat[:] = 1.5
    assert all(np.all(v == 1.5) for v in params.values.values())
    dup = params.copy()
    assert not np.shares_memory(dup.flat, params.flat)
    assert not any(np.shares_memory(dup.values[k], params.flat) for k in dup.values)
    dup.flat[:] = 0.0
    assert np.all(params.flat == 1.5)
    with pytest.raises(ValueError):
        CastParams(small_cfg(), params.flat[:-1])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        CastParams.load(path)


@pytest.mark.parametrize(
    "bad",
    [
        dict(rho_max=0.0),
        dict(rho_max=3.0),
        dict(rho_max=float("nan")),
        dict(lambda_min=0.9, lambda_max=0.1),
        dict(lambda_min=-0.1),
        dict(lambda_max=1.5),
        dict(window=0),
        dict(heads=0),
        dict(d_r=0),
        dict(reg_weights=(5e-4, -1.0, 1e-4, 5e-4)),
        dict(reg_weights=(5e-4, 5e-4, 1e-4)),
        dict(reg_weights=(5e-4, 5e-4, 1e-4, "x")),
        dict(reg_weights=1.0),
    ]
    + [dict(ew_beta=v) for v in (-0.1, 1.5, np.nan)]
    + [dict(lambda_op=v) for v in (-1e-3, np.nan, np.inf)]
    + [dict(budget=(v, 0.1, 1e-8)) for v in (-0.1, np.nan, np.inf)]
    + [dict(budget=(0.25, v, 1e-8)) for v in (np.nan, np.inf)]
    + [dict(budget=(0.25, 0.1, v)) for v in (0.0, -1e-8, np.nan, np.inf)]
    + [dict(dim=1), dict(dim=0)]
    + [dict(lambda_init=v) for v in (np.nan, np.inf, -np.inf, 0.04, 0.96)]
    + [dict(rho_init=v) for v in (np.nan, np.inf, -np.inf, -1e-3, 0.21)],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(InvalidValue):
        # BudgetParams checks its own coefficients
        small_cfg(**{k: BudgetParams(*v) if k == "budget" else v for k, v in bad.items()})


@pytest.mark.parametrize("key", ["lambda_init", "rho_init"])
@pytest.mark.parametrize("value", [np.nan, -1e300, 1e300])
def test_config_names_the_init_value_it_rejects(key, value):
    # `_solve_gate_bias` would clip it to within 1e-12 of its gate's range
    with pytest.raises(InvalidValue, match=key):
        small_cfg(**{key: value})


def test_config_accepts_boundary_values():
    small_cfg(ew_beta=0.0, lambda_op=0.0, budget=BudgetParams(0.0, 0.0, 1e-300))
    small_cfg(ew_beta=1.0)
    small_cfg(lambda_init=0.05, rho_init=0.0)
    small_cfg(lambda_init=0.95, rho_init=0.20)


@pytest.mark.parametrize(
    "bad",
    [dict(iters=0), dict(iters=-5), dict(batch_size=0), dict(eval_every=0), dict(warmup=-1)]
    + [dict(lr=v) for v in (0.0, -1e-3, np.nan, np.inf)]
    + [dict(weight_decay=v) for v in (-0.1, np.nan, np.inf)]
    + [dict(clip_norm=v) for v in (0.0, -1.0, np.nan, np.inf)]
    + [dict(tail_average=v) for v in (-0.1, 1.0, 1.5, np.nan)],
)
def test_train_config_rejects_bad_values(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must"):
        TrainConfig(**bad)


def test_train_config_accepts_boundary_values():
    TrainConfig(iters=1, batch_size=1, eval_every=1, warmup=0, weight_decay=0.0,
                tail_average=0.0)
    TrainConfig(lr=1e-300, clip_norm=1e-300, tail_average=0.999)


def _record_tasks(monkeypatch) -> list:
    """Replaces `evaluate._pool_map` with a stub that records the TrainConfig
    of each task the synthetic experiment hands to the pool, trains nothing
    and returns zero metrics."""
    from simplexcast import evaluate

    built = []

    def record(fn, tasks):
        built.extend(tc for _, tc, _ in tasks)
        return [{"kl": 0.0, "jsd": 0.0, "l1": 0.0} for _ in tasks]

    monkeypatch.setattr(evaluate, "_pool_map", record)
    return built


def test_train_config_accepts_synthetic_settings(monkeypatch):
    # every TrainConfig the synthetic experiment builds from TRAINED_ROWS
    from simplexcast import theory

    built = _record_tasks(monkeypatch)
    theory.run_synthetic_experiment(theory.default_scenario(), [0], n_sequences=2)
    assert [(tc.iters, tc.lr, tc.tail_average) for tc in built] == [
        row[3:] for row in theory.TRAINED_ROWS
    ]
    assert [tc.iters for tc in built] == [600, 1000, 500]
    assert all((tc.batch_size, tc.warmup, tc.weight_decay, tc.eval_every) == (8, 50, 0.0, 100)
               for tc in built)


def test_aliasing_synthetic_iters_sets_every_trained_row(monkeypatch, tmp_path):
    from simplexcast.cli import cli_dispatch

    built = _record_tasks(monkeypatch)
    assert cli_dispatch(["aliasing-synthetic", "--seeds", "0", "--iters", "3",
                         "--sequences", "8", "--out", str(tmp_path)]) == 0
    assert [(tc.iters, tc.warmup) for tc in built] == [(3, 3)] * 3
