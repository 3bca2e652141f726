import numpy as np
import pytest

from simplexcast.baselines import (
    ETS_ALPHA_GRID,
    AnalogPredictor,
    CastPredictor,
    EtsPredictor,
    PersistencePredictor,
    VarPredictor,
    _ets_errors,
    build_analog_bank,
    ets_fit,
    ilr_var_fit,
)
from simplexcast.errors import InvalidValue
from simplexcast.simplex import SimplexSeries, ilr_forward, ilr_inverse, smooth, smoothed_levels

from conftest import (cast_predict_ref, forward_steps, ilr_inverse_row_ref, ilr_rows_ref,
                      random_dist, window_ref)


def series_from(rng, t_len, d, seq_id="s"):
    steps = np.array([random_dist(rng, d) for _ in range(t_len)])
    return SimplexSeries(seq_id, True, steps)


# ------------------------------------------------------------- persistence


def test_persistence_returns_last():
    a, b, c = np.eye(3)
    assert np.array_equal(PersistencePredictor().predict(np.array([a, b, c])), c)
    assert np.array_equal(PersistencePredictor().predict(np.array([a])), a)


def test_persistence_empty_prefix():
    with pytest.raises(InvalidValue, match="^persistence needs a nonempty prefix$"):
        PersistencePredictor().predict(np.empty((0, 3)))


# ------------------------------------------------------------------ analog


def test_analog_exact_match_returns_successor(rng):
    seqs = [series_from(rng, 8, 4, f"s{i}") for i in range(3)]
    bank = build_analog_bank(seqs, w=3, k=1)
    steps = seqs[0].steps
    # query = the exact training window ending at t=4; k=1 picks distance 0
    pred = bank.predict(steps[:5])
    assert np.allclose(pred, steps[5])


def test_analog_constant_successors(rng):
    u = random_dist(rng, 4)
    windows = np.array([random_dist(rng, 4 * 2).ravel() for _ in range(6)])
    windows = windows.reshape(6, -1)
    bank = AnalogPredictor(windows, np.tile(u, (6, 1)), w=2, k=4, bandwidth=0.5)
    pred = bank.predict(np.array([random_dist(rng, 4), random_dist(rng, 4)]))
    assert np.allclose(pred, u)


def test_analog_equal_distances_average():
    d = 3
    p = np.full(d, 1 / 3)
    s1 = np.array([1.0, 0.0, 0.0])
    s2 = np.array([0.0, 0.0, 1.0])
    # two bank windows symmetric around the query: equal L1 distance
    w1 = np.concatenate([p, np.array([0.5, 0.3, 0.2])])
    w2 = np.concatenate([p, np.array([0.2, 0.3, 0.5])])
    bank = AnalogPredictor(np.array([w1, w2]), np.array([s1, s2]), w=2, k=2, bandwidth=1.0)
    query = np.array([p, np.array([0.35, 0.3, 0.35])])
    pred = bank.predict(query)
    assert np.allclose(pred, 0.5 * (s1 + s2))


def test_analog_output_in_hull_and_simplex(rng):
    seqs = [series_from(rng, 10, 5, f"s{i}") for i in range(2)]
    bank = build_analog_bank(seqs, w=4, k=8)
    pred = bank.predict(seqs[0].steps[:6])
    assert np.isclose(pred.sum(), 1.0)
    assert np.all(pred >= -1e-12)
    assert pred.min() >= bank.successors.min() - 1e-12
    assert pred.max() <= bank.successors.max() + 1e-12


def test_analog_empty_bank():
    bank = AnalogPredictor(np.empty((0, 4)), np.empty((0, 2)), w=2, k=1)
    with pytest.raises(InvalidValue, match="^empty analog bank$"):
        bank.predict(np.full((1, 2), 0.5))


# ------------------------------------------------------------------ ilr VAR


def _var_generated_series(rng, d, t_len, a=None, c=None):
    k = d - 1
    if a is None:
        a = 0.5 * rng.standard_normal((k, k))
        # keep spectral radius < 1 so the series stays bounded
        a *= 0.8 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
    if c is None:
        c = 0.3 * rng.standard_normal(k)
    z = rng.standard_normal(k)
    zs = [z]
    for _ in range(t_len - 1):
        z = a @ z + c
        zs.append(z)
    steps = np.array([ilr_inverse(z, d) for z in zs])
    return steps, a, c


def test_var_recovers_generator(rng):
    d = 4
    steps, a_true, c_true = _var_generated_series(rng, d, 40)
    seqs = [SimplexSeries("gen0", True, steps)]
    for i in range(1, 4):
        more, _, _ = _var_generated_series(rng, d, 40, a=a_true, c=c_true)
        seqs.append(SimplexSeries(f"gen{i}", True, more))
    var = ilr_var_fit(seqs, order=1)
    # layout: first (d-1) rows = lag matrix (transposed), last row = intercept
    a_fit = var.matrix[: d - 1].T
    c_fit = var.matrix[-1]
    assert np.allclose(a_fit, a_true, atol=1e-5)
    assert np.allclose(c_fit, c_true, atol=1e-5)
    pred = var.predict(steps[:10])
    z_next = a_true @ ilr_forward(smooth(steps[9])) + c_true
    assert np.allclose(pred, ilr_inverse(z_next, d), atol=1e-5)


def test_var_constant_series(rng):
    p = random_dist(rng, 4)
    steps = np.tile(p, (20, 1))
    var = ilr_var_fit([SimplexSeries("c", True, steps)])
    pred = var.predict(steps[:5])
    assert np.allclose(pred, p, atol=1e-6)


def test_var_d2_scalar_log_odds(rng):
    # D=2: ilr is a scalar log-odds coordinate; VAR(1) is scalar AR(1)
    steps, a_true, c_true = _var_generated_series(rng, 2, 40)
    var = ilr_var_fit([SimplexSeries("d2", True, steps)])
    assert var.matrix.shape == (2, 1)
    assert np.isclose(var.matrix[0, 0], a_true[0, 0], atol=1e-5)


def test_var_insufficient_data_falls_back(rng, caplog):
    seq = SimplexSeries("tiny", True, np.array([random_dist(rng, 6), random_dist(rng, 6)]))
    import logging

    with caplog.at_level(logging.WARNING):
        var = ilr_var_fit([seq], order=1)
    assert var.matrix is None
    assert any("persistence" in r.message for r in caplog.records)
    pred = var.predict(seq.steps)
    assert np.allclose(pred, seq.steps[-1])


# ------------------------------------------------------------------ ilr ETS


def test_ets_constant_series(rng):
    p = random_dist(rng, 4)
    steps = np.tile(p, (15, 1))
    ets = ets_fit([SimplexSeries("c", True, steps)])
    assert np.allclose(ets.predict(steps), p, atol=1e-6)


def test_ets_alpha_one_is_persistence(rng):
    steps = np.array([random_dist(rng, 5) for _ in range(8)])
    ets = EtsPredictor(np.ones(4))
    pred = ets.predict(steps)
    assert np.allclose(pred, smooth(steps[-1]) / smooth(steps[-1]).sum(), atol=1e-6)


def test_ets_linear_drift_picks_large_alpha(rng):
    # noiseless drift in ilr space: persistence-like (large alpha) is best
    d = 3
    zs = np.array([[0.05 * t, -0.03 * t] for t in range(40)])
    steps = np.array([ilr_inverse(z, d) for z in zs])
    seqs = [SimplexSeries("drift", True, steps)]
    ets = ets_fit(seqs)
    assert np.all(ets.alphas >= 0.9)
    # error with fitted alphas beats the smallest-alpha variant
    z = ilr_forward(smooth(steps))
    err_big = ((z[1:] - smoothed_levels(z, ets.alphas[0])[:-1]) ** 2).sum()
    err_small = ((z[1:] - smoothed_levels(z, 0.05)[:-1]) ** 2).sum()
    assert err_big < err_small


def test_ets_grid_is_as_specified():
    assert ETS_ALPHA_GRID[0] == 0.05
    assert ETS_ALPHA_GRID[-1] == 0.95
    assert np.allclose(np.diff(ETS_ALPHA_GRID), 0.05)


# ------------------------------------- block code against per-row references
# Each reference is the per-prefix / per-row code the baselines ran before
# they read whole sequences; the one-pass code must give the same bytes.


def _per_prefix_loop(predictor, steps, ts):
    """Row t forecast by `predict` on the prefix steps[: t + 1] alone."""
    return np.array([predictor.predict(steps[: t + 1]) for t in ts])


def _ses_levels_ref(z, alpha):
    levels = np.empty_like(z)
    levels[0] = z[0]
    for t in range(1, len(z)):
        levels[t] = alpha * z[t] + (1 - alpha) * levels[t - 1]
    return levels


def _ets_errors_ref(train_seqs):
    dim = train_seqs[0].steps.shape[1]
    zs = [ilr_rows_ref(seq.steps) for seq in train_seqs]
    errors = np.zeros((len(ETS_ALPHA_GRID), dim - 1))
    for ai, alpha in enumerate(ETS_ALPHA_GRID):
        for z in zs:
            if len(z) < 2:
                continue
            levels = _ses_levels_ref(z, alpha)
            errors[ai] += ((z[1:] - levels[:-1]) ** 2).sum(axis=0)
    return errors


def _ets_predict_ref(prefix, alphas):
    z = ilr_rows_ref(prefix)
    level = z[0].copy()
    for t in range(1, len(z)):
        level = alphas * z[t] + (1 - alphas) * level
    return ilr_inverse_row_ref(level)


def _var_design_ref(train_seqs, order):
    xs, ys = [], []
    for seq in train_seqs:
        z = ilr_rows_ref(seq.steps)
        for t in range(order, len(z)):
            xs.append(np.concatenate([z[t - j] for j in range(1, order + 1)] + [[1.0]]))
            ys.append(z[t])
    return np.array(xs), np.array(ys)


def _var_predict_ref(prefix, var):
    if var.matrix is None or len(prefix) < var.order:
        return prefix[-1].copy()
    lags = [ilr_rows_ref(prefix[-j][None])[0] for j in range(1, var.order + 1)]
    return ilr_inverse_row_ref(np.concatenate(lags + [[1.0]]) @ var.matrix)


def _analog_predict_ref(prefix, bank):
    query = window_ref(prefix, len(prefix) - 1, bank.w)
    dist = np.abs(bank.windows - query).sum(axis=1)
    k = min(bank.k, len(dist))
    idx = np.argpartition(dist, k - 1)[:k]
    idx = idx[np.argsort(dist[idx], kind="stable")]
    weights = np.exp(-(dist[idx] ** 2) / (2.0 * bank.bandwidth**2))
    return (weights / weights.sum()) @ bank.successors[idx]


def _predict_ref(predictor, prefix):
    """One forecast from a prefix by the matching per-row reference."""
    if isinstance(predictor, AnalogPredictor):
        return _analog_predict_ref(prefix, predictor)
    if isinstance(predictor, VarPredictor):
        return _var_predict_ref(prefix, predictor)
    if isinstance(predictor, EtsPredictor):
        return _ets_predict_ref(prefix, predictor.alphas)
    return prefix[-1].copy()


def _reference_seqs(rng, d, lengths=(1, 9, 30)):
    return [series_from(rng, t_len, d, f"s{i}") for i, t_len in enumerate(lengths)]


def test_ets_equals_per_row_reference(rng):
    for d in range(2, 36):
        # a pool of mixed lengths; the length-1 series is skipped
        seqs = _reference_seqs(rng, d)
        ets = ets_fit(seqs)
        errors = _ets_errors_ref(seqs)
        # bytes, not closeness: argmin breaks a tie by the first alpha
        assert np.array_equal(_ets_errors([ilr_forward(smooth(s.steps)) for s in seqs], d),
                              errors)
        assert np.array_equal(ets.alphas, ETS_ALPHA_GRID[np.argmin(errors, axis=0)])
        for t_len in (1, 2, 9, 30):
            prefix = seqs[2].steps[:t_len]
            assert np.array_equal(ets.predict(prefix), _ets_predict_ref(prefix, ets.alphas))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_var_equals_per_row_reference(rng, order):
    ridge = 1e-6
    for d in range(2, 36):
        seqs = _reference_seqs(rng, d, lengths=(1, 30, 40, 50))
        var = ilr_var_fit(seqs, order=order, ridge=ridge)
        x, y = _var_design_ref(seqs, order)
        gram = x.T @ x + ridge * np.eye(x.shape[1])
        assert np.array_equal(var.matrix, np.linalg.solve(gram, x.T @ y))
        for t_len in (order, 7):
            prefix = seqs[1].steps[:t_len]
            assert np.array_equal(var.predict(prefix), _var_predict_ref(prefix, var))


def test_analog_equals_per_position_reference(rng):
    for d in range(2, 36):
        for w in (1, 4, 12):
            seqs = _reference_seqs(rng, d, lengths=(1, 3, 10))
            bank = build_analog_bank(seqs, w=w, k=3)
            windows = [window_ref(s.steps, t, w) for s in seqs for t in range(len(s.steps) - 1)]
            assert np.array_equal(bank.windows, np.array(windows))
            assert np.array_equal(bank.successors, np.concatenate([s.steps[1:] for s in seqs]))
            sample = np.random.default_rng(1).choice(len(windows), len(windows), replace=False)
            nearest = [np.delete(np.abs(bank.windows - bank.windows[i]).sum(axis=1), i).min()
                       for i in sample]
            assert bank.bandwidth == float(np.median(nearest))
            prefix = seqs[2].steps[:5]
            assert np.array_equal(bank.predict(prefix), _analog_predict_ref(prefix, bank))


def _fitted(name, seqs):
    return {
        "persistence": lambda s: PersistencePredictor(),
        "analog": lambda s: build_analog_bank(s, w=4, k=3),
        "var1": lambda s: ilr_var_fit(s, order=1),
        "var2": lambda s: ilr_var_fit(s, order=2),
        "var_none": lambda s: VarPredictor(2, None),
        "ets": ets_fit,
    }[name](seqs)


BASELINES = ("persistence", "analog", "var1", "var2", "var_none", "ets")


@pytest.mark.parametrize("t_len", [1, 2, 150])
@pytest.mark.parametrize("d", [2, 6, 21])
@pytest.mark.parametrize("name", BASELINES)
def test_predict_all_equals_per_prefix_reference(rng, name, d, t_len):
    predictor = _fitted(name, _reference_seqs(rng, d, lengths=(1, 30, 40, 50)))
    steps = series_from(rng, t_len, d).steps
    # every row, so VAR(2) includes its t = 0 persistence row
    ts = np.arange(t_len)
    got = predictor.predict_all(steps, ts)
    assert np.array_equal(got, np.array([_predict_ref(predictor, steps[: t + 1]) for t in ts]))
    assert np.array_equal(got, _per_prefix_loop(predictor, steps, ts))
    # a subset of rows, out of the sequence's order, and no rows
    assert np.array_equal(predictor.predict_all(steps, ts[::-2]), got[::-2])
    assert predictor.predict_all(steps, []).shape == (0, d)


@pytest.mark.parametrize("name", ["persistence", "analog", "var1", "var2", "ets"])
def test_predict_all_row_t_reads_only_steps_up_to_t(rng, name):
    d, t_len = 6, 40
    predictor = _fitted(name, _reference_seqs(rng, d, lengths=(30, 40, 50)))
    steps = series_from(rng, t_len, d).steps
    ts = np.arange(t_len)
    want = predictor.predict_all(steps, ts)
    for t in ts[:-1]:
        perturbed = steps.copy()
        perturbed[t + 1 :] = series_from(rng, t_len - t - 1, d).steps
        assert np.array_equal(predictor.predict_all(perturbed, ts)[t], want[t])


# ------------------------------------------------- cross-module consistency


def test_persistence_equals_degenerate_cast(rng):
    # CAST with lambda pinned to 1 and rho pinned to 0 is persistence
    from simplexcast.model import CastParams, ModelConfig

    cfg = ModelConfig(dim=5, ordered=True, window=3, heads=1, d_r=4,
                      lambda_min=1.0, lambda_max=1.0, rho_max=1e-300,
                      lambda_init=1.0, rho_init=1e-300)
    params = CastParams.init(cfg, seed=0)
    steps = np.array([random_dist(rng, 5) for _ in range(7)])
    p_hat, _ = forward_steps(steps, np.arange(6), params)
    for t in range(6):
        assert np.allclose(p_hat[t], PersistencePredictor().predict(steps[: t + 1]), atol=1e-12)


# ----------------------------------------------------- one-pass cast scorer


@pytest.mark.parametrize(
    "kw",
    [dict(variant=v) for v in ("full", "no_structural_reg", "anchor_only", "single_head",
                               "fixed_local_kernel", "no_persistence_mix")]
    + [dict(feature_mode="current_only"), dict(ordered=False)],
)
def test_cast_predict_all_equals_per_prefix_loop(rng, kw):
    from simplexcast.model import CastParams, ModelConfig

    cfg = ModelConfig(**{**dict(dim=6, ordered=True, window=3, heads=2, d_r=8), **kw})
    predictor = CastPredictor(CastParams.init(cfg, seed=4))
    steps = np.array([random_dist(rng, cfg.dim) for _ in range(12)])
    # a t = 0 row, gaps, and every row of the sequence
    for ts in ([0, 2, 3, 7, 10], [5, 9], np.arange(11)):
        got = predictor.predict_all(steps, ts)
        want = _per_prefix_loop(predictor, steps, ts)
        assert got.shape == (len(ts), cfg.dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # and `predict` itself against a per-position memory and encoding
        ref = [cast_predict_ref(predictor.params, steps, t) for t in ts]
        np.testing.assert_allclose(want, ref, rtol=1e-12, atol=1e-15)
    # a subset of rows, out of the sequence's order, and no rows, as for the
    # fitted baselines; a row's last bits move with the number of rows
    # scored at once, at parent too, so the subset is held to 1e-12
    ts = np.arange(12)
    got = predictor.predict_all(steps, ts)
    np.testing.assert_allclose(predictor.predict_all(steps, ts[::-2]), got[::-2],
                               rtol=1e-12, atol=1e-15)
    assert predictor.predict_all(steps, []).shape == (0, cfg.dim)


def test_evaluate_offline_skips_sequences_without_scored_positions(rng):
    from simplexcast.evaluate import evaluate_offline
    from simplexcast.model import CastParams, ModelConfig

    predictor = CastPredictor(CastParams.init(ModelConfig(dim=4, ordered=True), seed=0))
    scored = series_from(rng, 6, 4, "scored")
    unscored = SimplexSeries("unscored", True, scored.steps, np.zeros(5, dtype=bool))
    assert evaluate_offline(predictor, [unscored, scored]) == evaluate_offline(predictor, [scored])
