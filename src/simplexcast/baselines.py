"""Fit-only statistical baselines sharing the forecaster's evaluation protocol:
persistence, weighted analog retrieval, VAR and simple exponential smoothing in
ilr coordinates.

Each baseline is one `Predictor` subclass that holds its fitted state, and its
fitter (`build_analog_bank`, `ilr_var_fit`, `ets_fit`) returns it. Each
forecasts the scored rows of a sequence in one causal pass over it, through
the block primitives of `simplex`: analog queries are `history_windows` rows,
VAR and ETS take the ilr coordinates of the whole (T, D) block in one
`ilr_forward` call, and ETS levels are `smoothed_levels`."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue
from .simplex import (SimplexSeries, history_windows, ilr_forward, ilr_inverse, smooth,
                      smoothed_levels)

logger = logging.getLogger(__name__)

ETS_ALPHA_GRID = np.round(np.arange(0.05, 0.951, 0.05), 2)


class Predictor:
    """Uniform one-step interface used by the evaluation harness.
    `predict_all(steps, ts)` forecasts rows `ts` of a whole sequence in one
    pass, (len(ts), D), row t from steps[: t + 1] only. `predict_split(seqs,
    ts)` forecasts rows ts[k] of every sequence seqs[k] as one (sum of
    len(ts[k]), D) block in split order; by default it stacks one
    `predict_all` call per sequence. `predict(prefix)` forecasts the step
    after a prefix as the last row of `predict_all`; each subclass defines it
    in its own namespace, where the traced benchmark patches it."""

    def predict_split(self, seqs, ts) -> np.ndarray:
        return np.concatenate([self.predict_all(seq.steps, t)
                               for seq, t in zip(seqs, ts, strict=True)])


def _sequence(steps, name: str) -> np.ndarray:
    """steps as a (T, D) float array; an empty one is an InvalidValue."""
    steps = np.asarray(steps, dtype=np.float64)
    if steps.ndim != 2 or len(steps) == 0:
        raise InvalidValue(f"{name} needs a nonempty prefix")
    return steps


class PersistencePredictor(Predictor):
    """Forecasts the last observed step."""

    def predict(self, prefix):
        return self.predict_all(prefix, [len(prefix) - 1])[0]

    def predict_all(self, steps, ts):
        return _sequence(steps, "persistence")[np.asarray(ts, dtype=np.intp)]


# ------------------------------------------------------------------ analog


@dataclass
class AnalogPredictor(Predictor):
    """Train-split memory of (flattened context window, successor) pairs; a
    forecast is the Gaussian-kernel average of the k nearest windows'
    successors."""

    windows: np.ndarray  # (n, w * D)
    successors: np.ndarray  # (n, D)
    w: int = 4
    k: int = 8
    bandwidth: float = 1.0

    def predict(self, prefix):
        return self.predict_all(prefix, [len(prefix) - 1])[0]

    def predict_all(self, steps, ts):
        steps = _sequence(steps, "analog prediction")
        if len(self.windows) == 0:
            raise InvalidValue("empty analog bank")
        k = min(self.k, len(self.windows))
        out = np.empty((len(ts), steps.shape[1]))
        buf = np.empty(self.windows.shape)
        # one query at a time keeps memory to one bank-sized buffer
        for row, query in zip(out, history_windows(steps, self.w)[ts]):
            dist = _l1_to_rows(self.windows, query, buf)
            idx = np.argpartition(dist, k - 1)[:k]
            idx = idx[np.argsort(dist[idx], kind="stable")]
            weights = np.exp(-(dist[idx] ** 2) / (2.0 * self.bandwidth**2))
            if weights.sum() <= 0:
                weights = np.ones(k)
            weights = weights / weights.sum()
            row[:] = weights @ self.successors[idx]
        return out


def _l1_to_rows(bank, query, buf):
    """L1 distance from query to each row of bank, computed in buf (bank's
    shape): reusing one buffer spares a fresh bank-sized temporary per query."""
    return np.abs(np.subtract(bank, query, out=buf), out=buf).sum(axis=1)


def build_analog_bank(train_seqs, w: int = 4, k: int = 8, max_pairs: int = 50000,
                      seed: int = 0) -> AnalogPredictor:
    windows, succs = [], []
    for seq in train_seqs:
        steps = np.asarray(seq.steps, dtype=np.float64)
        windows.append(history_windows(steps, w)[:-1])
        succs.append(steps[1:])
    if sum(len(x) for x in windows) == 0:
        raise InvalidValue("no training pairs for analog bank")
    windows = np.concatenate(windows)
    succs = np.concatenate(succs)
    if len(windows) > max_pairs:
        idx = np.random.default_rng(seed).choice(len(windows), max_pairs, replace=False)
        windows, succs = windows[idx], succs[idx]
    # self-tuning bandwidth: median nearest-other-window L1 distance on a sample
    rng = np.random.default_rng(seed + 1)
    sample = rng.choice(len(windows), min(len(windows), 200), replace=False)
    nearest = []
    buf = np.empty(windows.shape)
    for i in sample:
        d = _l1_to_rows(windows, windows[i], buf)
        d[i] = np.inf
        nearest.append(d.min())
    bw = float(np.median(nearest))
    if not np.isfinite(bw) or bw <= 0:
        bw = 1.0
    return AnalogPredictor(windows, succs, w=w, k=k, bandwidth=bw)


# ------------------------------------------------------------------ ilr VAR


def _lags(z, t, order: int) -> np.ndarray:
    """The one VAR lag matrix, of fit and prediction: row i holds z[t_i],
    z[t_i - 1], ..., z[t_i - order + 1] (newest lag first), then 1."""
    return np.hstack([z[t - j] for j in range(order)] + [np.ones((len(t), 1))])


@dataclass
class VarPredictor(Predictor):
    """VAR(order) with intercept in ilr coordinates; persistence when `matrix`
    is None or the prefix is shorter than the order (row t < order - 1)."""

    order: int
    matrix: np.ndarray | None  # (order * (D - 1) + 1, D - 1)

    def predict(self, prefix):
        return self.predict_all(prefix, [len(prefix) - 1])[0]

    def predict_all(self, steps, ts):
        """The forecast of each row t from its `_lags` row, or steps[t] itself."""
        steps = _sequence(steps, "VAR prediction")
        ts = np.asarray(ts, dtype=np.intp)
        out = steps[ts]
        fit = ts >= self.order - 1
        if self.matrix is None or not fit.any():
            return out
        x = _lags(ilr_forward(smooth(steps)), ts[fit], self.order)
        # stacked vec-mat products keep each row's bytes, as `x @ matrix` would not
        out[fit] = ilr_inverse((x[:, None, :] @ self.matrix)[:, 0, :], steps.shape[1])
        return out


def ilr_var_fit(train_seqs, order: int = 1, ridge: float = 1e-6) -> VarPredictor:
    """Pooled least squares VAR(p) with intercept in ilr coordinates, the `_lags` row
    of t predicting z[t + 1]; persistence (matrix=None) when there are too few pairs."""
    xs, ys = [], []
    dim = None
    for seq in train_seqs:
        steps = np.asarray(seq.steps, dtype=np.float64)
        dim = steps.shape[1]
        z = ilr_forward(smooth(steps))
        if len(z) <= order:
            continue
        xs.append(_lags(z, np.arange(order - 1, len(z) - 1), order))
        ys.append(z[order:])
    n_pairs = sum(len(x) for x in xs)
    n_cols = order * (dim - 1) + 1 if dim else 1
    if n_pairs < n_cols:
        logger.warning(
            "ilr VAR(%d): %d pairs < %d columns; falling back to persistence",
            order, n_pairs, n_cols,
        )
        return VarPredictor(order, None)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    theta = np.linalg.solve(gram, x.T @ y)
    return VarPredictor(order, theta)


# ------------------------------------------------------------------ ilr ETS


@dataclass
class EtsPredictor(Predictor):
    """Simple exponential smoothing of each ilr coordinate; the forecast is
    the last smoothed level."""

    alphas: np.ndarray  # (D - 1,)

    def predict(self, prefix):
        return self.predict_all(prefix, [len(prefix) - 1])[0]

    def predict_all(self, steps, ts):
        steps = _sequence(steps, "ETS prediction")
        levels = smoothed_levels(ilr_forward(smooth(steps)), self.alphas)
        return ilr_inverse(levels[np.asarray(ts, dtype=np.intp)], steps.shape[1])


def _ets_errors(zs, dim: int) -> np.ndarray:
    """Pooled one-step-ahead squared error of each grid alpha (row) on each
    ilr coordinate (column). The grid is one broadcast axis of the levels;
    each series is added in turn, and series shorter than 2 are skipped."""
    alphas = ETS_ALPHA_GRID[:, None]
    errors = np.zeros((len(ETS_ALPHA_GRID), dim - 1))
    for z in zs:
        if len(z) < 2:
            continue
        levels = smoothed_levels(np.repeat(z[:, None, :], len(alphas), axis=1), alphas)
        # each alpha's (T-1, D-1) block is summed on its own: a (T-1, 1) block
        # sums pairwise, so one sum over the stacked blocks changes D = 2's bytes
        errors += [((z[1:] - lv) ** 2).sum(axis=0) for lv in levels[:-1].swapaxes(0, 1)]
    return errors


def ets_fit(train_seqs) -> EtsPredictor:
    """Per-ilr-coordinate grid search for the smoothing weight minimizing
    pooled one-step-ahead squared error."""
    if not train_seqs:
        raise InvalidValue("ETS needs at least one training series")
    dim = np.asarray(train_seqs[0].steps).shape[1]
    errors = _ets_errors([ilr_forward(smooth(seq.steps)) for seq in train_seqs], dim)
    return EtsPredictor(ETS_ALPHA_GRID[np.argmin(errors, axis=0)])


# -------------------------------------------------------------------- cast


@dataclass
class CastPredictor(Predictor):
    params: object

    def predict(self, prefix):
        return self.predict_all(prefix, [len(prefix) - 1])[0]

    def predict_all(self, steps, ts):
        """Every row in one `predict_split` of the prefix through row max(ts)."""
        steps, ts = _sequence(steps, "cast"), np.asarray(ts, dtype=np.intp)
        prefix = SimplexSeries("prefix", self.params.cfg.ordered, steps[: ts.max(initial=0) + 1])
        return self.predict_split([prefix], [ts])

    def predict_split(self, seqs, ts):
        """The sequences packed into one `model.Split`, scored by one
        `model.predict`: a sequence that is a block alone keeps its
        `predict_all` bytes, a row packed with others its last bits only."""
        from .model import Split, predict

        i = np.repeat(np.arange(len(seqs)), [len(t) for t in ts])
        return predict(Split(seqs, self.params.cfg), i, np.concatenate(ts), self.params)
