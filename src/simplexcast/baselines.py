"""Fit-only statistical baselines sharing the forecaster's evaluation protocol:
persistence, weighted analog retrieval, VAR and simple exponential smoothing in
ilr coordinates.

Each baseline is one `Predictor` subclass that holds its fitted state, and its
fitter (`build_analog_bank`, `ilr_var_fit`, `ets_fit`) returns it. Each reads
a sequence through the block primitives of `simplex`: analog windows are
`history_windows` rows, VAR and ETS take the ilr coordinates of a whole (T, D)
block in one `ilr_forward` call, and ETS levels are `smoothed_levels`."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue
from .simplex import history_windows, ilr_forward, ilr_inverse, smooth, smoothed_levels

logger = logging.getLogger(__name__)

ETS_ALPHA_GRID = np.round(np.arange(0.05, 0.951, 0.05), 2)


class Predictor:
    """Uniform one-step interface used by the evaluation harness. `predict`
    forecasts the step after a prefix; `predict_all` forecasts rows `ts` of a
    whole sequence, row t from steps[: t + 1] only. The default `predict_all`
    calls `predict` on each prefix, and is the reference for overrides."""

    def predict(self, prefix: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def predict_all(self, steps: np.ndarray, ts) -> np.ndarray:
        """One-step forecasts for rows `ts` of one sequence, (len(ts), D)."""
        return np.array([self.predict(steps[: t + 1]) for t in ts])


class PersistencePredictor(Predictor):
    """Forecasts the last observed step."""

    def predict(self, prefix):
        prefix = np.asarray(prefix, dtype=np.float64)
        if prefix.ndim != 2 or len(prefix) == 0:
            raise InvalidValue("persistence needs a nonempty prefix")
        return prefix[-1].copy()


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
        prefix = np.asarray(prefix, dtype=np.float64)
        if len(prefix) == 0:
            raise InvalidValue("analog prediction needs a nonempty prefix")
        if len(self.windows) == 0:
            raise InvalidValue("empty analog bank")
        query = history_windows(prefix[-self.w :], self.w)[-1]
        dist = np.abs(self.windows - query).sum(axis=1)
        k = min(self.k, len(dist))
        idx = np.argpartition(dist, k - 1)[:k]
        idx = idx[np.argsort(dist[idx], kind="stable")]
        weights = np.exp(-(dist[idx] ** 2) / (2.0 * self.bandwidth**2))
        if weights.sum() <= 0:
            weights = np.ones(k)
        weights = weights / weights.sum()
        return weights @ self.successors[idx]


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
    for i in sample:
        d = np.abs(windows - windows[i]).sum(axis=1)
        d[i] = np.inf
        nearest.append(d.min())
    bw = float(np.median(nearest))
    if not np.isfinite(bw) or bw <= 0:
        bw = 1.0
    return AnalogPredictor(windows, succs, w=w, k=k, bandwidth=bw)


# ------------------------------------------------------------------ ilr VAR


@dataclass
class VarPredictor(Predictor):
    """VAR(order) with intercept in ilr coordinates; persistence when `matrix`
    is None or the prefix is shorter than the order."""

    order: int
    matrix: np.ndarray | None  # (order * (D - 1) + 1, D - 1)

    def predict(self, prefix):
        prefix = np.asarray(prefix, dtype=np.float64)
        if len(prefix) == 0:
            raise InvalidValue("VAR prediction needs a nonempty prefix")
        if self.matrix is None or len(prefix) < self.order:
            return prefix[-1].copy()
        lags = ilr_forward(smooth(prefix[: -self.order - 1 : -1]))  # newest first
        x = np.append(lags, 1.0)
        z_next = x @ self.matrix
        return ilr_inverse(z_next, prefix.shape[1])


def ilr_var_fit(train_seqs, order: int = 1, ridge: float = 1e-6) -> VarPredictor:
    """Pooled ordinary least squares VAR(p) with intercept in ilr coordinates.
    Falls back to persistence (matrix=None) when there are too few pairs."""
    xs, ys = [], []
    dim = None
    for seq in train_seqs:
        steps = np.asarray(seq.steps, dtype=np.float64)
        dim = steps.shape[1]
        z = ilr_forward(smooth(steps))
        n = len(z) - order
        if n <= 0:
            continue
        # row t holds z[t-1], ..., z[t-order], then the intercept
        xs.append(np.hstack([z[order - j : order - j + n] for j in range(1, order + 1)]
                            + [np.ones((n, 1))]))
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
        prefix = np.asarray(prefix, dtype=np.float64)
        if len(prefix) == 0:
            raise InvalidValue("ETS prediction needs a nonempty prefix")
        level = smoothed_levels(ilr_forward(smooth(prefix)), self.alphas)[-1]
        return ilr_inverse(level, prefix.shape[1])


def ets_fit(train_seqs) -> EtsPredictor:
    """Per-ilr-coordinate grid search for the smoothing weight minimizing
    pooled one-step-ahead squared error."""
    if not train_seqs:
        raise InvalidValue("ETS needs at least one training series")
    dim = np.asarray(train_seqs[0].steps).shape[1]
    zs = [ilr_forward(smooth(seq.steps)) for seq in train_seqs]
    errors = np.zeros((len(ETS_ALPHA_GRID), dim - 1))
    for ai, alpha in enumerate(ETS_ALPHA_GRID):
        for z in zs:
            if len(z) < 2:
                continue
            levels = smoothed_levels(z, alpha)
            errors[ai] += ((z[1:] - levels[:-1]) ** 2).sum(axis=0)
    best = np.argmin(errors, axis=0)
    return EtsPredictor(ETS_ALPHA_GRID[best])


# -------------------------------------------------------------------- cast


@dataclass
class CastPredictor(Predictor):
    params: object

    def predict(self, prefix):
        return self.predict_all(prefix, [len(prefix) - 1])[0]

    def predict_all(self, steps, ts):
        """Every row in one `model.forward` pass over the sequence."""
        from .model import forward

        return forward(steps, ts, self.params)[0]
